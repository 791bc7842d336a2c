"""Vendored generation constants shared by all scenarios.

These are fixed algorithm data in the style of the 3GPP TR 38.901
procedure: the canonical 20-ray offset table and the azimuth/zenith
scaling constants used by the inverse-Gaussian / inverse-Laplacian
cluster angle constructions. Scenario-dependent values live in the
bundled YAML parameter files, never here.
"""

from __future__ import annotations

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s

# Canonical ray offset angles (unit spread), 20 rays, symmetric pairs.
RAY_OFFSETS = np.array([
    0.0447, -0.0447,
    0.1413, -0.1413,
    0.2492, -0.2492,
    0.3715, -0.3715,
    0.5129, -0.5129,
    0.6797, -0.6797,
    0.8844, -0.8844,
    1.1481, -1.1481,
    1.5195, -1.5195,
    2.1551, -2.1551,
])

# Azimuth scaling constant C_phi vs cluster count (NLoS base values).
CPHI_TABLE = {
    4: 0.779, 5: 0.860, 8: 1.018, 10: 1.090, 11: 1.123, 12: 1.146,
    14: 1.190, 15: 1.211, 16: 1.226, 19: 1.273, 20: 1.289,
}

# Zenith scaling constant C_theta vs cluster count (NLoS base values).
CTHETA_TABLE = {
    8: 0.889, 10: 0.957, 11: 1.031, 12: 1.104, 15: 1.1088,
    19: 1.184, 20: 1.178,
}


def ray_offsets(n_rays: int) -> np.ndarray:
    """First ``n_rays`` entries of the canonical offset table, re-centered.

    Re-centering to zero mean keeps the cluster centroid unbiased when
    fewer than 20 rays are used (measured THz clusters carry 2-5 rays).
    """
    if not 1 <= n_rays <= len(RAY_OFFSETS):
        raise ValueError(f"n_rays must be in 1..{len(RAY_OFFSETS)}, got {n_rays}")
    off = RAY_OFFSETS[:n_rays].copy()
    return off - off.mean()


def _table_lookup(table: dict, n: int) -> float:
    # Exact where tabulated; linear interpolation between neighbors;
    # linear extrapolation from the two nearest anchors outside the range.
    # Extrapolated values only seed the raw construction; the composite
    # angular spread is rescaled to its drawn target afterwards, so the
    # residual inaccuracy does not propagate.
    keys = sorted(table)
    if n in table:
        return table[n]
    if n < keys[0]:
        k0, k1 = keys[0], keys[1]
    elif n > keys[-1]:
        k0, k1 = keys[-2], keys[-1]
    else:
        k1 = min(k for k in keys if k > n)
        k0 = max(k for k in keys if k < n)
    v0, v1 = table[k0], table[k1]
    return v0 + (v1 - v0) * (n - k0) / (k1 - k0)


def c_phi(n_clusters: int, k_db: float | None = None) -> float:
    """Azimuth scaling constant, with the Rician correction when K is given."""
    base = _table_lookup(CPHI_TABLE, n_clusters)
    if k_db is not None:
        k = float(k_db)
        base *= 1.1035 - 0.028 * k - 0.002 * k**2 + 0.0001 * k**3
    return base


def c_theta(n_clusters: int, k_db: float | None = None) -> float:
    """Zenith scaling constant, with the Rician correction when K is given."""
    base = _table_lookup(CTHETA_TABLE, n_clusters)
    if k_db is not None:
        k = float(k_db)
        base *= 1.3086 + 0.0339 * k - 0.0077 * k**2 + 0.0002 * k**3
    return base


def wrap_deg(angle_deg):
    """Wrap angles into [-180, 180)."""
    return (np.asarray(angle_deg, dtype=float) + 180.0) % 360.0 - 180.0


def spherical_unit(zenith_deg, azimuth_deg) -> np.ndarray:
    """Unit propagation vector(s); output shape is input shape + (3,)."""
    zen = np.deg2rad(np.asarray(zenith_deg, dtype=float))
    az = np.deg2rad(np.asarray(azimuth_deg, dtype=float))
    sz = np.sin(zen)
    return np.stack([sz * np.cos(az), sz * np.sin(az), np.cos(zen)], axis=-1)
