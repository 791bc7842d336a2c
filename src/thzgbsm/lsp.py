"""Correlated large-scale parameter (LSP) draws.

Per drop location the simulator needs a delay spread, azimuth spread of
arrival, shadow fading and (LoS only) a Rician K-factor that are
cross-correlated per the scenario's measured matrix and, when locations
are supplied, spatially correlated with per-parameter exponential
correlation distances.

Recipe: one independent standard-normal field per parameter, sampled at
the drop locations (or iid draws when no geometry is involved), mixed
with the matrix square root of the PSD-projected cross-correlation
matrix, then pushed through the per-parameter marginal transforms
(lognormal for spreads, normal dB for SF and K).
"""

from __future__ import annotations

import numpy as np

from .fields import GaussianField
from .params import LSP_ORDER, ScenarioParamSet

#: Azimuth spreads saturate; draws above this are clipped (degrees).
ASA_CAP_DEG = 104.0


def transform_standard_normals(params: ScenarioParamSet, z: np.ndarray) -> dict:
    """Apply marginal transforms to correlated standard normals.

    ``z`` has one column per parameter in LSP_ORDER (K column only for
    LoS sets). Spreads are lognormal in log10 domain, SF is zero-mean
    normal in dB, K is normal in dB. Returns ``ds_s``, ``asa_deg``,
    ``sf_db`` and, for LoS sets only, ``k_db`` columns.
    """
    names = params.lsp_names
    if z.shape[1] != len(names):
        raise ValueError(f"expected {len(names)} columns, got {z.shape[1]}")
    cols = dict(zip(names, z.T))
    out = {
        "ds_s": 10.0 ** (params.ds_log10s.mu + params.ds_log10s.sigma * cols["ds"]),
        "asa_deg": np.minimum(
            10.0 ** (params.asa_log10deg.mu + params.asa_log10deg.sigma * cols["asa"]),
            ASA_CAP_DEG),
        "sf_db": params.pathloss.sigma_sf_db * cols["sf"],
    }
    if "k" in cols:
        out["k_db"] = params.k_db.mu + params.k_db.sigma * cols["k"]
    return out


def generate_lsp(params: ScenarioParamSet, x_m, y_m, rng) -> dict:
    """Spatially and cross-correlated LSPs at explicit 2D locations.

    One exponential-correlation field per parameter (its own correlation
    distance) supplies the spatial structure; the cross-correlation is
    imposed by mixing the per-parameter field samples at each location.
    Every field shares one grid step, a quarter of the set's smallest
    correlation distance, so each is comfortably oversampled. Returns
    ``transform_standard_normals`` columns, one entry per location.
    """
    x = np.atleast_1d(np.asarray(x_m, dtype=float))
    y = np.atleast_1d(np.asarray(y_m, dtype=float))
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x_m and y_m must be matching 1-D arrays")
    names = params.lsp_names
    step = min(params.corr_dist_m[n] for n in names) / 4.0
    extent = ((x.min(), x.max()), (y.min(), y.max()))
    cols = []
    for nm in names:
        f = GaussianField(params.corr_dist_m[nm], extent, rng, step)
        cols.append(f.sample(x, y))
    z = np.column_stack(cols) @ params.mixing_matrix.T
    return transform_standard_normals(params, z)


def draw_lsp_iid(params: ScenarioParamSet, n: int, rng) -> dict:
    """Cross-correlated but spatially independent LSP draws.

    Used for independent drops (capacity experiments, round-trip checks)
    where locations are statistically unrelated; ``transform_standard_normals``
    columns of n entries, drawn by one generator or each by its own of n;
    a row is mixed by its own (1, L) product, with the bits it gets alone.
    """
    row = (1, len(params.lsp_names))
    z = (rng.standard_normal((n, *row)) if isinstance(rng, np.random.Generator)
         else np.stack([r.standard_normal(row) for r in rng]))
    if len(z) != n:
        raise ValueError(f"{len(z)} generators for {n} draws")
    return transform_standard_normals(params, (z @ params.mixing_matrix.T)[:, 0])
