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

from dataclasses import dataclass

import numpy as np

from .fields import GaussianField
from .params import LSP_ORDER, ScenarioParamSet

#: Azimuth spreads saturate; draws above this are clipped (degrees).
ASA_CAP_DEG = 104.0


@dataclass
class LspRealization:
    """Large-scale parameters per location, in linear/physical units."""
    ds_s: np.ndarray
    asa_deg: np.ndarray
    sf_db: np.ndarray
    k_db: np.ndarray | None = None   # None for NLoS sets

    def row(self, i: int) -> dict:
        return {
            "ds_s": float(self.ds_s[i]),
            "asa_deg": float(self.asa_deg[i]),
            "sf_db": float(self.sf_db[i]),
            "k_db": float(self.k_db[i]) if self.k_db is not None else None,
        }


def transform_standard_normals(params: ScenarioParamSet, z: np.ndarray) -> dict:
    """Apply marginal transforms to correlated standard normals.

    ``z`` has one column per parameter in LSP_ORDER (K column only for
    LoS sets). Spreads are lognormal in log10 domain, SF is zero-mean
    normal in dB, K is normal in dB.
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


def generate_lsp(params: ScenarioParamSet, x_m, y_m, rng,
                 grid_step_m=None) -> LspRealization:
    """Spatially and cross-correlated LSPs at explicit 2D locations.

    One exponential-correlation field per parameter (its own correlation
    distance) supplies the spatial structure; the cross-correlation is
    imposed by mixing the per-parameter field samples at each location.
    """
    x = np.atleast_1d(np.asarray(x_m, dtype=float))
    y = np.atleast_1d(np.asarray(y_m, dtype=float))
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x_m and y_m must be matching 1-D arrays")
    names = params.lsp_names
    extent = ((x.min(), x.max()), (y.min(), y.max()))
    cols = []
    for nm in names:
        step = grid_step_m
        if step is None:
            # quarter of the smallest correlation distance keeps every
            # field comfortably oversampled on a shared default
            step = min(params.corr_dist_m[n] for n in names) / 4.0
        f = GaussianField(params.corr_dist_m[nm], extent, rng, step)
        cols.append(f.sample(x, y))
    z = np.column_stack(cols) @ params.mixing_matrix.T
    return LspRealization(**transform_standard_normals(params, z))


def draw_lsp_iid(params: ScenarioParamSet, n: int, rng) -> LspRealization:
    """Cross-correlated but spatially independent LSP draws.

    Used for independent drops (capacity experiments, round-trip checks)
    where locations are statistically unrelated.
    """
    z = rng.standard_normal((n, len(params.lsp_names))) @ params.mixing_matrix.T
    return LspRealization(**transform_standard_normals(params, z))
