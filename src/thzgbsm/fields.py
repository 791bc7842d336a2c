"""Spatially correlated standard-normal fields.

Large-scale parameters decorrelate exponentially with distance: two
points ``r`` apart correlate as ``exp(-r / d_corr)``, with a
per-parameter correlation distance (3GPP TR 38.901 §7.6.3). A field
draws that covariance on a regular grid by circulant embedding
(Dietrich & Newsam, SIAM J. Sci. Comput. 18(4), 1997). The grid plus a
margin of ``4 d_corr`` on every side is wrapped onto a torus. There the
covariance over minimum-image lags is a circulant matrix whose
eigenvalues are the 2-D FFT of its first row, and white noise filtered
by their square roots has exactly that covariance. Node pairs less than
half the torus apart along each axis get ``exp(-r / d_corr)`` exactly;
farther pairs see the lag the short way round, at least ``8 d_corr``,
so their correlation is below ``exp(-8) ~ 3e-4``.

Values between grid nodes come from bilinear interpolation followed by
a variance restandardization, so sampled marginals stay N(0, 1) at any
query point, not only on the nodes.
"""

from __future__ import annotations

import numpy as np

# Torus margin beyond the kept grid, in correlation distances.
_MARGIN = 4.0

# Most grid cells one field may build: 2**22 float64 cells are 32 MiB per
# array. The bundled sets, at a quarter of their correlation distances,
# stay under 1e6.
MAX_GRID_CELLS = 2**22


def _wrapped_lags(n: int) -> np.ndarray:
    """Minimum-image lag, in cells, of each index on a ring of n cells."""
    i = np.arange(n)
    return np.minimum(i, n - i)


class GaussianField:
    """One spatially correlated standard-normal field over a rectangle.

    Parameters
    ----------
    corr_dist_m : float
        Distance at which the field autocorrelation falls to 1/e.
    extent : ((xmin, xmax), (ymin, ymax))
        Region (meters) the field must cover. Queries outside it raise.
    rng : numpy.random.Generator
        Source of the white noise.
    grid_step_m : float
        Grid resolution; positive and at most ``corr_dist_m / 2``.
    """

    def __init__(self, corr_dist_m, extent, rng, grid_step_m):
        if corr_dist_m <= 0:
            raise ValueError("corr_dist_m must be positive")
        (xmin, xmax), (ymin, ymax) = extent
        if xmax < xmin or ymax < ymin:
            raise ValueError("extent must be non-empty")
        if grid_step_m <= 0:
            raise ValueError("grid_step_m must be positive")
        if grid_step_m > corr_dist_m / 2.0 + 1e-12:
            raise ValueError("grid_step_m must not exceed corr_dist_m / 2")

        self.corr_dist_m = float(corr_dist_m)
        self.grid_step_m = float(grid_step_m)
        h = self.grid_step_m
        ratio = self.corr_dist_m / h
        self._rho1 = np.exp(-1.0 / ratio)
        self._rho_diag = np.exp(-np.sqrt(2.0) / ratio)

        # one guard cell beyond each edge so bilinear interpolation has a
        # full cell around every in-extent query point
        self._x0 = xmin - h
        self._y0 = ymin - h
        nx = np.ceil((xmax - self._x0) / h) + 2
        ny = np.ceil((ymax - self._y0) / h) + 2
        self._xmax, self._ymax = xmax, ymax
        self._xmin, self._ymin = xmin, ymin

        # checked in floats, before any count becomes an int or an array
        margin = np.ceil(_MARGIN * ratio)
        cells = (ny + 2 * margin) * (nx + 2 * margin)
        if not cells <= MAX_GRID_CELLS:
            raise ValueError(
                f"a field of correlation distance {self.corr_dist_m:g} m at "
                f"grid_step_m={h:g} needs about {cells:.3g} grid cells, "
                f"more than {MAX_GRID_CELLS}")
        ny, nx, margin = int(ny), int(nx), int(margin)
        torus = (ny + 2 * margin, nx + 2 * margin)
        lag = np.hypot(_wrapped_lags(torus[0])[:, None],
                       _wrapped_lags(torus[1])[None, :])
        # eigenvalues of the circulant covariance. The wrapped exponential
        # is not exactly positive definite: at steps much finer than
        # d_corr a few fall a little below zero, and are clipped.
        lam = np.fft.rfft2(np.exp(-lag / ratio)).real
        white = rng.standard_normal(torus)
        spec = np.sqrt(np.maximum(lam, 0.0)) * np.fft.rfft2(white)
        self.values = np.fft.irfft2(spec, s=torus)[:ny, :nx]
        self.shape = self.values.shape

    def sample(self, x_m, y_m) -> np.ndarray:
        """Field values at arbitrary points inside the extent, N(0,1) each."""
        x = np.atleast_1d(np.asarray(x_m, dtype=float))
        y = np.atleast_1d(np.asarray(y_m, dtype=float))
        if x.shape != y.shape:
            raise ValueError("x_m and y_m must have matching shapes")
        eps = 1e-9
        if (x < self._xmin - eps).any() or (x > self._xmax + eps).any() \
                or (y < self._ymin - eps).any() or (y > self._ymax + eps).any():
            raise ValueError("query location outside the field extent")

        h = self.grid_step_m
        gx = (x - self._x0) / h
        gy = (y - self._y0) / h
        ix = np.clip(gx.astype(int), 0, self.shape[1] - 2)
        iy = np.clip(gy.astype(int), 0, self.shape[0] - 2)
        fx = gx - ix
        fy = gy - iy

        v00 = self.values[iy, ix]
        v10 = self.values[iy, ix + 1]
        v01 = self.values[iy + 1, ix]
        v11 = self.values[iy + 1, ix + 1]
        w00 = (1 - fx) * (1 - fy)
        w10 = fx * (1 - fy)
        w01 = (1 - fx) * fy
        w11 = fx * fy
        val = w00 * v00 + w10 * v10 + w01 * v01 + w11 * v11

        # Interpolation shrinks the variance between nodes; divide by the
        # exact standard deviation of the weighted sum so marginals stay
        # standard normal everywhere.
        r1, rd = self._rho1, self._rho_diag
        var = (w00**2 + w10**2 + w01**2 + w11**2
               + 2 * r1 * (w00 * w10 + w00 * w01 + w10 * w11 + w01 * w11)
               + 2 * rd * (w00 * w11 + w10 * w01))
        return val / np.sqrt(var)
