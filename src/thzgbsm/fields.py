"""Spatially correlated standard-normal fields.

Large-scale parameters decorrelate exponentially with distance, with a
per-parameter correlation distance. A field is realized by convolving
white Gaussian noise on a regular grid with an exponential kernel
``exp(-r/a)``; the kernel scale ``a`` is calibrated numerically so the
resulting normalized autocorrelation equals ``1/e`` at exactly the
requested correlation distance (the naive choice ``a = d_corr`` does
not, because the squared kernel that the autocorrelation sees decays
twice as fast).

Values between grid nodes come from bilinear interpolation followed by
a variance restandardization, so sampled marginals stay N(0, 1) at any
query point, not only on the nodes.
"""

from __future__ import annotations

import numpy as np

# Kernel support radius in units of the kernel scale. exp(-8) ~ 3e-4,
# negligible against unit correlations.
_TRUNCATION = 8.0

# Most grid cells one field may build: 2**22 float64 cells are 32 MiB per
# array. The bundled sets at their default steps stay under 1e6.
MAX_GRID_CELLS = 2**22

# a/h bisection results keyed by the dimensionless ratio d_corr/h.
_calibration_cache: dict[float, tuple[float, float, float]] = {}


def _kernel(a_cells: float) -> np.ndarray:
    r = int(np.ceil(_TRUNCATION * a_cells))
    y, x = np.mgrid[-r:r + 1, -r:r + 1]
    return np.exp(-np.hypot(x, y) / a_cells)


def _lag_corr(k: np.ndarray, dy: int, dx: int) -> float:
    """Normalized autocorrelation of the kernel field at lag (dy, dx)
    cells: the kernel's overlap with its shifted self over its energy."""
    h, w = k.shape
    return float((k[dy:, dx:] * k[:h - dy, :w - dx]).sum() / (k * k).sum())


def _autocorr_at(a_cells: float, lag_cells: float) -> float:
    """Normalized autocorrelation of the kernel field at a lag along x."""
    k = _kernel(a_cells)
    lo = int(np.floor(lag_cells))
    frac = lag_cells - lo
    hi = min(lo + 1, k.shape[1] - 1)
    return (1 - frac) * _lag_corr(k, 0, lo) + frac * _lag_corr(k, 0, hi)


def _calibrate(ratio: float) -> tuple[float, float, float]:
    """Solve for a/h so the field autocorrelation at d_corr is 1/e.

    Returns (a_cells, rho_1, rho_diag): the kernel scale in cells and the
    autocorrelation at one-cell and diagonal one-cell lags, which the
    interpolation variance correction needs.
    """
    key = round(ratio, 9)
    if key in _calibration_cache:
        return _calibration_cache[key]
    target = 1.0 / np.e
    lo, hi = ratio / 8.0, ratio * 4.0
    # autocorrelation at a fixed lag grows monotonically with kernel scale
    while _autocorr_at(lo, ratio) > target:
        lo /= 2.0
    while _autocorr_at(hi, ratio) < target:
        hi *= 2.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if _autocorr_at(mid, ratio) < target:
            lo = mid
        else:
            hi = mid
    a_cells = 0.5 * (lo + hi)
    k = _kernel(a_cells)
    result = (a_cells, _lag_corr(k, 0, 1), _lag_corr(k, 1, 1))
    _calibration_cache[key] = result
    return result


def _check_cells(cells: float, step_m: float) -> None:
    """Refuse a grid step whose arrays would exceed MAX_GRID_CELLS."""
    if not cells <= MAX_GRID_CELLS:
        raise ValueError(
            f"grid_step_m={step_m:g} needs about {cells:.3g} field grid "
            f"cells, more than {MAX_GRID_CELLS}; use a coarser grid step")


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
    grid_step_m : float, optional
        Grid resolution; defaults to ``corr_dist_m / 4``. Must not
        exceed ``corr_dist_m / 2``.
    """

    def __init__(self, corr_dist_m, extent, rng, grid_step_m=None):
        if corr_dist_m <= 0:
            raise ValueError("corr_dist_m must be positive")
        (xmin, xmax), (ymin, ymax) = extent
        if xmax < xmin or ymax < ymin:
            raise ValueError("extent must be non-empty")
        if grid_step_m is None:
            grid_step_m = corr_dist_m / 4.0
        if grid_step_m <= 0:
            raise ValueError("grid_step_m must be positive")
        if grid_step_m > corr_dist_m / 2.0 + 1e-12:
            raise ValueError("grid_step_m must not exceed corr_dist_m / 2")

        self.corr_dist_m = float(corr_dist_m)
        self.grid_step_m = float(grid_step_m)
        h = self.grid_step_m

        # the calibration's widest kernel has a scale of 4 d_corr/h cells
        _check_cells((2 * _TRUNCATION * 4.0 * self.corr_dist_m / h + 1) ** 2, h)
        a_cells, self._rho1, self._rho_diag = _calibrate(self.corr_dist_m / h)
        pad = int(np.ceil(_TRUNCATION * a_cells))

        # one guard cell beyond each edge so bilinear interpolation has a
        # full cell around every in-extent query point
        self._x0 = xmin - h
        self._y0 = ymin - h
        nx = int(np.ceil((xmax - self._x0) / h)) + 2
        ny = int(np.ceil((ymax - self._y0) / h)) + 2
        self._xmax, self._ymax = xmax, ymax
        self._xmin, self._ymin = xmin, ymin

        _check_cells((ny + 2 * pad) * (nx + 2 * pad), h)
        kern = _kernel(a_cells)
        kern = kern / np.sqrt((kern**2).sum())
        white = rng.standard_normal((ny + 2 * pad, nx + 2 * pad))
        # the kernel is 2*pad + 1 wide: past the first 2*pad rows and columns
        # the circular convolution is the linear one's wrap-free "valid" part
        spec = np.fft.rfft2(white) * np.fft.rfft2(kern, s=white.shape)
        smooth = np.fft.irfft2(spec, s=white.shape)
        self.values = smooth[2 * pad:, 2 * pad:]
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
