import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from thzgbsm.fields import GaussianField, _autocorr_at, _calibrate, _kernel


def _transect_autocorr(values, lag_steps):
    v = (values - values.mean()) / values.std()
    return float(np.mean(v[:-lag_steps] * v[lag_steps:]))


def test_field_is_reproducible():
    extent = ((0.0, 50.0), (0.0, 50.0))
    f1 = GaussianField(5.0, extent, np.random.default_rng(3))
    f2 = GaussianField(5.0, extent, np.random.default_rng(3))
    x = np.linspace(1.0, 49.0, 40)
    y = np.linspace(1.0, 49.0, 40)
    assert np.array_equal(f1.sample(x, y), f2.sample(x, y))


def test_field_is_direct_convolution_of_white_noise():
    """Node values are the kernel summed over the seed's white noise."""
    f = GaussianField(2.0, ((0.0, 3.0), (-1.0, 1.5)), np.random.default_rng(5))
    a_cells, _, _ = _calibrate(f.corr_dist_m / f.grid_step_m)
    kern = _kernel(a_cells)
    kern /= np.sqrt((kern**2).sum())
    pad = kern.shape[0] // 2
    ny, nx = f.shape
    white = np.random.default_rng(5).standard_normal((ny + 2 * pad, nx + 2 * pad))
    want = np.zeros((ny, nx))
    for i in range(ny):
        for j in range(nx):
            # kernel centered on noise cell (i + pad, j + pad)
            want[i, j] = (kern * white[i:i + 2 * pad + 1, j:j + 2 * pad + 1]).sum()
    assert_allclose(f.values, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("ratio", [2.0, 4.0, 7.5])
def test_calibrated_kernel_autocorrelation_is_one_over_e(ratio):
    a_cells, _, _ = _calibrate(ratio)
    assert abs(_autocorr_at(a_cells, ratio) - np.exp(-1.0)) < 1e-9
    # at whole-cell lags, the kernel autocorrelation from its power spectrum
    k = _kernel(a_cells)
    shape = (2 * k.shape[0], 2 * k.shape[1])
    acf = np.fft.irfft2(np.abs(np.fft.rfft2(k, s=shape)) ** 2, s=shape)
    lag = int(ratio)
    assert _autocorr_at(a_cells, lag) == pytest.approx(acf[0, lag] / acf[0, 0],
                                                       abs=1e-12)


def test_field_marginals_standard_normal():
    # many independent fields sampled at one point each
    vals = []
    for i in range(400):
        f = GaussianField(3.0, ((0.0, 12.0), (0.0, 12.0)),
                          np.random.default_rng(i))
        vals.append(f.sample(5.3, 7.1))
    vals = np.asarray(vals, dtype=float)
    assert abs(vals.mean()) < 0.15
    assert abs(vals.std() - 1.0) < 0.12


def test_autocorrelation_hits_one_over_e_at_corr_dist():
    """Long-transect empirical autocorrelation at the correlation distance."""
    d_corr = 2.0
    step = d_corr / 2.0
    n = 6000
    length = n * step
    f = GaussianField(d_corr, ((0.0, length), (0.0, 1.0)),
                      np.random.default_rng(11))
    x = np.arange(n) * step
    vals = f.sample(x, np.full(n, 0.5))
    rho = _transect_autocorr(vals, 2)
    assert rho == pytest.approx(np.exp(-1.0), abs=0.1)


def test_interpolated_points_keep_unit_variance():
    # off-grid sampling must not be smoothed below unit variance
    vals = []
    for i in range(300):
        f = GaussianField(4.0, ((0.0, 20.0), (0.0, 20.0)),
                          np.random.default_rng(1000 + i))
        vals.append(f.sample(10.0 + 0.5 * f.grid_step_m, 10.0 + 0.5 * f.grid_step_m))
    vals = np.asarray(vals, dtype=float)
    assert abs(vals.std() - 1.0) < 0.15


def test_out_of_extent_raises():
    f = GaussianField(2.0, ((0.0, 10.0), (0.0, 10.0)),
                      np.random.default_rng(0))
    with pytest.raises(ValueError):
        f.sample(11.0, 5.0)
    with pytest.raises(ValueError):
        f.sample(5.0, -0.5)


def test_too_coarse_grid_rejected():
    with pytest.raises(ValueError):
        GaussianField(2.0, ((0.0, 10.0), (0.0, 10.0)),
                      np.random.default_rng(0), grid_step_m=1.5)


@pytest.mark.parametrize(("extent", "step"), [
    (((0.0, 10.0), (0.0, 10.0)), 1e-4),   # calibration kernel too wide
    (((0.0, 1e5), (0.0, 1e5)), 0.5),      # noise grid too large
], ids=["kernel", "grid"])
def test_oversized_grid_refused_before_allocating(extent, step):
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="grid cells") as exc:
            GaussianField(2.0, extent, rng, grid_step_m=step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"grid_step_m={step:g}" in str(exc.value)
    # the refused grids need 13 TB and 320 GB; a small calibration may run
    assert peak < 16 << 20
