import numpy as np
import pytest
from numpy.testing import assert_allclose

from thzgbsm.fields import GaussianField


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
