import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from thzgbsm.fields import GaussianField


def _transect_autocorr(values, lag_steps):
    v = (values - values.mean()) / values.std()
    return float(np.mean(v[:-lag_steps] * v[lag_steps:]))


def test_field_is_reproducible():
    extent = ((0.0, 50.0), (0.0, 50.0))
    f1 = GaussianField(5.0, extent, np.random.default_rng(3), 1.25)
    f2 = GaussianField(5.0, extent, np.random.default_rng(3), 1.25)
    x = np.linspace(1.0, 49.0, 40)
    y = np.linspace(1.0, 49.0, 40)
    assert np.array_equal(f1.sample(x, y), f2.sample(x, y))


class _Impulses:
    """Stand-in generator whose successive white-noise draws are the unit
    impulses of the torus, one cell after another."""

    def __init__(self):
        self.calls = 0
        self.cells = None

    def standard_normal(self, shape):
        white = np.zeros(shape)
        white.flat[self.calls] = 1.0
        self.calls += 1
        self.cells = white.size
        return white


def test_node_covariance_is_exact_exponential():
    """The impulse responses are the columns of the synthesis matrix A, so
    A @ A.T is the node covariance: exp(-r / d_corr) at every node pair."""
    d_corr, step = 2.0, 0.5
    impulses = _Impulses()
    cols = []
    while impulses.cells is None or impulses.calls < impulses.cells:
        f = GaussianField(d_corr, ((0.0, 1.0), (0.0, 1.0)), impulses, step)
        cols.append(f.values.ravel())
    a = np.stack(cols, axis=1)
    iy, ix = np.divmod(np.arange(f.values.size), f.shape[1])
    dist = step * np.hypot(iy[:, None] - iy[None, :], ix[:, None] - ix[None, :])
    assert_allclose(a @ a.T, np.exp(-dist / d_corr), rtol=0, atol=1e-12)


def test_node_autocorrelation_follows_exponential_at_many_lags():
    """Empirical node correlation over 40 fields, along both axes."""
    d_corr, step = 2.0, 0.5
    lags = {1: [], 2: [], 4: [], 8: [], 12: []}   # r/d = 0.25 ... 3
    for seed in range(40):
        v = GaussianField(d_corr, ((0.0, 60.0), (0.0, 60.0)),
                          np.random.default_rng(seed), step).values
        for lag, got in lags.items():
            got.append(0.5 * (np.mean(v[:, :-lag] * v[:, lag:])
                              + np.mean(v[:-lag] * v[lag:])))
    for lag, got in lags.items():
        assert np.mean(got) == pytest.approx(np.exp(-lag * step / d_corr),
                                             abs=0.03), lag


def test_fine_grid_step_builds():
    # a d_corr/40 step over 10 m needs a 523 x 523 torus
    f = GaussianField(2.0, ((0.0, 10.0), (0.0, 10.0)),
                      np.random.default_rng(0), grid_step_m=2.0 / 40)
    assert f.shape == (203, 203)
    assert np.isfinite(f.sample(5.0, 5.0)).all()


def test_field_marginals_standard_normal():
    # many independent fields sampled at one point each
    vals = []
    for i in range(400):
        f = GaussianField(3.0, ((0.0, 12.0), (0.0, 12.0)),
                          np.random.default_rng(i), 0.75)
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
                      np.random.default_rng(11), d_corr / 4.0)
    x = np.arange(n) * step
    vals = f.sample(x, np.full(n, 0.5))
    rho = _transect_autocorr(vals, 2)
    assert rho == pytest.approx(np.exp(-1.0), abs=0.1)


def test_interpolated_points_keep_unit_variance():
    # off-grid sampling must not be smoothed below unit variance
    vals = []
    for i in range(300):
        f = GaussianField(4.0, ((0.0, 20.0), (0.0, 20.0)),
                          np.random.default_rng(1000 + i), 1.0)
        vals.append(f.sample(10.0 + 0.5 * f.grid_step_m, 10.0 + 0.5 * f.grid_step_m))
    vals = np.asarray(vals, dtype=float)
    assert abs(vals.std() - 1.0) < 0.15


def test_out_of_extent_raises():
    f = GaussianField(2.0, ((0.0, 10.0), (0.0, 10.0)),
                      np.random.default_rng(0), 0.5)
    with pytest.raises(ValueError):
        f.sample(11.0, 5.0)
    with pytest.raises(ValueError):
        f.sample(5.0, -0.5)


def test_too_coarse_grid_rejected():
    with pytest.raises(ValueError):
        GaussianField(2.0, ((0.0, 10.0), (0.0, 10.0)),
                      np.random.default_rng(0), grid_step_m=1.5)


@pytest.mark.parametrize(("extent", "step"), [
    (((0.0, 10.0), (0.0, 10.0)), 1e-4),   # torus margin too wide
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
    # the refused grids need 540 GB and 320 GB
    assert peak < 16 << 20
