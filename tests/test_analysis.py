import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from thzgbsm import analysis
from thzgbsm.analysis import (
    MAX_ITER, N_INIT, KPowerMeans, ThresholdError, analyze_mpcs, analyze_pdp,
    cluster_stats, cross_corr, extract_drop_stats, fit_lognormal, fit_normal,
    k_factor, kpower_means, lsp_cross_corr, mcd_embedding, rms_ds, asa,
    select_n_clusters)
from thzgbsm.clusters import build_drop
from thzgbsm.params import CONDITIONS, SCENARIOS, SOURCES, load_params


# --- delay spread ---

def test_rms_ds_two_equal_taps_is_half_spacing():
    for delta in (1e-9, 5e-9, 37e-9):
        assert rms_ds([0.0, delta], [1.0, 1.0]) == pytest.approx(delta / 2)


def test_rms_ds_known_value():
    # powers (1, 0.5) at delays (0, 10 ns): sqrt(200/9) ns
    got = rms_ds([0.0, 10e-9], [1.0, 0.5])
    assert got == pytest.approx(np.sqrt(200.0 / 9.0) * 1e-9, rel=1e-12)


def test_rms_ds_single_tap_zero():
    assert rms_ds([5e-9], [2.0]) == 0.0


@given(st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=30, deadline=None)
def test_rms_ds_power_scale_invariant(scale):
    d = np.array([0.0, 3e-9, 11e-9])
    p = np.array([1.0, 0.4, 0.1])
    assert rms_ds(d, p * scale) == pytest.approx(rms_ds(d, p), rel=1e-9)


# --- angular spread ---

def test_asa_single_direction_is_zero():
    assert asa([57.0], [1.0]) == 0.0
    # co-located rays: zero up to floating-point roundoff in the resultant
    assert asa([10.0, 10.0, 10.0], [1.0, 2.0, 0.5]) == pytest.approx(0.0, abs=1e-5)


def test_asa_two_orthogonal_equal_rays():
    # resultant length 1/sqrt(2): spread sqrt(1/2) rad
    expect = np.degrees(np.sqrt(0.5))
    assert asa([0.0, 90.0], [1.0, 1.0]) == pytest.approx(expect)
    assert expect == pytest.approx(40.5142, abs=1e-3)


def test_asa_saturates_at_one_radian_for_uniform_power():
    az = np.arange(0.0, 360.0, 1.0)
    p = np.ones_like(az)
    assert asa(az, p) == pytest.approx(np.degrees(1.0), rel=1e-6)


def test_asa_invariant_to_rotation_and_scale():
    az = np.array([-40.0, 10.0, 95.0])
    p = np.array([0.5, 1.0, 0.25])
    base = asa(az, p)
    assert asa(az + 133.0, p) == pytest.approx(base, rel=1e-9)
    assert asa(az - 360.0, 7.3 * p) == pytest.approx(base, rel=1e-9)


def test_zenith_spread_weighted_std():
    # the zenith spread is the power-weighted std that rms_ds computes
    z = np.array([80.0, 100.0])
    assert rms_ds(z, [1.0, 1.0]) == pytest.approx(10.0)


# --- K-factor ---

def test_k_factor_oracles():
    assert k_factor([2.0, 1.0]) == pytest.approx(10 * np.log10(2.0))
    assert k_factor([1.0, 1.0, 1.0]) == pytest.approx(-10 * np.log10(2.0))
    assert k_factor([1.0, 1.0]) == pytest.approx(0.0)


def test_k_factor_infinite_policy():
    assert k_factor([1.0]) == np.inf
    # zero-power entries do not count as competing components
    assert k_factor([1.0, 0.0, 0.0]) == np.inf


@pytest.mark.parametrize(("powers", "want"), [
    ([1e-300, 1e300, 1.0, 1e-320], 3000.0),
    ([1e300, 1e-10], 3100.0),
], ids=["rest-rounds-away", "ratio-overflows"])
def test_k_factor_finite_when_the_sum_rounds_the_rest_away(powers, want):
    """More than one powered component gives a finite K, without a
    warning, even where the peak swallows the rest in the sum."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert k_factor(powers) == pytest.approx(want, rel=1e-12)


def test_stacked_statistics_equal_each_row_alone():
    """extract_drop_stats of stacked rows reduces over the last axis: each
    row's DS, ASA and K are bit for bit that row's alone, also for rows
    whose K takes the single-component, zero-power or rounded-away path,
    and a row without power fails the whole stack."""
    rng = np.random.default_rng(8)
    t = rng.uniform(0.0, 1e-7, (40, 13))
    p = rng.uniform(0.0, 1.0, (40, 13))
    a = rng.uniform(-180.0, 180.0, (40, 13))
    p[3, 1:] = 0.0                          # one powered component
    p[5, [2, 7]] = 0.0
    p[9] = [1e300, *[1e-300] * 12]          # the sum rounds the rest away
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = extract_drop_stats(t.reshape(4, 10, 13), p.reshape(4, 10, 13),
                                 a.reshape(4, 10, 13))
    for k, v in got.items():
        assert v.shape == (4, 10)
        want = [extract_drop_stats(*row)[k] for row in zip(t, p, a)]
        assert v.ravel().tobytes() == np.array(want).tobytes()
    p[12] = 0.0
    with pytest.raises(ValueError):
        extract_drop_stats(t, p, a)


# --- power-delay profiles ---

def _pdp(delay_s, power, directions=None, noise_floor=None, margin_db=6.0):
    return analyze_pdp(directions or {}, delay_s, power, 1.0, noise_floor,
                       margin_db)


def _omni_report(delay_s, omni):
    """The report fields analyze_pdp derives from an omni profile."""
    omni = np.asarray(omni, dtype=float)
    return {"ds_ns": round(rms_ds(delay_s, omni) * 1e9, 6),
            "k_db": round(k_factor(omni), 6),
            "pl_db": round(-10.0 * np.log10(omni.sum()), 6)}


def test_pdp_validates_delays():
    with pytest.raises(ValueError, match="repeats within one pointing"):
        _pdp([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="repeats within one pointing"):
        _pdp([0.0, 1e-9, 0.0, 1e-9], [1.0, 0.5, 0.3, 0.2],
             {"phi_rx_deg": [0.0, 0.0, 90.0, 0.0]})
    with pytest.raises(ValueError, match="nonnegative"):
        _pdp([0.0, 1e-9], [1.0, -1.0])
    # an unsorted pointing is read in delay order
    assert _pdp([2e-9, 0.0, 1e-9], [0.1, 1.0, 0.5]) == _pdp(
        [0.0, 1e-9, 2e-9], [1.0, 0.5, 0.1])
    for delay_s, power, dirs in (([], [], None), ([0.0, 1e-9], [1.0], None),
                                 ([[0.0, 1e-9]], [[1.0, 0.5]], None),
                                 ([0.0, 1e-9], [1.0, 0.5],
                                  {"phi_rx_deg": [0.0]})):
        with pytest.raises(ValueError, match="matching non-empty 1-D"):
            _pdp(delay_s, power, dirs)


def test_synth_omni_takes_per_bin_max():
    d = [0.0, 1e-9, 2e-9]
    rep = _pdp(d * 2, [1.0, 0.2, 0.0, 0.3, 0.5, 0.1],
               {"phi_rx_deg": [0.0] * 3 + [90.0] * 3})
    assert rep["n_directions"] == 2
    assert {k: rep[k] for k in ("ds_ns", "k_db", "pl_db")} == _omni_report(
        d, [1.0, 0.5, 0.1])
    # ASA weighs each pointing azimuth by the pointing's total power
    assert rep["asa_deg"] == round(asa([0.0, 90.0], [1.2, 0.9]), 6)


def test_synth_omni_requires_shared_grid():
    dirs = {"phi_rx_deg": [0.0, 0.0, 90.0, 90.0]}
    with pytest.raises(ValueError, match="share one delay grid"):
        _pdp([0.0, 1e-9, 0.0, 2e-9], [1.0, 0.5, 1.0, 0.5], dirs)
    # a grid that differs by its bin count
    with pytest.raises(ValueError, match="share one delay grid"):
        _pdp([0.0, 1e-9, 2e-9, 0.0], [1.0, 0.5, 0.2, 1.0], dirs)
    # grids that agree to rtol 1e-9 are one grid
    _pdp([0.0, 1e-9, 0.0, 1e-9 * (1 + 1e-12)], [1.0, 0.5, 1.0, 0.5], dirs)


def test_threshold_cuts_noise():
    d = [0.0, 1e-9, 2e-9]
    rep = _pdp(d, [1.0, 1e-4, 1e-7], noise_floor=1e-6, margin_db=6.0)
    # floor * 4 (6 dB) removes the 1e-7 bin only
    assert {k: rep[k] for k in ("ds_ns", "k_db", "pl_db")} == _omni_report(
        d, [1.0, 1e-4, 0.0])
    with pytest.raises(ValueError, match="noise_floor must be nonnegative"):
        _pdp(d, [1.0, 1e-4, 1e-7], noise_floor=-1.0)
    with pytest.raises(ValueError, match="margin_db must be positive"):
        _pdp(d, [1.0, 1e-4, 1e-7], noise_floor=1e-6, margin_db=0.0)


def test_threshold_raises_when_everything_cut():
    with pytest.raises(ThresholdError, match=r"noise floor 1 with a 6 dB "
                       r"margin cuts at 3\.98107, above every bin"):
        _pdp([0.0, 1e-9], [1e-9, 1e-9], noise_floor=1.0, margin_db=6.0)


# --- distribution fits ---

def test_fit_lognormal_two_points():
    mu, sigma = fit_lognormal([1e-9, 1e-7])
    assert mu == pytest.approx(-8.0)
    assert sigma == pytest.approx(1.0)


def test_fit_normal_population_std():
    mu, sigma = fit_normal([1.0, 3.0])
    assert mu == pytest.approx(2.0)
    assert sigma == pytest.approx(1.0)


def test_fit_rejects_nonpositive_for_lognormal():
    with pytest.raises(ValueError):
        fit_lognormal([1e-9, 0.0])


# --- cross-correlation ---

def test_cross_corr_perfect_pair():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    names, c = cross_corr({"a": x, "b": 2 * x, "c": -x})
    ia, ib, ic = names.index("a"), names.index("b"), names.index("c")
    assert c[ia, ib] == pytest.approx(1.0)
    assert c[ia, ic] == pytest.approx(-1.0)


def test_cross_corr_zero_variance_named():
    with pytest.raises(ValueError) as exc:
        cross_corr({"a": np.array([1.0, 2.0]), "flat": np.array([3.0, 3.0])})
    assert "flat" in str(exc.value)


def test_lsp_cross_corr_uses_log_domains():
    rng = np.random.default_rng(0)
    z = rng.normal(size=500)
    ds = 10.0 ** (-8.0 + 0.2 * z)
    asa_deg = 10.0 ** (1.0 + 0.1 * z)
    sf = rng.normal(size=500)
    names, c = lsp_cross_corr(ds, asa_deg, sf)
    i, j = names.index("ds"), names.index("asa")
    assert c[i, j] == pytest.approx(1.0, abs=1e-9)


# --- clustering ---

def _planted_mpcs(rng, centers, spread_scale=1.0, n_per=30):
    """((delay_s, power, aoa_deg, zoa_deg), true labels) of clusters
    planted around (delay, aoa, zoa) centers."""
    delay, aoa, zoa, power, label = [], [], [], [], []
    for i, (t0, a0, z0) in enumerate(centers):
        delay.append(t0 + rng.normal(0, 1e-9 * spread_scale, n_per))
        aoa.append(a0 + rng.normal(0, 2.0 * spread_scale, n_per))
        zoa.append(z0 + rng.normal(0, 1.0 * spread_scale, n_per))
        power.append(rng.uniform(0.1, 1.0, n_per))
        label.append(np.full(n_per, i))
    return (tuple(map(np.concatenate, (delay, power, aoa, zoa))),
            np.concatenate(label))


def _embed(x):
    # rows of (delay_s, aoa_deg, zoa_deg)
    return mcd_embedding(x[:, 0], x[:, 1], x[:, 2])


def _label_match(found, truth):
    # exact recovery up to label permutation
    mapping = {}
    for f, t in zip(found, truth):
        if f in mapping and mapping[f] != t:
            return False
        mapping[f] = t
    return len(set(mapping.values())) == len(mapping)


def test_kpower_means_recovers_planted_clusters():
    centers = [(0.0, -60.0, 85.0), (50e-9, 20.0, 95.0), (120e-9, 110.0, 100.0)]
    rng = np.random.default_rng(42)
    (t, p, a, z), truth = _planted_mpcs(rng, centers, spread_scale=0.1)
    labels = kpower_means(t, p, a, z, 3, random_state=7)
    assert _label_match(labels, truth)

    km = KPowerMeans(n_clusters=3, random_state=7).fit(mcd_embedding(t, a, z), p)
    assert np.all(np.diff(km.objective_path_) <= 1e-12)


def test_kpower_means_estimator_api():
    rng = np.random.default_rng(5)
    x = np.column_stack([rng.uniform(0, 1e-7, 40),
                         rng.uniform(-180, 180, 40),
                         rng.uniform(60, 120, 40)])
    km = KPowerMeans(n_clusters=3, random_state=1).fit(_embed(x),
                                                       sample_weight=np.ones(40))
    assert km.labels_.shape == (40,)
    assert km.n_iter_ >= 1
    assert np.isfinite(km.inertia_)


def test_kpower_means_duplicate_points_co_assigned():
    x = np.array([[0.0, 10.0, 90.0]] * 5 + [[80e-9, -120.0, 100.0]] * 5)
    km = KPowerMeans(n_clusters=2, random_state=0).fit(_embed(x), np.ones(10))
    assert len(set(km.labels_[:5])) == 1
    assert len(set(km.labels_[5:])) == 1
    assert km.labels_[0] != km.labels_[-1]


def test_kpower_means_weightless_cluster_center_is_plain_mean():
    # the zero-weight point ends up alone in its cluster
    x = np.array([[5e-8, -100.0, 80.0], [1e-8, 10.0, 90.0], [1e-8, 10.0, 90.0]])
    km = KPowerMeans(n_clusters=2, random_state=0).fit(_embed(x), [0.0, 1.0, 1.0])
    assert km.labels_[0] != km.labels_[1] == km.labels_[2]


def test_kpower_means_rejects_more_clusters_than_powered_points():
    x = np.column_stack([np.arange(5) * 1e-9, np.arange(5) * 30.0,
                         np.full(5, 90.0)])
    with pytest.raises(ValueError, match="positive weight"):
        KPowerMeans(n_clusters=3).fit(_embed(x), np.array([1.0, 0, 0, 2.0, 0]))


def test_kpower_means_rejects_non_finite_embedding():
    e = _embed(np.column_stack([np.arange(4) * 1e-9, np.arange(4) * 30.0,
                                np.full(4, 90.0)]))
    e[2, 1] = np.nan
    with pytest.raises(ValueError, match="E must be finite"):
        KPowerMeans(n_clusters=2).fit(e, np.ones(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kpower_means_rejects_non_finite_weight(bad):
    e = _embed(np.column_stack([np.arange(4) * 1e-9, np.arange(4) * 30.0,
                                np.full(4, 90.0)]))
    with pytest.raises(ValueError, match="sample_weight must be finite"):
        KPowerMeans(n_clusters=2).fit(e, [1.0, bad, 1.0, 1.0])


def test_seed_indices_draw_distinct_points_by_weight():
    # 500 random states x N_INIT rows: each row's first pick is a draw
    # from w / w.sum(), checked within 4.5 binomial standard deviations
    w = np.array([0.0, 1.0, 2.0, 0.0, 3.0, 4.0])
    rows = np.vstack([analysis._seed_indices(w, 4, s) for s in range(500)])
    assert np.all(w[rows] > 0)
    assert np.all(np.sort(rows, axis=1)[:, 1:] != np.sort(rows, axis=1)[:, :-1])
    p = w / w.sum()
    freq = np.bincount(rows[:, 0], minlength=w.size) / len(rows)
    assert np.all(np.abs(freq - p) <= 4.5 * np.sqrt(p * (1 - p) / len(rows)))


def test_seed_indices_nest_across_k():
    w = np.random.default_rng(4).uniform(0.1, 1.0, 12)
    for k in range(1, 12):
        assert np.array_equal(analysis._seed_indices(w, k, 7),
                              analysis._seed_indices(w, k + 1, 7)[:, :k])


def test_seed_indices_draw_a_subnormal_weight_before_a_zero_one():
    # a key x / w would overflow to inf for the subnormal weight and tie
    # it with the zero weight
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = analysis._seed_indices(np.array([0.0, 1e-310, 1.0, 1.0]), 3, 0)
    assert np.array_equal(np.sort(rows, axis=1), np.tile([1, 2, 3], (N_INIT, 1)))


def _reference_restarts(e, w, k, random_state=0):
    """The scalar Lloyd loop over embedded points e, one restart after
    another, that the lockstep fit batches, from the fit's own initial
    centers. Returns ([(labels, path, n_iter)] per restart, index of the
    first restart with the lowest objective, re-seeded clusters)."""
    n = e.shape[0]
    runs, reseeds = [], 0
    for init in analysis._seed_indices(w, k, random_state):
        centers = e[init]
        labels = np.full(n, -1)
        path = []
        for it in range(1, MAX_ITER + 1):
            d2 = ((e[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = d2.argmin(axis=1)
            path.append(float((w * d2[np.arange(n), new_labels]).sum()))
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for c in range(k):
                m = labels == c
                wc = w[m].sum()
                if wc > 0:
                    centers[c] = (w[m, None] * e[m]).sum(axis=0) / wc
                else:
                    reseeds += 1
                    far = (w * d2[np.arange(n), labels]).argmax()
                    centers[c] = e[far]
        runs.append((new_labels, path, it))
    best = 0
    for r, (_, path, _) in enumerate(runs):
        if path[-1] < runs[best][1][-1]:
            best = r
    return runs, best, reseeds


def _path_tolerance(path):
    # The batch sums cluster members in another order and expands the
    # squared distances. An objective that is 0 in exact arithmetic is
    # then roundoff of either sum, so the tolerance also has an absolute
    # part scaled by the first objective.
    return {"rtol": 1e-12, "atol": 1e-12 * path[0]}


def _assert_matches_reference(e, w, k):
    runs, best, reseeds = _reference_restarts(e, w, k)
    km = KPowerMeans(n_clusters=k).fit(e, w)
    labels, path, n_iter = runs[best]
    assert np.array_equal(km.labels_, labels)
    assert km.n_iter_ == n_iter
    tol = _path_tolerance(path)
    assert_allclose(km.objective_path_, path, **tol)
    assert_allclose(km.inertia_, path[-1], **tol)
    # the winner is the first restart that ends where the fit ended
    won = [r for r, (lab, p, _) in enumerate(runs)
           if np.array_equal(lab, km.labels_) and len(p) == km.n_iter_
           and np.allclose(p, km.objective_path_, **tol)]
    assert won[0] == best
    return reseeds


def test_lockstep_fit_matches_scalar_restarts_on_planted_clusters():
    centers = [(0.0, -60.0, 85.0), (50e-9, 20.0, 95.0), (120e-9, 110.0, 100.0)]
    (t, p, a, z), _ = _planted_mpcs(np.random.default_rng(3), centers,
                                    spread_scale=0.8)
    for k in (2, 3, 5):
        _assert_matches_reference(mcd_embedding(t, a, z), p, k)


def _reseeded_stacks():
    """(embedding, weights) of stacks of duplicates: a restart seeded twice
    inside one stack gets an empty cluster on its first assignment. The
    scattered points keep the objective away from 0, where roundoff alone
    would pick the labels."""
    stacks = np.repeat([[0.0, 10.0, 90.0], [80e-9, -120.0, 100.0],
                        [40e-9, 60.0, 80.0]], 5, axis=0)
    scatter = np.array([[5e-9, 30.0, 85.0], [70e-9, -90.0, 95.0],
                        [30e-9, 80.0, 70.0], [60e-9, 150.0, 110.0]])
    x = np.vstack([stacks, scatter])
    return _embed(x), np.linspace(0.5, 2.0, len(x))


def _clipped_embedding():
    """(embedding, weights) of two tight stacks 2,000 apart. Taken from
    the mean, each point's squared norm is about 1e6, so the expanded
    squared distance |c|^2 + |x|^2 - 2 c.x to its own stack's center, a
    few 1e-18 in exact arithmetic, rounds to about +-1e-10: below 0 for
    some points whatever order the products are summed in."""
    rng = np.random.default_rng(0)
    x = np.repeat([[-1e3, 0.0, 0.0], [1e3, 0.0, 0.0]], 6, axis=0)
    return x + rng.normal(scale=1e-9, size=x.shape), rng.uniform(0.5, 2.0, 12)


def _generated_drop(scenario, condition, source, seed):
    """(embedding, powers) of one generated drop's components."""
    cols = {k: v for k, (v,) in build_drop(load_params(scenario, condition, source),
                                           np.random.default_rng(seed)).columns().items()}
    return (mcd_embedding(cols["delay_s"], cols["aoa_deg"], cols["zoa_deg"]),
            cols["power"])


def test_lockstep_fit_matches_scalar_restarts_on_reseeded_clusters():
    for k in (3, 4):
        assert _assert_matches_reference(*_reseeded_stacks(), k) > 0


def test_lockstep_fit_matches_scalar_restarts_on_generated_drop():
    e, w = _generated_drop("umi", "nlos", "3gpp", 11)
    for k in range(2, 7):
        _assert_matches_reference(e, w, k)


def test_kpower_means_does_not_move_with_the_origin():
    # embedded points far from the origin, as large absolute delays put
    # them: the expanded distance must not lose their digits
    centers = [(0.0, -60.0, 85.0), (50e-9, 20.0, 95.0), (120e-9, 110.0, 100.0)]
    (t, p, a, z), _ = _planted_mpcs(np.random.default_rng(3), centers,
                                    spread_scale=0.8)
    e = mcd_embedding(t, a, z)
    for k in (2, 3, 5):
        near = KPowerMeans(n_clusters=k).fit(e, p)
        far = KPowerMeans(n_clusters=k).fit(e + [0.0, 0.0, 0.0, 1e7], p)
        assert np.array_equal(far.labels_, near.labels_)
        assert far.n_iter_ == near.n_iter_
        assert_allclose(far.objective_path_, near.objective_path_, rtol=1e-6)


@pytest.mark.parametrize("data", [
    lambda: _generated_drop("umi", "nlos", "3gpp", 11),
    lambda: _generated_drop("office", "los", "measured", 11),
    _reseeded_stacks], ids=["umi_nlos_3gpp", "office_los_measured", "stacks"])
def test_fit_over_counts_equals_one_count_fits(data):
    e, w = data()
    counts = list(range(2, min(6, np.count_nonzero(w) - 1) + 1))
    km = KPowerMeans(n_clusters=counts, random_state=3).fit(e, w)
    assert km.labels_.shape == (len(counts), len(w))
    assert km.inertia_.shape == (len(counts),)
    assert len(km.objective_path_) == len(counts)
    singles = [KPowerMeans(n_clusters=k, random_state=3).fit(e, w) for k in counts]
    for i, one in enumerate(singles):
        assert np.array_equal(km.labels_[i], one.labels_)
        tol = _path_tolerance(one.objective_path_)
        assert_allclose(km.objective_path_[i], one.objective_path_, **tol)
        assert_allclose(km.inertia_[i], one.inertia_, **tol)
    assert km.n_iter_ == sum(one.n_iter_ for one in singles)
    assert type(km.n_iter_) is int


def _reference_lockstep_fit(e, w, n_clusters, random_state=0):
    """KPowerMeans.fit's lockstep Lloyd loop in its plainest form: every
    iteration gathers and scatters the active rows, clips every distance
    block at 0, builds the one-hot weights as a boolean product and looks
    for emptied clusters. Returns
    the fit's (labels, inertia, objective path(s), n_iter) and how often
    each branch ran: "clip", iterations in which some expanded distance
    rounded below 0; "reseed", emptied clusters re-seeded; "leave",
    iterations in which some restarts converged while others moved on;
    and "cut", restarts still moving at ``analysis.MAX_ITER``."""
    E, w = np.asarray(e, dtype=float), np.asarray(w, dtype=float)
    n, dim = E.shape
    ks = np.array(n_clusters, ndmin=1)
    k = int(ks.max())
    branches = dict.fromkeys(("clip", "reseed", "leave", "cut"), 0)
    rows = ks.size * N_INIT
    cluster = np.arange(k, dtype=np.min_scalar_type(k))[:, None]
    rank = k - cluster
    padded = cluster[:, 0] >= np.repeat(ks, N_INIT)[:, None]
    pad_inf = np.where(padded, np.inf, 0.0)
    E = E - (w @ E) / w.sum()
    A = np.ones((rows, k, dim + 2))
    A[:, :, :dim] = np.tile(E[analysis._seed_indices(w, k, random_state)],
                            (ks.size, 1, 1))
    A[padded, :dim] = 0.0
    A[:, :, dim] = (A[:, :, :dim] ** 2).sum(axis=2) + pad_inf
    X = np.vstack([-2.0 * E.T, np.ones(n), (E * E).sum(axis=1)])
    EW = np.column_stack([E, np.ones(n)])
    labels = np.full((rows, n), k, dtype=cluster.dtype)
    objective = np.empty((analysis.MAX_ITER, rows))
    n_iter = np.zeros(rows, dtype=int)
    active = np.arange(rows)
    buf = np.empty((rows, k, n))
    for it in range(1, analysis.MAX_ITER + 1):
        d2 = buf[:active.size]
        np.matmul(A[active], X, out=d2)
        branches["clip"] += bool((d2 < 0).any())
        np.maximum(d2, 0.0, out=d2)
        mn = d2.min(axis=1)
        new = k - ((d2 == mn[:, None]) * rank).max(axis=1)
        wd = np.multiply(w, mn, out=mn)
        objective[it - 1, active] = wd.sum(axis=1)
        moving = (new != labels[active]).any(axis=1)
        labels[active] = new
        n_iter[active] = it
        branches["leave"] += bool(moving.any() and not moving.all())
        active, new, wd = active[moving], new[moving], wd[moving]
        if not active.size:
            break
        onehot = buf[:active.size]
        np.multiply(new[:, None, :] == cluster, w, out=onehot)
        S = onehot @ EW
        wc = S[:, :, -1:]
        centers = np.divide(S[:, :, :-1], wc, where=wc > 0,
                            out=np.zeros_like(S[:, :, :-1]))
        for a, c in zip(*np.nonzero((wc[:, :, 0] <= 0) & ~padded[active])):
            branches["reseed"] += 1
            centers[a, c] = E[wd[a].argmax()]
        A[active, :, :dim] = centers
        A[active, :, dim] = (centers**2).sum(axis=2) + pad_inf[active]
    branches["cut"] = active.size
    final = objective[n_iter - 1, np.arange(rows)].reshape(ks.size, N_INIT)
    best = final.argmin(axis=1) + N_INIT * np.arange(ks.size)
    paths = [objective[:n_iter[b], b].copy() for b in best]
    if np.ndim(n_clusters):
        fit = (labels[best].astype(int), final.min(axis=1), paths,
               int(n_iter[best].sum()))
    else:
        fit = (labels[best[0]].astype(int), float(final.min()), paths[0],
               int(n_iter[best[0]]))
    return fit, branches


def _assert_fit_equals_reference(e, w, n_clusters, random_state=0):
    """KPowerMeans gives the reference loop's results bit for bit;
    returns the branches the reference took."""
    (labels, inertia, paths, n_iter), branches = _reference_lockstep_fit(
        e, w, n_clusters, random_state)
    km = KPowerMeans(n_clusters=n_clusters, random_state=random_state).fit(e, w)
    assert np.array_equal(km.labels_, labels)
    assert type(km.inertia_) is type(inertia)
    assert np.array_equal(km.inertia_, inertia)
    assert km.n_iter_ == n_iter and type(km.n_iter_) is int
    if np.ndim(n_clusters):
        assert len(km.objective_path_) == len(paths)
        assert all(map(np.array_equal, km.objective_path_, paths))
    else:
        assert np.array_equal(km.objective_path_, paths)
    return branches


_SETS = [(sc, co, so) for sc in SCENARIOS for co in CONDITIONS for so in SOURCES]


@pytest.mark.parametrize("selection", _SETS, ids="_".join)
def test_fit_equals_the_reference_loop_on_generated_drops(selection):
    taken = dict.fromkeys(("clip", "reseed", "leave", "cut"), 0)
    for seed in (11, 12):
        e, w = _generated_drop(*selection, seed)
        counts = list(range(2, min(6, np.count_nonzero(w) - 1) + 1))
        for n_clusters in (counts, *counts):
            for b, times in _assert_fit_equals_reference(e, w, n_clusters).items():
                taken[b] += times
    # restarts converge at different iterations and leave the batch
    assert taken["leave"] > 0


def test_fit_equals_the_reference_loop_where_a_cluster_is_reseeded():
    e, w = _reseeded_stacks()
    for n_clusters in (3, 4, [2, 3, 4]):
        assert _assert_fit_equals_reference(e, w, n_clusters)["reseed"] > 0


def test_fit_equals_the_reference_loop_where_restarts_reach_the_cap(monkeypatch):
    monkeypatch.setattr(analysis, "MAX_ITER", 2)
    e, w = _generated_drop("umi", "nlos", "3gpp", 11)
    for n_clusters in (4, [2, 3, 4]):
        assert _assert_fit_equals_reference(e, w, n_clusters)["cut"] > 0


def test_fit_equals_the_reference_loop_where_a_distance_rounds_below_0():
    e, w = _clipped_embedding()
    for n_clusters in (2, 3, [2, 3]):
        assert _assert_fit_equals_reference(e, w, n_clusters)["clip"] > 0


@st.composite
def weighted_points(draw):
    n = draw(st.integers(min_value=2, max_value=20))
    coord = st.tuples(st.floats(0.0, 1e-7), st.floats(-180.0, 180.0),
                      st.floats(0.0, 180.0))
    x = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    w = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                               min_size=n, max_size=n)))
    powered = int(np.count_nonzero(w))
    assume(powered > 0)
    k = draw(st.integers(min_value=1, max_value=min(powered, 5)))
    return x, w, k, draw(st.integers(0, 2**16))


@given(weighted_points())
@settings(max_examples=40, deadline=None)
def test_kpower_means_properties(case):
    x, w, k, seed = case
    e = _embed(x)
    km = KPowerMeans(n_clusters=k, random_state=seed).fit(e, w)
    path = km.objective_path_
    # nonincreasing up to the roundoff of squared embedded coordinates
    assert np.all(np.diff(path) <= 1e-12 * w.sum() * (e**2).sum(axis=1).max())
    assert km.labels_.min() >= 0 and km.labels_.max() < k
    again = KPowerMeans(n_clusters=k, random_state=seed).fit(e, w)
    assert np.array_equal(again.labels_, km.labels_)
    assert np.array_equal(again.objective_path_, path)
    assert again.n_iter_ == km.n_iter_


@given(weighted_points(), st.data())
@settings(max_examples=30, deadline=None)
def test_kpower_means_labels_stay_below_each_count(case, data):
    # padded centers never take a component, whatever counts share a batch
    x, w, _, seed = case
    powered = int(np.count_nonzero(w))
    counts = data.draw(st.lists(st.integers(1, powered), min_size=1,
                                max_size=5))
    km = KPowerMeans(n_clusters=counts, random_state=seed).fit(_embed(x), w)
    assert km.labels_.shape == (len(counts), len(w))
    assert np.all(km.labels_ >= 0)
    assert np.all(km.labels_ < np.array(counts)[:, None])
    assert np.isfinite(km.inertia_).all()


def test_kpower_means_rejects_an_empty_count_sequence():
    e = _embed(np.column_stack([np.arange(4) * 1e-9, np.arange(4) * 30.0,
                                np.full(4, 90.0)]))
    with pytest.raises(ValueError, match="non-empty sequence of ints"):
        KPowerMeans(n_clusters=[]).fit(e, np.ones(4))


def test_select_n_clusters_finds_planted_count():
    centers = [(0.0, -90.0, 85.0), (60e-9, 0.0, 95.0), (150e-9, 120.0, 100.0)]
    rng = np.random.default_rng(9)
    mpcs, _ = _planted_mpcs(rng, centers, spread_scale=0.15)
    best, scores, _ = select_n_clusters(*mpcs, k_max=6)
    assert best == 3
    assert set(scores) == {2, 3, 4, 5, 6}


def test_select_n_clusters_embeds_once(monkeypatch):
    # the total dispersion and every per-k fit share one embedding
    centers = [(0.0, -90.0, 85.0), (60e-9, 0.0, 95.0), (150e-9, 120.0, 100.0)]
    mpcs, _ = _planted_mpcs(np.random.default_rng(9), centers)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return mcd_embedding(*args, **kwargs)
    monkeypatch.setattr(analysis, "mcd_embedding", counted)
    select_n_clusters(*mpcs, k_max=6)
    assert len(calls) == 1


def test_select_n_clusters_fits_once(monkeypatch):
    # every cluster count runs in one batched fit
    centers = [(0.0, -90.0, 85.0), (60e-9, 0.0, 95.0), (150e-9, 120.0, 100.0)]
    mpcs, _ = _planted_mpcs(np.random.default_rng(9), centers)
    fit, calls = KPowerMeans.fit, []

    def counted(self, *args, **kwargs):
        calls.append(self.n_clusters)
        return fit(self, *args, **kwargs)
    monkeypatch.setattr(KPowerMeans, "fit", counted)
    _, scores, _ = select_n_clusters(*mpcs, k_max=6)
    assert len(calls) == 1 and list(calls[0]) == sorted(scores)


@pytest.mark.parametrize(("n", "k_max"), [(2, 10), (3, 1)])
def test_select_n_clusters_without_a_k_to_score_names_the_cause(n, k_max):
    t = np.arange(n) * 1e-9
    with pytest.raises(ValueError, match=f"at least 3 components and k_max "
                       f"of at least 2, got {n} components and k_max={k_max}"):
        select_n_clusters(t, np.ones(n), np.arange(n) * 30.0,
                          np.full(n, 90.0), k_max=k_max)


def test_select_n_clusters_tries_k_below_the_powered_count():
    # 6 components, 3 with power: only k = 2 leaves a powered seed spare
    t = np.arange(6) * 10e-9
    p = np.array([1.0, 0.0, 0.5, 0.0, 0.8, 0.0])
    best, scores, labels = select_n_clusters(
        t, p, np.arange(6) * 60.0, np.full(6, 90.0), k_max=5)
    assert best == 2 and set(scores) == {2}
    assert labels.shape == (6,)


def test_select_n_clusters_counts_only_powered_components():
    t = np.arange(4) * 1e-9
    with pytest.raises(ValueError, match="got 2 components and k_max=5, "
                       "counting only components with power"):
        select_n_clusters(t, np.array([1.0, 0.0, 0.5, 0.0]),
                          np.arange(4) * 30.0, np.full(4, 90.0), k_max=5)


@pytest.mark.parametrize("seed", [9, 21])
def test_select_n_clusters_labels_match_refit(seed):
    centers = [(0.0, -90.0, 85.0), (60e-9, 0.0, 95.0), (150e-9, 120.0, 100.0)]
    mpcs, _ = _planted_mpcs(np.random.default_rng(seed), centers,
                            spread_scale=0.6)
    best, _, labels = select_n_clusters(*mpcs, k_max=6, delay_weight=4.0)
    refit = kpower_means(*mpcs, best, delay_weight=4.0)
    assert np.array_equal(labels, refit)


def test_mcd_embedding_shapes_and_delay_weight():
    d = np.array([0.0, 10e-9, 20e-9])
    a = np.array([0.0, 90.0, 180.0])
    z = np.array([90.0, 90.0, 90.0])
    e = mcd_embedding(d, a, z, delay_weight=8.0)
    assert e.shape == (3, 4)
    # angular part lives on a radius-1/2 sphere
    assert_allclose(np.linalg.norm(e[:, :3], axis=1), 0.5, atol=1e-12)
    e2 = mcd_embedding(d, a, z, delay_weight=16.0)
    assert_allclose(e2[:, 3], 2 * e[:, 3], atol=1e-18)


def test_mcd_embedding_delay_span_whose_square_underflows_counts_as_none():
    # the example hypothesis found for test_kpower_means_properties
    e = mcd_embedding([0.0, 1.07140429e-268], [0.0, 0.0], [0.0, 0.0])
    assert np.array_equal(e[:, 3], [0.0, 0.0])


def test_mcd_embedding_rejects_negative_delay_weight():
    with pytest.raises(ValueError, match="delay_weight must be a nonnegative"):
        mcd_embedding([0.0, 1e-9], [0.0, 10.0], [90.0, 90.0], delay_weight=-8.0)


def test_analyze_mpcs_clustering_without_zeniths_names_the_cause():
    t = np.array([0.0, 5e-9, 20e-9, 40e-9])
    with pytest.raises(ValueError, match="clustering needs arrival angles"):
        analyze_mpcs(np.zeros(4, dtype=int), t, np.ones(4),
                     np.array([0.0, 30.0, 90.0, 150.0]), None, None,
                     max_clusters=3, delay_weight=8.0)


def test_kpower_means_rejects_non_finite_angle():
    a = np.array([0.0, 30.0, np.nan, 150.0])
    with pytest.raises(ValueError, match="finite delays and arrival angles"):
        kpower_means(np.arange(4) * 1e-9, np.ones(4), a, np.full(4, 90.0), 2)


# --- per-cluster statistics ---

def test_cluster_stats_single_cluster_oracles():
    st_ = cluster_stats(np.array([0.0, 1e-9]), np.array([1.0, 1.0]),
                        np.array([0.0, 0.0]), np.array([0, 0]))
    assert st_["c_ds_ns"][0] == pytest.approx(0.5)
    assert st_["c_asa_deg"][0] == pytest.approx(0.0)

    st2 = cluster_stats(np.array([0.0, 1e-9, 2e-9]), np.array([10.0, 1.0, 1.0]),
                        np.array([0.0, 5.0, -5.0]), np.array([0, 0, 0]))
    assert st2["c_k_db"][0] == pytest.approx(10 * np.log10(5.0))

    # one label on every component: the cluster is the whole group, and
    # its statistics are the group's, from the one estimator
    t = np.array([0.0, 3e-9, 7e-9, 12e-9, 20e-9])
    p = np.array([5.0, 1.0, 0.5, 2.0, 0.25])
    a = np.array([-170.0, 175.0, 10.0, -30.0, 90.0])
    st3 = cluster_stats(t, p, a, np.full(5, 7))
    whole = extract_drop_stats(t, p, a)
    assert st3["cluster"].tolist() == [7] and st3["count"].tolist() == [5]
    assert st3["c_ds_ns"][0] == whole["ds_s"] * 1e9
    assert st3["c_asa_deg"][0] == whole["asa_deg"]
    assert st3["c_k_db"][0] == whole["k_db"]


def test_cluster_stats_rejects_labels_of_another_shape():
    with pytest.raises(ValueError, match="labels must match"):
        cluster_stats(np.array([0.0, 1e-9, 2e-9]), np.ones(3), None,
                      np.array([0, 1]))


def test_cluster_stats_without_azimuths_has_no_cluster_asa():
    st_ = cluster_stats([0, 5e-9, 9e-9], [1, .5, .2], None, [1, 1, 2])
    assert st_["c_asa_deg"] is None
    assert st_["count"].tolist() == [2, 1]
    assert list(st_) == ["cluster", "c_ds_ns", "c_asa_deg", "c_k_db", "count"]


def test_cluster_stats_medians_across_clusters():
    st_ = cluster_stats(np.array([0.0, 1e-9, 100e-9, 103e-9]),
                        np.array([1.0, 1.0, 1.0, 1.0]),
                        np.array([0.0, 0.0, 90.0, 90.0]),
                        np.array([0, 0, 1, 1]))
    assert st_["cluster"].tolist() == [0, 1]
    assert st_["count"].tolist() == [2, 2]
    assert_allclose(st_["c_ds_ns"], [0.5, 1.5])
    assert np.median(st_["c_ds_ns"]) == pytest.approx(np.median([0.5, 1.5]))


# --- roundtrip checks ---

def test_roundtrip_checks_log10_medians_and_skipped_k():
    # medians of log10: DS -8 drawn against -9 extracted, where linear
    # medians would give log10(5.05e-8) = -7.30; ASA 2 against 1.5. No
    # drop draws K, so K is not checked.
    drawn = {"ds_s": [1e-9, 1e-7], "asa_deg": [10.0, 1000.0],
             "k_db": [None, None]}
    extracted = {"ds_s": [1e-9, 1e-9], "asa_deg": [10.0, 100.0],
                 "k_db": [4.0, 8.0]}
    assert analysis.roundtrip_checks(drawn, extracted, 0.6, 3.0) == [
        {"statistic": "ds", "drawn_median": -8.0, "extracted_median": -9.0,
         "delta": -1.0, "tolerance": 0.6, "pass": False},
        {"statistic": "asa", "drawn_median": 2.0, "extracted_median": 1.5,
         "delta": -0.5, "tolerance": 0.6, "pass": True}]
    # K is compared in dB: medians 5 and 6
    k, = analysis.roundtrip_checks({**drawn, "k_db": [0.0, 10.0]}, extracted,
                                   0.6, 0.9)[2:]
    assert k == {"statistic": "k", "drawn_median": 5.0,
                 "extracted_median": 6.0, "delta": 1.0, "tolerance": 0.9,
                 "pass": False}
