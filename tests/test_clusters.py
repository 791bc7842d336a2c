import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from thzgbsm import clusters
from thzgbsm.analysis import asa, extract_drop_stats, k_factor, rms_ds
from thzgbsm.clusters import (
    apply_in_cluster_k, build_drop, composite_asa, composite_rms_ds,
    gen_delays, gen_powers, geometry_for, place_user, rescale_azimuth,
    rescale_delays, rescale_zenith)
from thzgbsm.constants import wrap_deg
from thzgbsm.lsp import draw_lsp_iid
from thzgbsm.params import load_params


# --- link geometry ---

def test_geometry_for_broadside():
    p = load_params("office", "los", "measured")  # bs 3.0 m, user 1.5 m
    g = geometry_for(p, 10.0, 0.0)
    assert g.d2_m == pytest.approx(10.0)
    assert g.d3_m == pytest.approx(np.hypot(10.0, 1.5))
    assert g.aod_los_deg == pytest.approx(0.0)
    assert g.aoa_los_deg == pytest.approx(-180.0)
    # downtilt at the base station, uptilt seen by the user
    assert g.zod_los_deg > 90.0
    assert g.zoa_los_deg < 90.0
    assert g.zod_los_deg == pytest.approx(180.0 - g.zoa_los_deg)


def test_geometry_quadrant():
    p = load_params("office", "los", "measured")
    g = geometry_for(p, 3.0, 3.0)
    assert g.aod_los_deg == pytest.approx(45.0)
    assert g.aoa_los_deg == pytest.approx(-135.0)


def test_place_user_respects_annulus():
    p = load_params("umi", "los", "measured")  # annulus 10..100 m
    rng = np.random.default_rng(0)
    r = []
    for _ in range(500):
        g = place_user(p, rng)
        r.append(g.d2_m)
    r = np.asarray(r)
    assert r.min() >= 10.0 and r.max() <= 100.0
    # area-uniform placement: r^2 is uniform on [r0^2, r1^2]
    u = (r**2 - 100.0) / (10000.0 - 100.0)
    assert abs(np.mean(u) - 0.5) < 0.04


# --- delays and powers ---

def test_gen_delays_sorted_and_zero_based():
    rng = np.random.default_rng(1)
    d = gen_delays(8, 20e-9, 3.0, rng)
    assert d[0] == 0.0
    assert np.all(np.diff(d) >= 0)
    assert d.shape == (8,)


def test_gen_powers_exponential_profile_no_shadowing():
    # two clusters 10 ns apart, r_tau=2, DS=10 ns: power ratio exp(-1/2)
    d = np.array([0.0, 10e-9])
    p, w = gen_powers(d, 10e-9, 2.0, 0.0, np.random.default_rng(0))
    assert w == 0.0
    assert p.sum() == pytest.approx(1.0)
    assert p[1] / p[0] == pytest.approx(np.exp(-0.5), rel=1e-12)


def test_gen_powers_los_weight():
    d = np.array([0.0, 5e-9, 9e-9])
    k_lin = 10.0 ** (6.0 / 10.0)
    p, w = gen_powers(d, 10e-9, 3.0, 0.0, np.random.default_rng(0),
                      k_linear=k_lin)
    assert w == pytest.approx(k_lin / (k_lin + 1.0))
    assert p.sum() == pytest.approx(1.0)


def test_in_cluster_k_fractions():
    fr = apply_in_cluster_k(4, 0.0)
    assert_allclose(fr, [0.25, 0.25, 0.25, 0.25])
    fr1 = apply_in_cluster_k(1, 25.0)
    assert_allclose(fr1, [1.0])
    kappa = 10.0 ** 1.349
    fr3 = apply_in_cluster_k(3, 13.49)
    assert fr3.shape == (3,)
    assert fr3[0] == pytest.approx(kappa / (kappa + 2.0))
    assert fr3[1] == pytest.approx(1.0 / (kappa + 2.0))
    assert fr3[2] == fr3[1]
    assert fr3.sum() == pytest.approx(1.0)


def test_build_drop_phases_shape_and_range():
    for label in (("office", "nlos", "3gpp"), ("umi", "los", "measured")):
        p = load_params(*label)
        for seed in range(3):
            ph = build_drop(p, np.random.default_rng(seed)).phases
            assert ph.shape == (p.clusters.count, p.clusters.rays)
            assert np.all((ph >= -np.pi) & (ph < np.pi))


# --- per-drop rescaling ---

def test_rescale_delays_hits_target_exactly():
    d = np.array([0.0, 7e-9, 30e-9])
    p = np.array([0.6, 0.3, 0.1])
    out = rescale_delays(d, p, 0.0, 25e-9)
    assert composite_rms_ds(out, p, 0.0) == pytest.approx(25e-9, rel=1e-12)
    # a direct tap at zero delay keeps the scaling exact
    out2 = rescale_delays(d, p, 0.7, 4e-9)
    assert composite_rms_ds(out2, p, 0.7) == pytest.approx(4e-9, rel=1e-12)


def test_composite_asa_includes_direct_ray():
    # ray powers carry the (1 - w) scattered share, as ClusterSet.ray_powers does
    ang = np.array([30.0, -30.0])
    scattered = np.array([0.5, 0.5])
    no_los = composite_asa(ang, scattered, 0.0, 0.0)
    w = 0.9
    with_los = composite_asa(ang, scattered * (1 - w), w, 0.0)
    assert with_los < no_los
    w = 1.0 - 1e-12
    assert composite_asa(ang, scattered * (1 - w), w, 0.0) == pytest.approx(
        0.0, abs=1e-3)


def test_rescale_azimuth_reachable_target():
    rng = np.random.default_rng(4)
    ang = rng.uniform(-40.0, 40.0, 12)
    pw = rng.uniform(0.2, 1.0, 12)
    out = rescale_azimuth(ang, pw, 0.0, 10.0, 25.0)
    assert composite_asa(out, pw, 0.0, 10.0) == pytest.approx(25.0, abs=1e-6)
    assert np.all(out >= -180.0) and np.all(out < 180.0)


def test_rescale_azimuth_shrinks_too():
    ang = np.array([-120.0, -60.0, 40.0, 170.0])
    pw = np.ones(4)
    out = rescale_azimuth(ang, pw, 0.0, 0.0, 5.0)
    assert composite_asa(out, pw, 0.0, 0.0) == pytest.approx(5.0, abs=1e-6)


def test_rescale_azimuth_unreachable_clamps_at_rician_limit():
    """With 95% of power in the direct ray the spread cannot exceed
    sqrt(1 - (2w-1)^2) radians, reached with all scatter antipodal."""
    w = 0.95
    cap = np.degrees(np.sqrt(1.0 - (2 * w - 1.0) ** 2))
    ang = np.array([5.0, -3.0, 12.0])
    pw = np.array([0.4, 0.4, 0.2]) * (1 - w)
    out = rescale_azimuth(ang, pw, w, 0.0, 40.0)
    got = composite_asa(out, pw, w, 0.0)
    assert got == pytest.approx(cap, abs=0.05)


def test_rescale_azimuth_degenerate_input_unchanged():
    ang = np.array([20.0, 20.0])
    pw = np.array([1.0, 2.0])
    out = rescale_azimuth(ang, pw, 0.0, 20.0, 30.0)
    assert_allclose(out, ang)


@pytest.mark.parametrize("a,bearing", [(123.4, 5.0), (10.0, 5.0)])
def test_rescale_azimuth_keeps_rays_in_one_direction(a, bearing):
    """Three equal rays along one direction: the starting spread is
    rounding noise, which no scale can stretch, so the rays keep their
    common direction."""
    ang = np.full((1, 3), a)
    out = rescale_azimuth(ang, np.full((1, 3), 1 / 3), 0.0, bearing, 20.0)
    assert_allclose(out, ang, atol=1e-9)


def _scalar_spread(angles_deg, ray_powers, los_weight, bearing_deg):
    """One configuration's composite spread, as the scalar code took it."""
    a = np.asarray(angles_deg, dtype=float).ravel()
    p = np.asarray(ray_powers, dtype=float).ravel()
    if los_weight > 0:
        a = np.concatenate([[bearing_deg], a])
        p = np.concatenate([[los_weight], p])
    phi = np.deg2rad(a)
    r = min(np.abs((p * np.exp(1j * phi)).sum()) / p.sum(), 1.0)
    return float(np.rad2deg(np.sqrt(max(1.0 - r * r, 0.0))))


def _reference_rescale_azimuth(angles_deg, ray_powers, los_weight,
                               bearing_deg, target_asa_deg):
    """The search rescale_azimuth follows: a 96-point grid scan and 60-step
    bisections, one spread evaluation at a time. Returns the angles, the
    exit taken and, on the solved exits, the bracket of the solved
    parameter and the map from that parameter to the angles."""
    ang = np.asarray(angles_deg, dtype=float)
    dev = wrap_deg(ang - bearing_deg)

    def from_dev(d):
        return wrap_deg(bearing_deg + d)

    def spread_of(d):
        return _scalar_spread(from_dev(d), ray_powers, los_weight, bearing_deg)

    def solved(f, at, lo, hi, took):
        a, b = lo, hi
        for _ in range(60):
            mid = 0.5 * (a + b)
            if f(mid) < target_asa_deg:
                a = mid
            else:
                b = mid
        return at(0.5 * (a + b)), took, (lo, hi), at

    if spread_of(dev) < clusters._SPREAD_FLOOR_DEG:
        return from_dev(dev), "zero", None, None
    scale_spread = lambda s: spread_of(s * dev)
    scaled = lambda s: from_dev(s * dev)
    if scale_spread(1.0) >= target_asa_deg:
        return solved(scale_spread, scaled, 0.0, 1.0, "shrink")
    # every ray at the antipode; with the direct path holding at least half
    # the power no configuration spreads more
    antipode = np.full(ang.shape, wrap_deg(bearing_deg + 180.0))
    s_anti = _scalar_spread(antipode, ray_powers, los_weight, bearing_deg)
    if los_weight >= np.sum(ray_powers) and s_anti < target_asa_deg:
        return antipode, "antipode", None, None
    grid = np.geomspace(1.0, 256.0, 96)
    vals = np.array([scale_spread(s) for s in grid])
    hit = np.nonzero(vals >= target_asa_deg)[0]
    if hit.size:
        i = hit[0]
        return solved(scale_spread, scaled, grid[i - 1], grid[i], "grow")
    base = wrap_deg(grid[int(np.argmax(vals))] * dev)
    anti = 180.0 * np.where(base >= 0.0, 1.0, -1.0)
    sweep_spread = lambda u: spread_of((1.0 - u) * base + u * anti)
    if s_anti >= target_asa_deg:
        return solved(sweep_spread,
                      lambda u: from_dev((1.0 - u) * base + u * anti),
                      0.0, 1.0, "sweep")
    if s_anti >= vals.max():
        return antipode, "antipode", None, None
    return from_dev(base), "base", None, None


# (angles, ray powers, direct share, bearing, target, exit the search takes)
_RESCALE_CASES = {
    "zero spread": ([20.0, 20.0], [1.0, 2.0], 0.0, 20.0, 30.0, "zero"),
    "shrink": ([-120.0, -60.0, 40.0, 170.0], [1.0] * 4, 0.0, 0.0, 5.0, "shrink"),
    "grow": ([3.0, -2.0, 7.0, -5.0], [0.4, 0.3, 0.2, 0.1], 0.0, -170.0, 30.0,
             "grow"),
    "sweep reaches target": ([5.0, -3.0, 12.0], [0.12, 0.12, 0.06], 0.7, 0.0,
                             50.0, "sweep"),
    "clamp to antipode": ([5.0, -3.0, 12.0], [0.02, 0.02, 0.01], 0.95, 0.0,
                          40.0, "antipode"),
    "clamp to base": ([5.0, -3.0, 12.0, 40.0], [0.3, 0.3, 0.2, 0.1], 0.1,
                      30.0, 80.0, "base"),
    "nlos w = 0 unreachable": ([10.0, -4.0, 25.0], [0.5, 0.3, 0.2], 0.0, 90.0,
                               70.0, "base"),
    # no scale above 1 spreads two opposite rays more: the grid's best is 1
    "clamp to unscaled base": ([90.0, -90.0], [0.5, 0.5], 0.0, 0.0, 60.0, "base"),
    "single ray": ([12.0], [0.4], 0.6, 0.0, 35.0, "grow"),
    "single ray, no direct path": ([12.0], [1.0], 0.0, 0.0, 35.0, "zero"),
    # one direction, spread about 1e-6 degrees of rounding noise
    "rays in one direction": ([123.4] * 3, [1 / 3] * 3, 0.0, 5.0, 20.0, "zero"),
    # three crossings inside the grow bracket (160.5, 170.1): upward at
    # scales 167.28 and 168.82, downward at 167.84; bisection reaches the
    # first, the solver the last, and both meet the target
    "grow bracket with several crossings": ([-9.0, -10.0, 171.0],
                                            [0.49, 0.49, 0.01], 0.0, -27.0,
                                            57.0, "grow"),
}


@pytest.fixture
def solves(monkeypatch):
    """(bracket start, bracket end, result, evaluations of f) of every
    clusters._solve call."""
    seen, solve = [], clusters._solve

    def spy(f, lo, hi, *args):
        n = [0]

        def counted(x):
            n[0] += 1
            return f(x)
        seen.append((lo, hi, solve(counted, lo, hi, *args), n[0]))
        return seen[-1][2]
    monkeypatch.setattr(clusters, "_solve", spy)
    return seen


def _check_against_reference(ang, pw, w, bearing, target, solves):
    """rescale_azimuth takes the reference search's exit, with the same
    angles on the zero, antipode and base exits. On the solved exits it
    solves once, on the reference's bracket, and its angles meet the
    target to _SPREAD_RTOL. Returns rescale_azimuth's angles and the exit."""
    want, took, bracket, at = _reference_rescale_azimuth(ang, pw, w, bearing,
                                                         target)
    solves.clear()
    got = rescale_azimuth(ang, pw, w, bearing, target)
    if bracket is None:
        assert not solves and np.array_equal(got, want)
        return got, took
    (lo, hi, x, _), = solves
    assert (lo, hi) == bracket and lo <= x <= hi
    assert np.array_equal(got, at(x))
    spread = composite_asa(got, pw, w, bearing)
    assert abs(spread - target) <= clusters._SPREAD_RTOL * target
    return got, took


@pytest.mark.parametrize("case", list(_RESCALE_CASES))
def test_rescale_azimuth_equals_scalar_search(case, solves):
    ang, pw, w, bearing, target, exit_ = _RESCALE_CASES[case]
    _, took = _check_against_reference(np.array(ang), np.array(pw), w,
                                       bearing, target, solves)
    assert took == exit_


_SETS = [(s, c, src) for s in ("office", "umi") for c in ("los", "nlos")
         for src in ("measured", "3gpp")]


def _drops(params, n=25):
    for s in np.random.SeedSequence(2024).spawn(n):
        build_drop(params, np.random.default_rng(s))


@pytest.mark.parametrize("scenario,condition,source", _SETS)
def test_build_drop_azimuths_equal_scalar_search(scenario, condition, source,
                                                 solves, monkeypatch):
    p = load_params(scenario, condition, source)
    exits = []

    def checked(*args):
        got, took = _check_against_reference(*args, solves)
        exits.append(took)
        return got
    monkeypatch.setattr(clusters, "rescale_azimuth", checked)
    _drops(p)
    assert len(exits) == 50


def test_solve_evaluation_budget(solves):
    """Bisecting to _SPREAD_RTOL takes about 28 spread evaluations per
    solve; the bracketed solve needs at most 8 on average."""
    for label in _SETS:
        _drops(load_params(*label))
    evals = [n for *_, n in solves]
    assert len(evals) > 100
    assert np.mean(evals) <= 8.0


def _met_tol(target, n):
    """What test_rescale_azimuth_spread_property accepts as meeting a
    target with n rays: _SPREAD_RTOL plus the rounding of sqrt(1 - R^2)."""
    eps_deg2 = sys.float_info.epsilon * math.degrees(1.0) ** 2
    return clusters._SPREAD_RTOL * target + 4 * (n + 1) * eps_deg2 / target


def test_solve_evaluation_budget_for_tiny_targets(solves):
    """Below a fraction of a degree the rounding of sqrt(1 - R^2) exceeds
    _SPREAD_RTOL of the target; a solve stops within that rounding after
    a few evaluations, where reaching _SPREAD_RTOL took dozens."""
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 60))        # one ray alone has no spread
        w = float(rng.choice([0.0, rng.uniform(0.0, 0.9)]))
        ang = rng.uniform(-180.0, 180.0, n)
        pw = rng.uniform(0.01, 1.0, n)
        pw *= (1.0 - w) / pw.sum()
        bearing = rng.uniform(-180.0, 180.0)
        target = 10.0 ** rng.uniform(-6.0, -1.0)
        got = rescale_azimuth(ang, pw, w, bearing, target)
        assert (abs(composite_asa(got, pw, w, bearing) - target)
                <= _met_tol(target, n))
    evals = [k for *_, k in solves]
    assert len(evals) == 200
    assert np.mean(evals) <= 4.0 and max(evals) <= 6


@pytest.fixture
def spread_evals(monkeypatch):
    """Shapes of the deviations every _phasor_spread function is called on."""
    seen, make = [], clusters._phasor_spread

    def spy(ray_powers, los_weight):
        spread = make(ray_powers, los_weight)

        def counted(d):
            seen.append(np.shape(d))
            return spread(d)
        return counted
    monkeypatch.setattr(clusters, "_phasor_spread", spy)
    return seen


def _antipodal_cap_deg(pw, w):
    p = np.sum(pw)
    return np.degrees(np.sqrt(1.0 - ((w - p) / (w + p)) ** 2))


def test_rescale_azimuth_cap_exit_scans_no_scale(spread_evals, solves):
    ang, pw, w, bearing, target, _ = _RESCALE_CASES["clamp to antipode"]
    assert w >= 0.5 and target > _antipodal_cap_deg(pw, w)
    got = rescale_azimuth(np.array(ang), np.array(pw), w, bearing, target)
    assert not solves and all(len(s) == 1 for s in spread_evals)
    assert np.array_equal(got, np.full(3, wrap_deg(bearing + 180.0)))


@pytest.mark.parametrize("scenario,source", [(s, src) for s in ("office", "umi")
                                             for src in ("measured", "3gpp")])
def test_build_drop_cap_exits_scan_no_scale(scenario, source, spread_evals,
                                            solves, monkeypatch):
    """LoS drops whose drawn ASA exceeds what their K-factor admits take
    the antipode without a scale scan or a solve."""
    rescale, capped = clusters.rescale_azimuth, []

    def checked(ang, pw, w, bearing, target):
        spread_evals.clear()
        solves.clear()
        got = rescale(ang, pw, w, bearing, target)
        if w >= 0.5 and target > _antipodal_cap_deg(pw, w):
            capped.append(target)
            assert not solves and all(len(s) == 1 for s in spread_evals)
            assert np.array_equal(got, np.full(ang.shape,
                                               wrap_deg(bearing + 180.0)))
        return got
    monkeypatch.setattr(clusters, "rescale_azimuth", checked)
    _drops(load_params(scenario, "los", source))
    assert capped


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), data=st.data(),
       w=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
       bearing=st.floats(-720.0, 720.0),
       target=st.floats(0.0, 100.0, exclude_min=True, exclude_max=True))
def test_rescale_azimuth_spread_property(n, data, w, bearing, target):
    """Any rays, direct share and target: the angles come back finite,
    wrapped and shaped like the input, and meet every target the
    reference search meets. Meeting means within _SPREAD_RTOL, plus the
    rounding of sqrt(1 - R^2) near R = 1: (n + 1) terms of a few ulps in R
    move a spread of s radians by about 4 (n + 1) eps / s, which exceeds
    _SPREAD_RTOL * s below about half a degree."""
    ang = np.array(data.draw(st.lists(st.floats(-180.0, 180.0), min_size=n,
                                      max_size=n)))
    pw = np.array(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=n,
                                      max_size=n)))
    pw *= (1.0 - w) / pw.sum()
    got = rescale_azimuth(ang, pw, w, bearing, target)
    assert got.shape == ang.shape
    assert np.all(np.isfinite(got)) and np.all((got >= -180.0) & (got < 180.0))
    want, *_ = _reference_rescale_azimuth(ang, pw, w, bearing, target)
    tol = _met_tol(target, n)
    if abs(composite_asa(want, pw, w, bearing) - target) <= tol:
        assert abs(composite_asa(got, pw, w, bearing) - target) <= tol


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 301, 381,
                               1000])
def test_stacked_spreads_equal_one_dimensional_calls(n):
    """Each row of a stack, passed on its own, gives a float equal bit for
    bit to the scalar spread; asa sums 1-D inputs only."""
    rng = np.random.default_rng(n)
    ang = rng.uniform(-180.0, 180.0, (6, n))
    pw = rng.uniform(0.0, 1.0, n)
    for row in ang:
        got = asa(row, pw)
        assert isinstance(got, float)
        assert got == _scalar_spread(row, pw, 0.0, 0.0)


@pytest.mark.parametrize("w", [0.0, 0.35])
@pytest.mark.parametrize("n", [1, 2, 9, 300, 381])
def test_phasor_spread_equals_composite_asa_of_wrapped_angles(n, w):
    for seed in range(3):
        rng = np.random.default_rng([n, seed])
        bearing = rng.uniform(-180.0, 180.0)
        dev = wrap_deg(rng.normal(0.0, rng.uniform(5.0, 60.0), n))
        pw = (1.0 - w) * rng.dirichlet(np.ones(n))
        # scales up to 256 wrap the deviations past +-180; then the sweep
        # from a scaled base toward the antipode
        base = wrap_deg(clusters._SCALES[40] * dev)
        anti = 180.0 * np.where(base >= 0.0, 1.0, -1.0)
        rows = np.array([s * dev for s in (0.5, 1.0, *clusters._SCALES[5::10])]
                        + [(1.0 - u) * base + u * anti for u in (0.0, 0.3, 0.7, 1.0)])
        spread = clusters._phasor_spread(pw, w)
        stacked = spread(np.deg2rad(rows))
        assert stacked.shape == (len(rows),)
        for i, row in enumerate(rows):
            want = composite_asa(wrap_deg(bearing + row), pw, w, bearing)
            got = (stacked[i], spread(np.deg2rad(row)))
            if w == 0 and (n == 1 or i == len(rows) - 1):
                # every ray in one direction: the exact spread is 0, and
                # sqrt(1 - R^2) turns one ulp of R into 8.5e-7 degrees
                assert max(want, *got) < 1e-5
            else:
                assert max(abs(g - want) for g in got) <= 1e-9


def test_rescale_zenith_target_and_range():
    ang = np.array([85.0, 95.0, 100.0])
    pw = np.array([1.0, 1.0, 1.0])
    out = rescale_zenith(ang, pw, 0.0, 90.0, 3.0)
    from thzgbsm.analysis import rms_ds
    assert rms_ds(out, pw) == pytest.approx(3.0, abs=1e-9)
    assert np.all((out >= 0.0) & (out <= 180.0))


# --- whole drops ---

def test_build_drop_power_closure():
    p = load_params("office", "los", "measured")
    cs = build_drop(p, np.random.default_rng(0))
    total = cs.los_weight + cs.ray_powers.sum()
    assert total == pytest.approx(1.0, abs=1e-12)
    assert cs.powers.sum() == pytest.approx(1.0, abs=1e-12)
    assert cs.n_clusters == p.clusters.count
    assert cs.n_rays == p.clusters.rays


def test_build_drop_reproducible():
    p = load_params("umi", "nlos", "measured")
    a = build_drop(p, np.random.default_rng(11))
    b = build_drop(p, np.random.default_rng(11))
    assert_allclose(a.delays_s, b.delays_s)
    assert_allclose(a.aoa_deg, b.aoa_deg)
    assert_allclose(a.phases, b.phases)


def _drop_stats(cs):
    c = cs.mpc_arrays
    return extract_drop_stats(c["delay_s"], c["power"], c["aoa_deg"])


def test_build_drop_roundtrip_ds_k_exact():
    p = load_params("office", "los", "measured")
    for seed in range(5):
        cs = build_drop(p, np.random.default_rng(seed))
        ext = _drop_stats(cs)
        assert ext["ds_s"] == pytest.approx(cs.lsp["ds_s"], rel=1e-9)
        assert ext["k_db"] == pytest.approx(cs.lsp["k_db"], abs=1e-9)


def test_build_drop_roundtrip_asa_capped():
    p = load_params("umi", "los", "measured")
    for seed in range(5):
        cs = build_drop(p, np.random.default_rng(seed))
        ext = _drop_stats(cs)
        w = cs.los_weight
        cap = np.degrees(np.sqrt(max(1.0 - (2 * w - 1.0) ** 2, 0.0)))
        want = min(cs.lsp["asa_deg"], cap)
        assert ext["asa_deg"] == pytest.approx(want, rel=0.02)


def test_build_drop_nlos_has_no_direct():
    p = load_params("office", "nlos", "measured")
    cs = build_drop(p, np.random.default_rng(3))
    assert cs.los_weight == 0.0
    # K of a drop without a direct path: its strongest ray over the rest
    k = _drop_stats(cs)["k_db"]
    assert np.isfinite(k) and k == k_factor(cs.ray_powers.ravel())


def _forced_k_drop(params, rng, k_db):
    # the draws build_drop makes itself, in its order, with K replaced
    geom = place_user(params, rng)
    lsp = {k: float(v[0]) for k, v in draw_lsp_iid(params, 1, rng).items()}
    lsp["k_db"] = k_db
    return build_drop(params, rng, geometry=geom, lsp_vals=lsp)


def test_build_drop_forced_k():
    p = load_params("umi", "los", "measured")
    meds = []
    for k in (0.0, 10.0, 20.0):
        ext = [_drop_stats(
                   _forced_k_drop(p, np.random.default_rng(s), k))["k_db"]
               for s in range(30)]
        meds.append(np.median(ext))
    assert meds[0] < meds[1] < meds[2]
    assert meds[1] == pytest.approx(10.0, abs=1e-6)


def test_build_drop_angles_wrapped():
    p = load_params("office", "nlos", "measured")
    cs = build_drop(p, np.random.default_rng(8))
    for a in (cs.aoa_deg, cs.aod_deg):
        assert np.all(a >= -180.0) and np.all(a < 180.0)
    for z in (cs.zoa_deg, cs.zod_deg):
        assert np.all((z >= 0.0) & (z <= 180.0))


def test_mpc_arrays_layout():
    p = load_params("umi", "los", "measured")
    cs = build_drop(p, np.random.default_rng(2))
    cols = cs.mpc_arrays
    n = cs.n_clusters * cs.n_rays + 1
    assert cols["delay_s"].shape == (n,)
    assert cols["power"].sum() == pytest.approx(1.0, abs=1e-12)
    # direct tap leads: zero excess delay, cluster label 0
    assert cols["delay_s"][0] == 0.0
    assert cols["cluster"][0] == 0
    assert cols["power"][0] == pytest.approx(cs.los_weight)
    assert np.max(cols["cluster"]) == cs.n_clusters


@pytest.mark.parametrize("condition", ["los", "nlos"])
def test_mpc_arrays_phase_column(condition):
    # the direct path's carrier phase leads exactly when the drop has one,
    # then the drawn ray phases in component order
    p = load_params("umi", condition, "measured")
    cs = build_drop(p, np.random.default_rng(5))
    phase = cs.mpc_arrays["phase"]
    want = cs.phases.ravel()
    if cs.los_weight > 0:
        carrier = -2.0 * np.pi * cs.geometry.d3_m / p.wavelength_m
        want = np.concatenate([[carrier], want])
    assert (cs.los_weight > 0) == (condition == "los")
    assert np.array_equal(phase, want)


def test_extract_matches_reference_estimators():
    p = load_params("office", "los", "measured")
    cs = build_drop(p, np.random.default_rng(21))
    cols = cs.mpc_arrays
    ext = _drop_stats(cs)
    assert ext["ds_s"] == pytest.approx(
        rms_ds(cols["delay_s"], cols["power"]), rel=1e-12)
    assert ext["asa_deg"] == pytest.approx(
        asa(cols["aoa_deg"], cols["power"]), rel=1e-12)
    assert ext["k_db"] == pytest.approx(k_factor(cols["power"]), abs=1e-9)
