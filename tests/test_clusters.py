import math
import sys

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from thzgbsm import clusters
from thzgbsm.analysis import asa, extract_drop_stats, k_factor, rms_ds
from thzgbsm.clusters import (
    apply_in_cluster_k, build_drop, composite_asa, gen_delays, gen_powers,
    geometry_for, place_user, rescale_azimuth, rescale_linear, rescale_zenith)
from thzgbsm.constants import c_phi, c_theta, ray_offsets, wrap_deg
from thzgbsm.lsp import draw_lsp_iid, generate_lsp, transform_standard_normals
from thzgbsm.params import ScenarioParamSet, load_params, params_file


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
    (d,) = gen_delays(8, [20e-9], 3.0, [rng])   # a batch of one drop
    assert d[0] == 0.0
    assert np.all(np.diff(d) >= 0)
    assert d.shape == (8,)


def test_gen_powers_exponential_profile_no_shadowing():
    # two clusters 10 ns apart, r_tau=2, DS=10 ns: power ratio exp(-1/2)
    d = np.array([0.0, 10e-9])
    (p,), (w,) = gen_powers(d[None], [10e-9], 2.0, 0.0,
                            [np.random.default_rng(0)])
    assert w == 0.0
    assert p.sum() == pytest.approx(1.0)
    assert p[1] / p[0] == pytest.approx(np.exp(-0.5), rel=1e-12)


def test_gen_powers_los_weight():
    d = np.array([0.0, 5e-9, 9e-9])
    k_lin = 10.0 ** (6.0 / 10.0)
    (p,), (w,) = gen_powers(d[None], [10e-9], 3.0, 0.0,
                            [np.random.default_rng(0)], k_linear=[k_lin])
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
            assert ph.shape == (1, p.clusters.count, p.clusters.rays)
            assert np.all((ph >= -np.pi) & (ph < np.pi))


# --- per-drop rescaling ---

def test_rescale_delays_hits_target_exactly():
    """Delays scale about the direct tap at zero, as build_drop calls
    rescale_linear, with and without a direct path."""
    d = np.array([0.0, 7e-9, 30e-9])
    p = np.array([0.6, 0.3, 0.1])
    out = rescale_linear(d, p, 0.0, 0.0, 25e-9)
    assert rms_ds(out, p) == pytest.approx(25e-9, rel=1e-12)
    # a direct tap at zero delay keeps the scaling exact
    w = 0.7
    out2 = rescale_linear(d, (1 - w) * p, w, 0.0, 4e-9)
    assert rms_ds(np.r_[0.0, out2], np.r_[w, (1 - w) * p]) == pytest.approx(
        4e-9, rel=1e-12)


def test_rescale_linear_stacked_rows_are_each_row_alone():
    """Drops stacked on a leading axis, with and without a direct path and
    one without spread, each get the bits they get alone."""
    rng = np.random.default_rng(6)
    vals = rng.uniform(0.0, 40e-9, (4, 3, 5))
    vals[3] = 7e-9                  # no direct path and no spread: unchanged
    pw = rng.uniform(0.1, 1.0, (4, 3, 5))
    w, center = np.array([0.6, 0.0, 0.2, 0.0]), np.array([0.0, 3e-9, 1e-9, 0.0])
    target = np.array([5e-9, 9e-9, 2e-9, 30e-9])
    got = rescale_linear(vals, pw, w, center, target)
    for i in range(4):
        alone = rescale_linear(vals[i], pw[i], w[i], center[i], target[i])
        assert got[i].tobytes() == alone.tobytes()
    assert np.array_equal(got[3], vals[3])


def test_composite_asa_includes_direct_ray():
    # ray powers carry the (1 - w) scattered share, as Drops.ray_powers does
    dev = np.deg2rad([30.0, -30.0])
    scattered = np.array([0.5, 0.5])
    no_los = composite_asa(dev, scattered, 0.0)
    w = 0.9
    with_los = composite_asa(dev, scattered * (1 - w), w)
    assert with_los < no_los
    w = 1.0 - 1e-12
    assert composite_asa(dev, scattered * (1 - w), w) == pytest.approx(
        0.0, abs=1e-3)


def test_rescale_azimuth_reachable_target():
    rng = np.random.default_rng(4)
    ang = rng.uniform(-40.0, 40.0, 12)
    pw = rng.uniform(0.2, 1.0, 12)
    out = rescale_azimuth(ang, pw, 0.0, 10.0, 25.0)
    assert _scalar_spread(out, pw, 0.0, 10.0) == pytest.approx(25.0, abs=1e-6)
    assert np.all(out >= -180.0) and np.all(out < 180.0)


def test_rescale_azimuth_shrinks_too():
    ang = np.array([-120.0, -60.0, 40.0, 170.0])
    pw = np.ones(4)
    out = rescale_azimuth(ang, pw, 0.0, 0.0, 5.0)
    assert _scalar_spread(out, pw, 0.0, 0.0) == pytest.approx(5.0, abs=1e-6)


def test_rescale_azimuth_unreachable_clamps_at_rician_limit():
    """With 95% of power in the direct ray the spread cannot exceed
    sqrt(1 - (2w-1)^2) radians, reached with all scatter antipodal."""
    w = 0.95
    cap = np.degrees(np.sqrt(1.0 - (2 * w - 1.0) ** 2))
    ang = np.array([5.0, -3.0, 12.0])
    pw = np.array([0.4, 0.4, 0.2]) * (1 - w)
    out = rescale_azimuth(ang, pw, w, 0.0, 40.0)
    got = _scalar_spread(out, pw, w, 0.0)
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
                               bearing_deg, target_asa_deg, coarse=True):
    """The search rescale_azimuth follows, one spread evaluation at a time
    with 60-step bisections, over a 96-point grid of scales from 1 to 256.

    The grid is scanned coarse to fine: every 8th scale from scale 1 and
    the last. On the first coarse scale that reaches the target every
    fine scale of its coarse bracket is evaluated and the first fine
    crossing there is solved. When no coarse scale reaches the target, a
    target of at most a radian scans the fine scales in order, and one
    above takes the best coarse scale or one of its two neighbours as the
    base. With coarse=False the scan takes all 96 scales in order.

    Returns the angles, the exit taken, on the solved exits the bracket of
    the solved parameter and the map from that parameter to the angles,
    and the scan: per stage, its name, how many scales it evaluated until
    one reached the target, and how many it holds."""
    ang = np.asarray(angles_deg, dtype=float)
    dev = wrap_deg(ang - bearing_deg)
    scan = []

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
        return at(0.5 * (a + b)), took, (lo, hi), at, scan

    if spread_of(dev) < clusters._SPREAD_FLOOR_DEG:
        return from_dev(dev), "zero", None, None, scan
    scale_spread = lambda s: spread_of(s * dev)
    scaled = lambda s: from_dev(s * dev)
    if scale_spread(1.0) >= target_asa_deg:
        return solved(scale_spread, scaled, 0.0, 1.0, "shrink")
    # every ray at the antipode; with the direct path holding at least half
    # the power no configuration spreads more
    antipode = np.full(ang.shape, wrap_deg(bearing_deg + 180.0))
    s_anti = _scalar_spread(antipode, ray_powers, los_weight, bearing_deg)
    if los_weight >= np.sum(ray_powers) and s_anti < target_asa_deg:
        return antipode, "antipode", None, None, scan
    grid = np.geomspace(1.0, 256.0, 96)
    vals = np.full(grid.size, -np.inf)
    vals[0] = scale_spread(1.0)

    def first_crossing(stage, idx):
        for m, g in enumerate(idx, 1):
            vals[g] = scale_spread(grid[g])
            if vals[g] >= target_asa_deg:
                scan.append((stage, m, len(idx)))
                return g
        scan.append((stage, len(idx), len(idx)))
        return None

    def all_of(stage, idx):
        for g in idx:
            vals[g] = scale_spread(grid[g])
        scan.append((stage, len(idx), len(idx)))

    if not coarse:
        hit = first_crossing("fine", range(1, grid.size))
    else:
        coarse_idx = [*range(0, grid.size, 8), grid.size - 1]
        hit = first_crossing("coarse", coarse_idx[1:])
        if hit is not None:
            inside = range(coarse_idx[coarse_idx.index(hit) - 1] + 1, hit)
            all_of("bracket", inside)
            hit = next(g for g in [*inside, hit] if vals[g] >= target_asa_deg)
        elif target_asa_deg <= math.degrees(1.0):
            hit = first_crossing("fine", [g for g in range(1, grid.size)
                                          if g not in coarse_idx])
        else:
            k = int(np.argmax(vals))
            all_of("near", [g for g in (k - 1, k + 1) if 0 < g < grid.size])
    if hit is not None:
        return solved(scale_spread, scaled, grid[hit - 1], grid[hit], "grow")
    base = wrap_deg(grid[int(np.argmax(vals))] * dev)
    anti = 180.0 * np.where(base >= 0.0, 1.0, -1.0)
    sweep_spread = lambda u: spread_of((1.0 - u) * base + u * anti)
    if s_anti >= target_asa_deg:
        return solved(sweep_spread,
                      lambda u: from_dev((1.0 - u) * base + u * anti),
                      0.0, 1.0, "sweep")
    if s_anti >= vals.max():
        return antipode, "antipode", None, None, scan
    return from_dev(base), "base", None, None, scan


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
    clusters._solve call, the first three one entry per row it solves."""
    seen, solve = [], clusters._solve

    def spy(f, lo, hi, *args):
        n = [0]

        def counted(*args):
            n[0] += 1
            return f(*args)
        seen.append((lo, hi, solve(counted, lo, hi, *args), n[0]))
        return seen[-1][2]
    monkeypatch.setattr(clusters, "_solve", spy)
    return seen


def _check_against_reference(ang, pw, w, bearing, target, solves):
    """rescale_azimuth takes the reference search's exit, with the same
    angles on the zero, antipode and base exits. On the solved exits it
    solves once, on the reference's bracket, and its angles meet the
    target to _SPREAD_RTOL. Returns rescale_azimuth's angles and the exit."""
    want, took, bracket, at, _ = _reference_rescale_azimuth(ang, pw, w,
                                                            bearing, target)
    solves.clear()
    got = rescale_azimuth(ang, pw, w, bearing, target)
    if bracket is None:
        assert not solves and np.array_equal(got, want)
        return got, took
    (lo, hi, x, _), = solves
    assert (lo, hi) == bracket and lo <= x <= hi
    assert np.array_equal(got, at(x))
    spread = _scalar_spread(got, pw, w, bearing)
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
    """Build n drops, each a record of one, and match all four planes of
    each, one plane per match_planes call, so that every match runs on one
    plane of one drop alone."""
    for s in np.random.SeedSequence(2024).spawn(n):
        cs = build_drop(params, np.random.default_rng(s))
        for k in _PLANES:
            clusters.match_planes(cs, k)


def _one_drop(check):
    """A rescale_azimuth stand-in for a call that stacks one plane: check
    takes the plane's arguments unstacked, as one drop's, and returns its
    angles, which are stacked back."""
    def unstacked(*stacked):
        (args,) = zip(*stacked)             # one plane, no more
        return check(*args)[None]
    return unstacked


@pytest.mark.parametrize("scenario,condition,source", _SETS)
def test_build_drop_azimuths_equal_scalar_search(scenario, condition, source,
                                                 solves, monkeypatch):
    p = load_params(scenario, condition, source)
    exits = []

    def checked(*args):
        got, took = _check_against_reference(*args, solves)
        exits.append(took)
        return got
    monkeypatch.setattr(clusters, "rescale_azimuth", _one_drop(checked))
    _drops(p)
    assert len(exits) == 50


@pytest.mark.parametrize("scenario,condition,source", _SETS)
def test_build_drop_meets_every_target_the_full_scan_meets(
        scenario, condition, source, monkeypatch):
    """The coarse-to-fine scan loses no target: every drop's azimuths meet
    the drawn spread wherever a scan of all 96 scales meets it."""
    rescale, met = clusters.rescale_azimuth, []

    def checked(ang, pw, w, bearing, target):
        got = rescale(ang, pw, w, bearing, target)
        want, *_ = _reference_rescale_azimuth(ang, pw, w, bearing, target,
                                              coarse=False)
        tol = _met_tol(target, ang.size)
        if abs(_scalar_spread(want, pw, w, bearing) - target) <= tol:
            met.append(target)
            assert abs(_scalar_spread(got, pw, w, bearing) - target) <= tol
        return got
    monkeypatch.setattr(clusters, "rescale_azimuth", _one_drop(checked))
    _drops(load_params(scenario, condition, source))
    assert met


@pytest.mark.parametrize("scenario", ["office", "umi"])
def test_nlos_3gpp_scan_budget(scenario, spread_evals, monkeypatch):
    """On the NLoS 3GPP sets, whose drawn spreads often exceed the radian
    no configuration reaches, a call evaluates at most 10 scales on
    average (about 8 and 7 over these drops); a scan of all 96 scales in
    doubling chunks took about 39 and 40."""
    rescale, rows = clusters.rescale_azimuth, []

    def counted(ang, *args):
        spread_evals.clear()
        got = rescale(ang, *args)
        rows.append(sum(s[1] for s in spread_evals if len(s) == 3))
        return got
    monkeypatch.setattr(clusters, "rescale_azimuth", counted)
    _drops(load_params(scenario, "nlos", "3gpp"))
    assert len(rows) == 50
    assert np.mean(rows) <= 10.0


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
        assert (abs(_scalar_spread(got, pw, w, bearing) - target)
                <= _met_tol(target, n))
    evals = [k for *_, k in solves]
    assert len(evals) == 200
    assert np.mean(evals) <= 4.0 and max(evals) <= 6


@pytest.fixture
def spread_evals(monkeypatch):
    """Shapes of the deviations of every clusters.composite_asa call."""
    seen, spread = [], clusters.composite_asa

    def spy(dev_rad, *args):
        seen.append(np.shape(dev_rad))
        return spread(dev_rad, *args)
    monkeypatch.setattr(clusters, "composite_asa", spy)
    return seen


def _antipodal_cap_deg(pw, w):
    p = np.sum(pw)
    return np.degrees(np.sqrt(1.0 - ((w - p) / (w + p)) ** 2))


def test_rescale_azimuth_cap_exit_scans_no_scale(spread_evals, solves):
    ang, pw, w, bearing, target, _ = _RESCALE_CASES["clamp to antipode"]
    assert w >= 0.5 and target > _antipodal_cap_deg(pw, w)
    got = rescale_azimuth(np.array(ang), np.array(pw), w, bearing, target)
    assert not solves and all(len(s) == 2 for s in spread_evals)
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
            assert not solves and all(len(s) == 2 for s in spread_evals)
            assert np.array_equal(got, np.full(ang.shape,
                                               wrap_deg(bearing + 180.0)))
        return got
    monkeypatch.setattr(clusters, "rescale_azimuth", _one_drop(checked))
    _drops(load_params(scenario, "los", source))
    assert capped


def _scan_chunks(scan, n):
    """Scales of the stacked composite_asa calls a scan takes: a coarse or
    fine stage evaluates chunks doubling from _ASA_BATCH // n scales up to
    the chunk that reaches the target, and a coarse bracket's fine scales
    or a best coarse scale's neighbours are one call."""
    rows = []
    for stage, scanned, size in scan:
        if stage in ("bracket", "near"):
            rows.append(size)
            continue
        done, chunk = 0, max(1, clusters._ASA_BATCH // n)
        while done < scanned:
            rows.append(min(chunk, size - done))
            done, chunk = done + rows[-1], 2 * chunk
    return rows


def _check_spreads_from_composite_asa(rescale, args, spread_evals, solves):
    """One rescale_azimuth call of one drop takes every spread from
    composite_asa: one (1, n) call for the starting spread, one per solver
    step, and one stacked (1, k, n) call per chunk of the reference
    search's scan."""
    *_, scan = _reference_rescale_azimuth(*args)
    spread_evals.clear()
    solves.clear()
    got = rescale(*args)
    n = np.size(args[0])
    flat = [s for s in spread_evals if s == (1, n)]
    stacked = [s[1] for s in spread_evals if s != (1, n)]
    assert all(s[::2] == (1, n) for s in spread_evals if s != (1, n))
    assert len(flat) == 1 + sum(k for *_, k in solves)
    assert stacked == _scan_chunks(scan, n)
    return got


@pytest.mark.parametrize("case", list(_RESCALE_CASES))
def test_rescale_azimuth_takes_every_spread_from_composite_asa(
        case, spread_evals, solves):
    ang, pw, w, bearing, target, _ = _RESCALE_CASES[case]
    _check_spreads_from_composite_asa(
        rescale_azimuth, (np.array(ang), np.array(pw), w, bearing, target),
        spread_evals, solves)


def test_build_drop_takes_every_spread_from_composite_asa(spread_evals, solves,
                                                          monkeypatch):
    rescale, calls = clusters.rescale_azimuth, []

    def checked(*args):
        calls.append(args)
        return _check_spreads_from_composite_asa(rescale, args, spread_evals,
                                                 solves)
    monkeypatch.setattr(clusters, "rescale_azimuth", _one_drop(checked))
    for label in _SETS:
        _drops(load_params(*label), n=5)
    assert len(calls) == 80


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), data=st.data(),
       w=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
       bearing=st.floats(-720.0, 720.0),
       target=st.floats(0.0, 100.0, exclude_min=True, exclude_max=True))
def test_rescale_azimuth_spread_property(n, data, w, bearing, target):
    """Any rays, direct share and target: the angles come back finite,
    wrapped and shaped like the input, and meet every target a scan of
    all 96 scales meets. Meeting means within _SPREAD_RTOL, plus the
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
    want, *_ = _reference_rescale_azimuth(ang, pw, w, bearing, target,
                                          coarse=False)
    tol = _met_tol(target, n)
    if abs(_scalar_spread(want, pw, w, bearing) - target) <= tol:
        assert abs(_scalar_spread(got, pw, w, bearing) - target) <= tol


def _check_stack_against_reference(cases, solves):
    """One rescale_azimuth call over the cases stacked, each (angles, ray
    powers, direct share, bearing, target) with one ray count: every row
    takes the reference search's exit with that exit's angles, on the
    solved exits at the row's own point of the lockstep solve (the scale
    solve's rows in row order, then the sweep's) and on the reference's
    bracket, and has the bits of the row matched alone."""
    stack = [np.stack([np.asarray(c[i], dtype=float) for c in cases])
             for i in range(5)]
    refs = [_reference_rescale_azimuth(*c) for c in cases]
    solves.clear()
    got = rescale_azimuth(*stack)
    assert got.shape == stack[0].shape
    solved = {"sweep" if took == "sweep" else "scale"
              for _, took, bracket, *_ in refs if bracket}
    runs = iter(solves)
    points = {kind: iter(zip(*next(runs)[:3]))
              for kind in ("scale", "sweep") if kind in solved}
    assert next(runs, None) is None
    for row, case, (want, took, bracket, at, _) in zip(got, cases, refs):
        assert np.array_equal(row, rescale_azimuth(*case))
        if bracket is None:
            assert np.array_equal(row, want)
            continue
        lo, hi, x = next(points["sweep" if took == "sweep" else "scale"])
        assert (lo, hi) == bracket and lo <= x <= hi
        assert np.array_equal(row, at(x))
        ang, pw, w, bearing, target = case
        assert (abs(_scalar_spread(row, pw, w, bearing) - target)
                <= _met_tol(target, np.size(ang)))


@pytest.mark.parametrize("stack_angles", [None, 1, 700])
def test_stacked_exit_cases_equal_reference_rows(stack_angles, solves,
                                                 monkeypatch):
    """The hand-built exit cases, stacked by ray count and twice over in
    opposite orders, whatever the cut into spread evaluations."""
    if stack_angles is not None:
        monkeypatch.setattr(clusters, "_STACK_ANGLES", stack_angles)
    cases = [c[:5] for c in _RESCALE_CASES.values()]
    for n in {len(c[0]) for c in cases}:
        same = [c for c in cases if len(c[0]) == n]
        _check_stack_against_reference(same + same[::-1], solves)


@pytest.mark.parametrize("scenario,condition,source", _SETS)
def test_stacked_drops_equal_reference_rows(scenario, condition, source,
                                            solves, monkeypatch):
    """Both azimuth planes of 25 seeded drops of each set in one stack,
    cut into spread evaluations at the default size, one row at a time
    and a few rows at a time."""
    p = load_params(scenario, condition, source)
    cases = [_match_args(cs, k)
             for cs in (build_drop(p, np.random.default_rng(s))
                        for s in np.random.SeedSequence(2024).spawn(25))
             for k in ("aoa_deg", "aod_deg")]
    for stack_angles in (clusters._STACK_ANGLES, 1, 4 * np.size(cases[0][0])):
        monkeypatch.setattr(clusters, "_STACK_ANGLES", stack_angles)
        _check_stack_against_reference(cases, solves)


_LOS = {"aoa_deg": "aoa_los_deg", "aod_deg": "aod_los_deg",
        "zoa_deg": "zoa_los_deg", "zod_deg": "zod_los_deg"}


def _match_args(cs, k, i=0):
    """The arguments that match the drawn plane k of drop i of a record:
    its angles, the ray powers, the direct share, the direct path's angle
    and the spread."""
    ang, spread = cs.drawn[k]
    return (ang[i], cs.ray_powers[i], cs.los_weight[i],
            getattr(cs.geometry, _LOS[k])[i], spread[i])


@pytest.mark.parametrize("scenario,condition,source", _SETS)
def test_match_planes_gives_each_drop_its_own_bits(scenario, condition, source,
                                                   monkeypatch):
    """match_planes over a record of 30 drops: one rescale_azimuth call,
    looked up in clusters, matches the pending azimuth plane of every
    drop to the bytes the drop gets matched alone, draws no random
    number, matches only the planes named and matches no plane twice."""
    p = load_params(scenario, condition, source)
    seeds = np.random.SeedSequence(11).spawn(30)
    rngs = [np.random.default_rng(s) for s in seeds]
    drops = build_drop(p, rngs)
    states = [rng.bit_generator.state for rng in rngs]
    clusters.match_planes(drops, "aod_deg")         # already matched: kept
    kept = drops.angles["aod_deg"]
    rescale, rows = clusters.rescale_azimuth, []

    def counted(*args):
        rows.append(np.size(args[2]))
        return rescale(*args)
    monkeypatch.setattr(clusters, "rescale_azimuth", counted)
    clusters.match_planes(drops, "delay_s", "aoa_deg", "zoa_deg", "aod_deg",
                          "aoa_deg")
    assert rows == [30]
    clusters.match_planes(drops, "aoa_deg", "aod_deg")
    assert rows == [30] and drops.angles["aod_deg"] is kept
    assert set(drops.angles) == {"aoa_deg", "aod_deg", "zoa_deg"}
    for i, (ss, rng, state) in enumerate(zip(seeds, rngs, states)):
        assert rng.bit_generator.state == state
        alone = build_drop(p, np.random.default_rng(ss))
        for k in drops.angles:
            clusters.match_planes(alone, k)
            assert drops.angles[k][i].tobytes() == alone.angles[k][0].tobytes()
    assert rows == [30] + [1] * 60


@pytest.mark.parametrize("scenario,condition,source", _SETS)
def test_match_planes_matches_each_pending_plane_once(scenario, condition,
                                                      source, monkeypatch):
    """One match_planes call over a record of 30 drops and all four
    planes, its departure azimuths matched before: one rescale_azimuth
    call holding the 30 arrival azimuth planes still pending and one
    rescale_zenith call per pending zenith plane, holding that plane of
    every drop, each row on its drop's drawn arguments and matched to the
    bits of its own call; the plane matched before kept, and no random
    number drawn."""
    p = load_params(scenario, condition, source)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(5).spawn(30)]
    drops = build_drop(p, rngs)
    states = [rng.bit_generator.state for rng in rngs]
    clusters.match_planes(drops, "aod_deg")
    kept = drops.angles["aod_deg"]
    calls = {"rescale_azimuth": [], "rescale_zenith": []}
    for name in calls:
        def spied(*args, match=getattr(clusters, name), name=name):
            calls[name].append(args)
            return match(*args)
        monkeypatch.setattr(clusters, name, spied)
    clusters.match_planes(drops, *_PLANES)

    def check_rows(stacked, plane):
        for i in range(30):
            want = _match_args(drops, plane, i)
            assert all(np.array_equal(a[i], b) for a, b in zip(stacked, want))
    (stacked,) = calls["rescale_azimuth"]
    assert np.shape(stacked[2]) == (30,)
    check_rows(stacked, "aoa_deg")
    assert len(calls["rescale_zenith"]) == 2
    for plane, stacked in zip(["zoa_deg", "zod_deg"], calls["rescale_zenith"]):
        check_rows(stacked, plane)
        for i in range(30):
            alone = rescale_zenith(*_match_args(drops, plane, i))
            assert drops.angles[plane][i].tobytes() == alone.tobytes()
    assert drops.angles["aod_deg"] is kept
    assert set(drops.angles) == set(_PLANES)
    for rng, state in zip(rngs, states):
        assert rng.bit_generator.state == state


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
    """composite_asa's phasor sum over deviations equals analysis.asa of
    the wrapped angles with the direct path prepended, and a stacked row
    equals, bit for bit, the same row passed on its own."""
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
        stacked = composite_asa(np.deg2rad(rows), pw, w)
        assert stacked.shape == (len(rows),)
        for i, row in enumerate(rows):
            angles, powers = wrap_deg(bearing + row), pw
            if w > 0:
                angles, powers = np.r_[bearing, angles], np.r_[w, pw]
            want = asa(angles, powers)
            got = composite_asa(np.deg2rad(row), pw, w)
            assert got == stacked[i]
            if w == 0 and (n == 1 or i == len(rows) - 1):
                # every ray in one direction: the exact spread is 0, and
                # sqrt(1 - R^2) turns one ulp of R into 8.5e-7 degrees
                assert max(want, got) < 1e-5
            else:
                assert abs(got - want) <= 1e-9


def test_rescale_zenith_target_and_range():
    ang = np.array([85.0, 95.0, 100.0])
    pw = np.array([1.0, 1.0, 1.0])
    out = rescale_zenith(ang, pw, 0.0, 90.0, 3.0)
    assert rms_ds(out, pw) == pytest.approx(3.0, rel=1e-12)
    assert np.all((out >= 0.0) & (out <= 180.0))
    # the direct path at the bearing counts towards the spread
    w = 0.6
    out = rescale_zenith(ang, (1 - w) * pw / 3, w, 90.0, 2.0)
    assert rms_ds(np.r_[90.0, out], np.r_[w, (1 - w) * pw / 3]) == (
        pytest.approx(2.0, rel=1e-12))
    # rays pushed past a pole fold back into [0, 180]
    out = rescale_zenith(np.array([[170.0, 178.0], [5.0, 1.0]]),
                         np.full((2, 2), 0.25), 0.0, 90.0, 150.0)
    assert out.shape == (2, 2)
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
    assert_allclose(a.columns("aoa_deg")["aoa_deg"],
                    b.columns("aoa_deg")["aoa_deg"])
    assert_allclose(a.phases, b.phases)


def _reference_geometry(params, x, y):
    """geometry_for as it was: one user's scalar arithmetic."""
    g = params.geometry
    d2 = float(np.hypot(x, y))
    dz = g.mu_height_m - g.bs_height_m
    d3 = float(np.hypot(d2, dz))
    aod = float(np.degrees(np.arctan2(y, x)))
    zod = float(np.degrees(np.arccos(np.clip(dz / d3, -1.0, 1.0))))
    aoa = float(wrap_deg(aod + 180.0))
    zoa = float(np.degrees(np.arccos(np.clip(-dz / d3, -1.0, 1.0))))
    return clusters.LinkGeometry(d2, d3, aoa, aod, zoa, zod)


def _reference_build_drop(params, rng, geometry=None, lsp_vals=None):
    """build_drop as it was, one drop at a time on its (N,) and (N, M)
    arrays, returned as a record of one: the oracle of the stacked build."""
    if geometry is None:
        x, y = clusters.place_users(params, rng, 1)
        geometry = _reference_geometry(params, x[0], y[0])
    if lsp_vals is None:
        z = rng.standard_normal((1, len(params.lsp_names))) @ params.mixing_matrix.T
        lsp_vals = {k: float(v[0])
                    for k, v in transform_standard_normals(params, z).items()}
    n, m = params.clusters.count, params.clusters.rays
    sup = params.supplemental
    k_db = lsp_vals.get("k_db") if params.condition == "los" else None
    ds = lsp_vals["ds_s"]
    tau = -sup.r_tau * ds * np.log(1.0 - rng.random(n))
    tau.sort()
    tau = tau - tau[0]
    zeta = sup.per_cluster_shadow_db
    z = rng.normal(0.0, zeta, n) if zeta > 0 else np.zeros(n)
    p = np.exp(-tau * (sup.r_tau - 1.0) / (sup.r_tau * ds)) * 10.0 ** (-z / 10.0)
    p = p / p.sum()
    w = 0.0
    if k_db is not None:
        k_lin = 10.0 ** (k_db / 10.0)
        w = k_lin / (k_lin + 1.0)
    # rescale_linear of the delays about the direct tap at 0
    center, x, q = 0.0, tau, (1.0 - w) * p
    if w > 0:
        x, q = np.concatenate([[center], x]), np.concatenate([[w], q])
    cur = rms_ds(x, q)
    delays = tau.copy() if cur <= 0 else center + (ds / cur) * (tau - center)
    ray_p = (1.0 - w) * p[:, None] * apply_in_cluster_k(m, params.clusters.c_k_db)
    zsa = 10.0 ** (sup.zsa_log10deg.mu
                   + sup.zsa_log10deg.sigma * rng.standard_normal())
    zsd = 10.0 ** (sup.zsd_log10deg.mu
                   + sup.zsd_log10deg.sigma * rng.standard_normal())
    ratio = p / p.max()
    offs, order = ray_offsets(m), np.tile(np.arange(m), (n, 1))

    def plane(bearing, center_dev, spread, c_spread):
        flips = rng.integers(0, 2, n) * 2 - 1
        jitter = rng.normal(0.0, spread / 7.0, n)
        centers = flips * center_dev + jitter + bearing
        perm = rng.permuted(order, axis=1)
        return centers[:, None] + (c_spread * offs)[perm], spread
    asa_deg, ct = lsp_vals["asa_deg"], c_theta(n, k_db)
    phi_c = 2.0 * (asa_deg / 1.4) * np.sqrt(-np.log(ratio)) / c_phi(n, k_db)
    g, c_asa = geometry, params.clusters.c_asa_deg
    drawn = {"aoa_deg": plane(g.aoa_los_deg, phi_c, asa_deg, c_asa),
             "aod_deg": plane(g.aod_los_deg, phi_c, asa_deg, c_asa),
             "zoa_deg": plane(g.zoa_los_deg, -(zsa / ct) * np.log(ratio), zsa,
                              sup.c_zsa_deg),
             "zod_deg": plane(g.zod_los_deg, -(zsd / ct) * np.log(ratio), zsd,
                              sup.c_zsd_deg)}
    phases = rng.uniform(-np.pi, np.pi, (n, m))
    one = lambda v: np.array([v], dtype=float)     # noqa: E731
    return clusters.Drops(
        delays_s=delays[None], powers=p[None], los_weight=one(w),
        ray_powers=ray_p[None],
        drawn={k: (a[None], one(s)) for k, (a, s) in drawn.items()},
        phases=phases[None],
        geometry=clusters.LinkGeometry(*map(one, vars(geometry).values())),
        wavelength_m=params.wavelength_m, c_ds_s=params.clusters.c_ds_ns * 1e-9,
        lsp={k: one(v) for k, v in lsp_vals.items()
             if params.condition == "los" or k != "k_db"})


def _fields(cs):
    """A record with each array as its dtype, shape and bytes."""
    return clusters._map(lambda a: (a.dtype, a.shape, a.tobytes()), cs)


@pytest.mark.parametrize("scenario,condition,source", _SETS)
def test_batched_build_gives_each_drop_its_bits(scenario, condition, source,
                                                monkeypatch):
    """Each row of a record of 30 drops built in one call has every field
    bit for bit as the per-drop oracle builds it, drawing its user and
    LSPs itself or given them as simulate gives them, and each
    generator's next draw is the oracle's; so do the set reversed, the
    set stacked in pieces of 7 drops or of 1, and a set of one."""
    p = load_params(scenario, condition, source)
    seeds = np.random.SeedSequence(40).spawn(30)
    xs, ys = clusters.place_users(p, np.random.default_rng(1), 30)
    lsp = generate_lsp(p, xs, ys, np.random.default_rng(2))
    links = clusters.geometry_for(p, xs, ys)
    one = [(clusters._map(lambda a: a[i], links),
            {k: float(v[i]) for k, v in lsp.items()}) for i in range(30)]
    for given in (False, True):
        ref_rngs = [np.random.default_rng(s) for s in seeds]
        want = [_fields(_reference_build_drop(
                    p, r, *((_reference_geometry(p, xs[i], ys[i]), one[i][1])
                            if given else (None, None))))
                for i, r in enumerate(ref_rngs)]
        after = [r.random() for r in ref_rngs]
        for piece in (clusters._BUILD_ANGLES, 7, 1):
            monkeypatch.setattr(clusters, "_BUILD_ANGLES",
                                min(piece * p.clusters.count * p.clusters.rays,
                                    clusters._BUILD_ANGLES))
            rngs = [np.random.default_rng(s) for s in seeds]
            got = build_drop(p, rngs, *((links, lsp) if given else (None, None)))
            assert [_fields(cs) for cs in got] == want
            assert [r.random() for r in rngs] == after
        back = build_drop(p, [np.random.default_rng(s) for s in seeds[::-1]],
                          *((clusters._map(lambda a: a[::-1], links),
                             {k: v[::-1] for k, v in lsp.items()})
                            if given else (None, None)))
        assert [_fields(cs) for cs in back][::-1] == want
        alone = [build_drop(p, np.random.default_rng(s), *(one[i] if given
                                                          else (None, None)))
                 for i, s in enumerate(seeds)]
        assert [_fields(cs) for cs in alone] == want


@st.composite
def _perturbed_sets(draw):
    """A bundled set through ScenarioParamSet.from_dict, with every input
    generation reads redrawn inside its schema range. K stays above about
    -9 dB, where TR 38.901's zenith scaling polynomial c_theta crosses 0."""
    d = yaml.safe_load(params_file(*draw(st.sampled_from(_SETS))).read_text())

    def normal(mu, sigma):
        return {"mu": draw(st.floats(*mu)), "sigma": draw(st.floats(0.0, sigma))}
    d["ds_log10s"] = normal((-9.0, -6.5), 0.6)
    d["asa_log10deg"] = normal((-0.5, 2.2), 0.6)
    if d.get("k_db"):
        d["k_db"] = normal((3.0, 15.0), 3.0)
    d["xcorr"] = {k: draw(st.floats(-0.9, 0.9)) for k in d["xcorr"]}
    d["clusters"].update(count=draw(st.integers(2, 20)),
                         rays=draw(st.integers(1, 20)),
                         c_asa_deg=draw(st.floats(0.0, 30.0)),
                         c_k_db=draw(st.floats(-10.0, 20.0)))
    d["supplemental"].update(r_tau=draw(st.floats(1.05, 4.0)),
                             per_cluster_shadow_db=draw(st.floats(0.0, 8.0)),
                             zsa_log10deg=normal((-0.5, 1.5), 0.5),
                             zsd_log10deg=normal((-0.5, 1.5), 0.5),
                             c_zsa_deg=draw(st.floats(0.0, 15.0)),
                             c_zsd_deg=draw(st.floats(0.0, 15.0)))
    return ScenarioParamSet.from_dict(d)


@settings(max_examples=30, deadline=None)
@given(p=_perturbed_sets(), seed=st.integers(0, 2**32 - 1))
def test_perturbed_sets_build_whole_as_drop_by_drop(p, seed):
    """On perturbed sets a record of 9 drops equals, row by row and with
    every plane matched, the drops built one at a time, and so do the set
    built in pieces of 7 drops and of 1; every value is finite, delays are
    sorted and nonnegative, and ray powers plus the direct share sum to 1."""
    seeds = np.random.SeedSequence(seed).spawn(9)
    drops = build_drop(p, [np.random.default_rng(s) for s in seeds])
    alone = [build_drop(p, np.random.default_rng(s)) for s in seeds]
    with pytest.MonkeyPatch.context() as mp:
        for piece in (7, 1):
            mp.setattr(clusters, "_BUILD_ANGLES",
                       piece * p.clusters.count * p.clusters.rays)
            cut = build_drop(p, [np.random.default_rng(s) for s in seeds])
            assert [_fields(cs) for cs in cut] == [_fields(cs) for cs in drops]
    clusters.match_planes(drops, *_PLANES)
    for cs in alone:
        clusters.match_planes(cs, *_PLANES)
    assert [_fields(cs) for cs in drops] == [_fields(cs) for cs in alone]
    finite = []
    clusters._map(lambda a: finite.append(np.isfinite(a).all()), drops)
    assert all(finite) and len(finite) > 20
    assert np.all(drops.delays_s >= 0.0)
    assert np.all(np.diff(drops.delays_s, axis=1) >= 0.0)
    assert_allclose(drops.los_weight + drops.ray_powers.sum(axis=(1, 2)), 1.0,
                    rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("missing", ["k_db", "asa_deg", "ds_s"])
def test_build_drop_names_a_missing_lsp_column(missing):
    """A LoS set's drops given LSPs need ds_s, asa_deg and k_db: without
    one, one drop and a batch both raise a ValueError naming the column
    and the set, rather than build without a direct path or raise a bare
    KeyError; columns of another length than the batch are refused."""
    p = load_params("office", "los", "measured")
    cols = draw_lsp_iid(p, 2, np.random.default_rng(0))
    rngs = [np.random.default_rng(s) for s in (1, 2)]
    build_drop(p, rngs, lsp_vals=cols)
    with pytest.raises(ValueError, match="need one geometry and one value"):
        build_drop(p, rngs[:1], lsp_vals=cols)
    del cols[missing]
    msg = f"lsp_vals for office_los_measured have no {missing} column"
    with pytest.raises(ValueError, match=msg):
        build_drop(p, rngs, lsp_vals=cols)
    with pytest.raises(ValueError, match=msg):
        build_drop(p, rngs[0], lsp_vals={k: float(v[0]) for k, v in cols.items()})


def _one(cs, *names):
    """The named columns of a record of one drop, as 1-D arrays."""
    return {k: v for k, (v,) in cs.columns(*names).items()}


def _drop_stats(cs):
    c = _one(cs)
    return extract_drop_stats(c["delay_s"], c["power"], c["aoa_deg"])


def test_build_drop_roundtrip_ds_k_exact():
    p = load_params("office", "los", "measured")
    for seed in range(5):
        cs = build_drop(p, np.random.default_rng(seed))
        ext = _drop_stats(cs)
        assert ext["ds_s"] == pytest.approx(cs.lsp["ds_s"][0], rel=1e-9)
        assert ext["k_db"] == pytest.approx(cs.lsp["k_db"][0], abs=1e-9)


def test_build_drop_roundtrip_asa_capped():
    p = load_params("umi", "los", "measured")
    for seed in range(5):
        cs = build_drop(p, np.random.default_rng(seed))
        ext = _drop_stats(cs)
        (w,) = cs.los_weight
        cap = np.degrees(np.sqrt(max(1.0 - (2 * w - 1.0) ** 2, 0.0)))
        want = min(cs.lsp["asa_deg"][0], cap)
        assert ext["asa_deg"] == pytest.approx(want, rel=0.02)


def test_build_drop_nlos_has_no_direct():
    p = load_params("office", "nlos", "measured")
    cs = build_drop(p, np.random.default_rng(3))
    assert cs.los_weight.tolist() == [0.0]
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
    clusters.match_planes(cs, *_PLANES)
    for a in (cs.angles["aoa_deg"], cs.angles["aod_deg"]):
        assert np.all(a >= -180.0) and np.all(a < 180.0)
    for z in (cs.angles["zoa_deg"], cs.angles["zod_deg"]):
        assert np.all((z >= 0.0) & (z <= 180.0))


def test_mpc_arrays_layout():
    p = load_params("umi", "los", "measured")
    cs = build_drop(p, np.random.default_rng(2))
    assert cs.columns("delay_s")["delay_s"].shape == (1, cs.n_clusters
                                                      * cs.n_rays + 1)
    cols = _one(cs)
    assert cols["power"].sum() == pytest.approx(1.0, abs=1e-12)
    # direct tap leads: zero excess delay, cluster label 0
    assert cols["delay_s"][0] == 0.0
    assert cols["cluster"][0] == 0
    assert cols["power"][0] == pytest.approx(cs.los_weight[0])
    assert np.max(cols["cluster"]) == cs.n_clusters


@pytest.mark.parametrize("condition", ["los", "nlos"])
def test_mpc_arrays_phase_column(condition):
    # the direct path's carrier phase leads exactly when the drop has one,
    # then the drawn ray phases in component order
    p = load_params("umi", condition, "measured")
    cs = build_drop(p, np.random.default_rng(5))
    phase = _one(cs, "phase")["phase"]
    want = cs.phases.ravel()
    (w,), (d3,) = cs.los_weight, cs.geometry.d3_m
    if w > 0:
        carrier = -2.0 * np.pi * d3 / p.wavelength_m
        want = np.concatenate([[carrier], want])
    assert (w > 0) == (condition == "los")
    assert np.array_equal(phase, want)


_PLANES = ["aoa_deg", "aod_deg", "zoa_deg", "zod_deg"]
_COLUMNS = ["cluster", "ray", "delay_s", "power", "phase", "aoa_deg",
            "zoa_deg", "aod_deg", "zod_deg"]


@pytest.mark.parametrize("scenario,condition,source", _SETS)
def test_planes_read_in_any_order_are_the_same_bits(scenario, condition,
                                                    source):
    """Only match_planes matches a plane: none is when build_drop returns,
    the planes get the same bits matched together or one at a time in
    either order, a plane is matched once, and no random number is
    drawn by the matches."""
    p = load_params(scenario, condition, source)
    for ss in np.random.SeedSequence(7).spawn(3):
        ahead = build_drop(p, np.random.default_rng(ss))
        rng = np.random.default_rng(ss)
        back = build_drop(p, rng)
        state = rng.bit_generator.state
        assert ahead.angles == {} and back.angles == {}
        clusters.match_planes(ahead, *_PLANES)
        for k in reversed(_PLANES):
            clusters.match_planes(back, k)
        got = dict(back.angles)
        clusters.match_planes(back, *_PLANES)
        for k in _PLANES:
            assert ahead.angles[k].tobytes() == got[k].tobytes()
            assert back.angles[k] is got[k]
        assert rng.bit_generator.state == state


@pytest.mark.parametrize("condition", ["los", "nlos"])
def test_columns_are_built_once_and_handed_out_read_only(condition):
    drops = build_drop(load_params("umi", condition, "measured"),
                       [np.random.default_rng(s) for s in (4, 5, 6)])
    # the columns named, in call order, matching only the planes named
    assert list(drops.columns("power", "delay_s")) == ["power", "delay_s"]
    assert drops.angles == {}
    drops.columns("delay_s", "power", "aoa_deg")
    assert list(drops.angles) == ["aoa_deg"]
    cols = drops.columns()
    assert list(cols) == _COLUMNS
    assert sorted(drops.angles) == sorted(_PLANES)
    # each column is the record's, built once: a second call, and each
    # row, hand out the same memory, and no reader can write into it
    again = drops.columns()
    for k in _COLUMNS:
        assert again[k] is cols[k] and not cols[k].flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cols[k][...] = 7
    for i, row in enumerate(drops):
        for k, col in row.columns().items():
            assert np.shares_memory(col, cols[k]) and np.array_equal(col[0], cols[k][i])
    # a row of a record whose table is empty builds its own, to the same bits
    fresh = build_drop(load_params("umi", condition, "measured"),
                       [np.random.default_rng(s) for s in (4, 5, 6)])
    for i, row in enumerate(fresh):
        for k, col in row.columns().items():
            assert col.tobytes() == cols[k][i:i + 1].tobytes()
    with pytest.raises(KeyError):
        drops.columns("delay_s", "id")


def test_extract_matches_reference_estimators():
    p = load_params("office", "los", "measured")
    cs = build_drop(p, np.random.default_rng(21))
    cols = _one(cs)
    ext = _drop_stats(cs)
    assert ext["ds_s"] == pytest.approx(
        rms_ds(cols["delay_s"], cols["power"]), rel=1e-12)
    assert ext["asa_deg"] == pytest.approx(
        asa(cols["aoa_deg"], cols["power"]), rel=1e-12)
    assert ext["k_db"] == pytest.approx(k_factor(cols["power"]), abs=1e-9)
