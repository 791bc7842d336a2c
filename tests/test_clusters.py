import numpy as np
import pytest
from numpy.testing import assert_allclose

from thzgbsm import clusters
from thzgbsm.analysis import asa, k_factor, rms_ds
from thzgbsm.clusters import (
    apply_in_cluster_k, build_drop, composite_asa, composite_rms_ds,
    extract_drop_stats, gen_delays, gen_powers, gen_xpr_and_phases,
    geometry_for, place_user, rescale_azimuth, rescale_delays,
    rescale_zenith)
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
    fr = apply_in_cluster_k(np.array([1.0]), 4, 0.0)
    assert_allclose(fr[0], [0.25, 0.25, 0.25, 0.25])
    fr1 = apply_in_cluster_k(np.array([1.0]), 1, 25.0)
    assert_allclose(fr1[0], [1.0])
    kappa = 10.0 ** 1.349
    fr3 = apply_in_cluster_k(np.array([0.5, 0.5]), 3, 13.49)
    assert fr3.shape == (2, 3)
    assert fr3[0, 0] == pytest.approx(kappa / (kappa + 2.0))
    assert fr3[0, 1] == pytest.approx(1.0 / (kappa + 2.0))
    assert_allclose(fr3.sum(axis=1), 1.0)


def test_xpr_and_phases_shapes():
    xpr, ph = gen_xpr_and_phases(3, 4, 10.0, 4.0, np.random.default_rng(2))
    assert xpr.shape == (3, 4)
    assert ph.shape == (3, 4, 4)
    assert np.all(xpr > 0)
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
    # ray powers carry the (1 - w) scattered share, as ray_powers() returns
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
    bisections, one spread evaluation at a time. Returns the angles and
    the exit taken."""
    ang = np.asarray(angles_deg, dtype=float)
    dev = wrap_deg(ang - bearing_deg)

    def from_dev(d):
        return wrap_deg(bearing_deg + d)

    def spread_of(d):
        return _scalar_spread(from_dev(d), ray_powers, los_weight, bearing_deg)

    def bisect(f, lo, hi, n=60):
        for _ in range(n):
            mid = 0.5 * (lo + hi)
            if f(mid) < target_asa_deg:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    if spread_of(dev) <= 0:
        return from_dev(dev), "zero"
    scale_spread = lambda s: spread_of(s * dev)
    if scale_spread(1.0) >= target_asa_deg:
        return from_dev(bisect(scale_spread, 0.0, 1.0) * dev), "shrink"
    grid = np.geomspace(1.0, 256.0, 96)
    vals = np.array([scale_spread(s) for s in grid])
    hit = np.nonzero(vals >= target_asa_deg)[0]
    if hit.size:
        i = hit[0]
        return from_dev(bisect(scale_spread, grid[i - 1], grid[i]) * dev), "grow"
    base = wrap_deg(grid[int(np.argmax(vals))] * dev)
    anti = 180.0 * np.where(base >= 0.0, 1.0, -1.0)
    sweep_spread = lambda u: spread_of((1.0 - u) * base + u * anti)
    if sweep_spread(1.0) >= target_asa_deg:
        u = bisect(sweep_spread, 0.0, 1.0)
        return from_dev((1.0 - u) * base + u * anti), "sweep"
    if sweep_spread(1.0) >= vals.max():
        return from_dev(anti), "antipode"
    return from_dev(base), "base"


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
    # three upward crossings inside the grow bracket: a solver that does
    # not bisect lands on another one, about 110 degrees away
    "grow bracket with several crossings": ([-9.0, -10.0, 171.0],
                                            [0.49, 0.49, 0.01], 0.0, -27.0,
                                            57.0, "grow"),
}


@pytest.fixture
def solves(monkeypatch):
    """(bracket start, result) of every clusters._solve call."""
    seen, solve = [], clusters._solve

    def spy(f, lo, hi, target):
        seen.append((lo, solve(f, lo, hi, target)))
        return seen[-1][1]
    monkeypatch.setattr(clusters, "_solve", spy)
    return seen


def _check_against_reference(ang, pw, w, bearing, target, solves):
    """rescale_azimuth takes the reference search's exit, meets the target
    to _SPREAD_RTOL on the bisected exits and stays within 1e-4 degrees of
    the reference's angles. Returns rescale_azimuth's angles and the exit."""
    want, took = _reference_rescale_azimuth(ang, pw, w, bearing, target)
    solves.clear()
    got = rescale_azimuth(ang, pw, w, bearing, target)
    if took in ("zero", "antipode", "base"):
        assert not solves and np.array_equal(got, want)
        return got, took
    # one bisection: of the deviation scale from 0 (shrink) or from a grid
    # point at or above 1 (grow), else of the antipodal sweep
    (lo, x), = solves
    scaled = np.array_equal(got, wrap_deg(bearing + x * wrap_deg(ang - bearing)))
    assert took == ("sweep" if not scaled else "grow" if lo >= 1.0 else "shrink")
    spread = composite_asa(got, pw, w, bearing)
    assert abs(spread - target) <= clusters._SPREAD_RTOL * target
    assert np.abs(wrap_deg(got - want)).max() <= 1e-4
    return got, took


@pytest.mark.parametrize("case", list(_RESCALE_CASES))
def test_rescale_azimuth_equals_scalar_search(case, solves):
    ang, pw, w, bearing, target, exit_ = _RESCALE_CASES[case]
    _, took = _check_against_reference(np.array(ang), np.array(pw), w,
                                       bearing, target, solves)
    assert took == exit_


@pytest.mark.parametrize("scenario,condition,source", [
    (s, c, src) for s in ("office", "umi") for c in ("los", "nlos")
    for src in ("measured", "3gpp")])
def test_build_drop_azimuths_equal_scalar_search(scenario, condition, source,
                                                 solves, monkeypatch):
    p = load_params(scenario, condition, source)
    exits = []

    def checked(*args):
        got, took = _check_against_reference(*args, solves)
        exits.append(took)
        return got
    monkeypatch.setattr(clusters, "rescale_azimuth", checked)
    for s in np.random.SeedSequence(2024).spawn(25):
        build_drop(p, np.random.default_rng(s))
    assert len(exits) == 50


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 301, 381,
                               1000])
def test_stacked_spreads_equal_one_dimensional_calls(n):
    rng = np.random.default_rng(n)
    ang = rng.uniform(-180.0, 180.0, (6, n))
    pw = rng.uniform(0.0, 1.0, n)
    stacked = asa(ang, pw)
    assert stacked.shape == (6,)
    assert all(stacked[i] == asa(ang[i], pw) for i in range(6))
    assert isinstance(asa(ang[0], pw), float)
    cfg = ang.reshape(3, 2, 1, n)           # two leading stack axes
    pw2 = pw.reshape(1, n)
    comp = composite_asa(cfg, pw2, 0.3, 42.0)
    assert comp.shape == (3, 2)
    assert all(comp[i, j] == composite_asa(cfg[i, j], pw2, 0.3, 42.0)
               == _scalar_spread(cfg[i, j], pw2, 0.3, 42.0)
               for i in range(3) for j in range(2))


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
    total = cs.los_weight + cs.ray_powers().sum()
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


def test_build_drop_roundtrip_ds_k_exact():
    p = load_params("office", "los", "measured")
    for seed in range(5):
        cs = build_drop(p, np.random.default_rng(seed))
        ext = extract_drop_stats(cs)
        assert ext["ds_s"] == pytest.approx(cs.lsp["ds_s"], rel=1e-9)
        assert ext["k_db"] == pytest.approx(cs.lsp["k_db"], abs=1e-9)


def test_build_drop_roundtrip_asa_capped():
    p = load_params("umi", "los", "measured")
    for seed in range(5):
        cs = build_drop(p, np.random.default_rng(seed))
        ext = extract_drop_stats(cs)
        w = cs.los_weight
        cap = np.degrees(np.sqrt(max(1.0 - (2 * w - 1.0) ** 2, 0.0)))
        want = min(cs.lsp["asa_deg"], cap)
        assert ext["asa_deg"] == pytest.approx(want, rel=0.02)


def test_build_drop_nlos_has_no_direct():
    p = load_params("office", "nlos", "measured")
    cs = build_drop(p, np.random.default_rng(3))
    assert cs.los_weight == 0.0
    assert "k_db" not in extract_drop_stats(cs)


def _forced_k_drop(params, rng, k_db):
    # the draws build_drop makes itself, in its order, with K replaced
    geom = place_user(params, rng)
    lsp = draw_lsp_iid(params, 1, rng).row(0)
    lsp["k_db"] = k_db
    return build_drop(params, rng, geometry=geom, lsp_vals=lsp)


def test_build_drop_forced_k():
    p = load_params("umi", "los", "measured")
    meds = []
    for k in (0.0, 10.0, 20.0):
        ext = [extract_drop_stats(
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
    cols = cs.mpc_arrays()
    n = cs.n_clusters * cs.n_rays + 1
    assert cols["delay_s"].shape == (n,)
    assert cols["power"].sum() == pytest.approx(1.0, abs=1e-12)
    # direct tap leads: zero excess delay, cluster label 0
    assert cols["delay_s"][0] == 0.0
    assert cols["cluster"][0] == 0
    assert cols["power"][0] == pytest.approx(cs.los_weight)
    assert np.max(cols["cluster"]) == cs.n_clusters


def test_extract_matches_reference_estimators():
    p = load_params("office", "los", "measured")
    cs = build_drop(p, np.random.default_rng(21))
    cols = cs.mpc_arrays()
    ext = extract_drop_stats(cs)
    assert ext["ds_s"] == pytest.approx(
        rms_ds(cols["delay_s"], cols["power"]), rel=1e-12)
    assert ext["asa_deg"] == pytest.approx(
        asa(cols["aoa_deg"], cols["power"]), rel=1e-12)
    assert ext["k_db"] == pytest.approx(k_factor(cols["power"]), abs=1e-9)
