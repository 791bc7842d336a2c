"""End-to-end acceptance checks, one test per criterion.

Each test prints a single summary line (visible with -s; the -v test
listing carries the same pass/fail per criterion) and keeps its runtime
inside the stated budget.
"""
import time

import numpy as np
import pytest

from thzgbsm.analysis import (
    KPowerMeans, asa, extract_drop_stats, k_factor, kpower_means,
    lsp_cross_corr, mcd_embedding, rms_ds)
from thzgbsm.capacity import (
    capacity_from_eigs, crossover_snr, gram_eigs, run_capacity_experiment)
from thzgbsm.cli import main
from thzgbsm.clusters import build_drop, place_user
from thzgbsm.lsp import draw_lsp_iid, generate_lsp
from thzgbsm.params import load_params, nearest_psd
from thzgbsm.pathloss import fspl_db, umi_nlos_3gpp_pl_db

from oracles import mimo_capacity_det

MEASURED_SETS = [("office", "los"), ("office", "nlos"),
                 ("umi", "los"), ("umi", "nlos")]


def _line(n, desc, detail=""):
    print(f"criterion {n} ({desc}): PASS {detail}".rstrip())


def test_criterion_1_formula_suite():
    t0 = time.perf_counter()
    assert fspl_db(100.0, 1.0) == pytest.approx(72.45, abs=0.01)
    assert fspl_db(132.0, 1.0) == pytest.approx(74.86, abs=0.01)
    assert umi_nlos_3gpp_pl_db(100.0) == pytest.approx(138.57, abs=0.01)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _line(1, "deterministic formula suite", f"[{elapsed:.3f} s]")


def test_criterion_2_lsp_statistical_roundtrip():
    t0 = time.perf_counter()
    n = 10_000
    for i, (scenario, condition) in enumerate(MEASURED_SETS):
        p = load_params(scenario, condition, "measured")
        out = draw_lsp_iid(p, n, np.random.default_rng(100 + i))
        lgds = np.log10(out["ds_s"])
        lgasa = np.log10(out["asa_deg"])

        assert np.mean(lgds) == pytest.approx(p.ds_log10s.mu, abs=0.03), p.label()
        assert np.std(lgds) == pytest.approx(p.ds_log10s.sigma, abs=0.03), p.label()
        assert np.mean(lgasa) == pytest.approx(p.asa_log10deg.mu, abs=0.03), p.label()
        assert np.std(lgasa) == pytest.approx(p.asa_log10deg.sigma, abs=0.03), p.label()

        names, emp = lsp_cross_corr(out["ds_s"], out["asa_deg"], out["sf_db"],
                                    out.get("k_db"))
        target = nearest_psd(p.xcorr_matrix())
        for a in range(len(names)):
            for b in range(a + 1, len(names)):
                pair = f"{p.label()}:{names[a]}_{names[b]}"
                assert emp[a, b] == pytest.approx(target[a, b], abs=0.05), pair
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _line(2, "LSP marginals and cross-correlations", f"[{elapsed:.1f} s]")


def test_criterion_3_sf_spatial_autocorrelation():
    cases = [("office", "los", 123), ("umi", "nlos", 321)]
    details = []
    for scenario, condition, seed in cases:
        p = load_params(scenario, condition, "measured")
        d_corr = p.corr_dist_m["sf"]
        step = d_corr / 2.0
        n = 3000
        x = np.arange(n) * step
        y = np.zeros(n)
        out = generate_lsp(p, x, y, np.random.default_rng(seed))
        sf = out["sf_db"]
        v = (sf - sf.mean()) / sf.std()
        rho = float(np.mean(v[:-2] * v[2:]))   # lag of two steps = d_corr
        assert rho == pytest.approx(np.exp(-1.0), abs=0.1), (scenario, condition)
        details.append(f"{scenario}_{condition}: rho(d_corr)={rho:.3f}")
    _line(3, "SF autocorrelation at the correlation distance",
          "[" + "; ".join(details) + "]")


def test_criterion_4_channel_level_roundtrip():
    t0 = time.perf_counter()
    n_drops = 500
    for scenario, condition in MEASURED_SETS:
        p = load_params(scenario, condition, "measured")
        drawn, ext = [], []
        for ss in np.random.SeedSequence(0).spawn(n_drops):
            cs = build_drop(p, np.random.default_rng(ss))
            c = cs.mpc_arrays()
            drawn.append(cs.lsp)
            ext.append(extract_drop_stats(c["delay_s"], c["power"],
                                          c["aoa_deg"]))

        def delta(key, f):
            return (np.median(f([e[key] for e in ext]))
                    - np.median(f([d[key] for d in drawn])))
        d_ds, d_asa = delta("ds_s", np.log10), delta("asa_deg", np.log10)
        assert abs(d_ds) <= 0.15, f"{p.label()}: DS median delta {d_ds:+.4f}"
        assert abs(d_asa) <= 0.15, f"{p.label()}: ASA median delta {d_asa:+.4f}"
        if p.has_k:
            d_k = delta("k_db", np.asarray)
            assert abs(d_k) <= 3.0, f"{p.label()}: K median delta {d_k:+.2f} dB"

    # forced K sweep: extraction must track the input strictly
    p = load_params("umi", "los", "measured")
    medians = []
    for k_db in (0.0, 10.0, 20.0):
        ext = []
        for i in range(100):
            # build_drop's own draw order, with K replaced
            rng = np.random.default_rng(5000 + i)
            geom = place_user(p, rng)
            lsp = {k: float(v[0]) for k, v in draw_lsp_iid(p, 1, rng).items()}
            lsp["k_db"] = k_db
            c = build_drop(p, rng, geometry=geom, lsp_vals=lsp).mpc_arrays()
            ext.append(extract_drop_stats(c["delay_s"], c["power"])["k_db"])
        medians.append(float(np.median(ext)))
    assert medians[0] < medians[1] < medians[2], medians

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _line(4, "channel-level statistical roundtrip", f"[{elapsed:.1f} s]")


def _capacity_curves():
    # NLoS drops: the simplified tapped model the capacity study builds on
    snr = np.arange(0.0, 35.1, 5.0)
    curves = {}
    for scenario in ("office", "umi"):
        for source in ("measured", "3gpp"):
            p = load_params(scenario, "nlos", source)
            curves[(scenario, source)] = run_capacity_experiment(
                p, snr_db=snr, n_drops=100, seed=0).mean(axis=0)
    return snr, curves


@pytest.fixture(scope="module")
def capacity_curves():
    t0 = time.perf_counter()
    snr, curves = _capacity_curves()
    return snr, curves, time.perf_counter() - t0


def test_criterion_5a_capacity_default_overestimates(capacity_curves):
    """Default-parameter curves must sit >= 5 bps/Hz above the measured
    ones at 30 dB in both scenarios.

    The street-canyon gap reproduces (about +10.4 bps/Hz, on top of the
    published value). The indoor gap cannot reach 5 under this protocol:
    the indoor measured and default azimuth-spread statistics nearly
    coincide (41.7 vs 43.7 degrees NLoS), so both parameterizations
    decorrelate the 4-element receiver about equally and the remaining
    cluster-count effect is worth roughly +2.5 bps/Hz. The check is kept
    as stated and the indoor leg is expected to fail."""
    snr, curves, took = capacity_curves
    gaps = {}
    for scenario in ("umi", "office"):
        gap = float(np.interp(30.0, snr,
                              curves[(scenario, "3gpp")]
                              - curves[(scenario, "measured")]))
        gaps[scenario] = gap
        status = "PASS" if gap >= 5.0 else "FAIL"
        print(f"criterion 5a (default-parameter capacity overestimation, "
              f"{scenario} leg): {status} [+{gap:.2f} bps/Hz at 30 dB]")
    assert took < 600.0
    for scenario in ("umi", "office"):
        assert gaps[scenario] >= 5.0, (
            f"{scenario}: 3gpp-measured gap at 30 dB = {gaps[scenario]:.2f}")


def test_criterion_5b_measured_curves_crossover(capacity_curves):
    """The indoor-measured and street-canyon-measured capacity curves are
    required to cross between 10 and 35 dB.

    Under equal-power allocation with a per-experiment Frobenius
    normalization both curves share the same low-SNR slope, and the
    flatter eigenvalue profile of the indoor channel keeps it on top at
    every SNR point, so no crossover exists for this protocol. The check
    is kept as specified and is expected to fail."""
    snr, curves, _ = capacity_curves
    x = crossover_snr(snr, curves[("office", "measured")],
                      curves[("umi", "measured")])
    ok = x is not None and 10.0 <= x <= 35.0
    print(f"criterion 5b (measured indoor/street-canyon crossover): "
          f"{'PASS' if ok else 'FAIL'} "
          f"[{'%.1f dB' % x if x is not None else 'none on the grid'}]")
    assert ok, (
        f"no indoor/street crossover on the grid (difference keeps one "
        f"sign); office-umi at 10 dB: "
        f"{curves[('office', 'measured')][2] - curves[('umi', 'measured')][2]:+.2f}, "
        f"at 35 dB: "
        f"{curves[('office', 'measured')][-1] - curves[('umi', 'measured')][-1]:+.2f} bps/Hz")


def test_criterion_6_estimator_oracles():
    assert rms_ds([0.0, 8e-9], [1.0, 1.0]) == pytest.approx(4e-9, rel=1e-12)
    assert asa([123.0], [2.0]) == 0.0
    assert k_factor([2.0, 1.0]) == pytest.approx(3.01, abs=0.005)
    def capacity(h, rho):       # the formula the capacity experiment runs
        return float(capacity_from_eigs(gram_eigs(h), rho, h.shape[1]))

    assert capacity(np.array([[1.0 + 0j]]), 1.0) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        u, s = rng.integers(1, 5), rng.integers(1, 9)
        h = rng.normal(size=(u, s)) + 1j * rng.normal(size=(u, s))
        rho = rng.uniform(0.01, 100.0)
        worst = max(worst, abs(capacity(h, rho) - mimo_capacity_det(h, rho)))
    assert worst < 1e-9
    _line(6, "estimator oracles", f"[det-vs-eig worst {worst:.1e}]")


def test_criterion_7_clustering_recovery():
    centers = [(0.0, -60.0, 85.0), (50e-9, 20.0, 95.0), (150e-9, 110.0, 100.0)]
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        delay, aoa, zoa, power, truth = [], [], [], [], []
        for ci, (t0, a0, z0) in enumerate(centers):
            m = 25
            # separation >= 10x the in-cluster spread in every coordinate
            delay.append(t0 + rng.normal(0.0, 0.5e-9, m))
            aoa.append(a0 + rng.normal(0.0, 2.0, m))
            zoa.append(z0 + rng.normal(0.0, 0.4, m))
            power.append(rng.uniform(0.1, 1.0, m))
            truth.append(np.full(m, ci))
        delay, power, aoa, zoa = map(np.concatenate, (delay, power, aoa, zoa))
        truth = np.concatenate(truth)
        labels = kpower_means(delay, power, aoa, zoa, 3, random_state=trial)
        km = KPowerMeans(n_clusters=3, random_state=trial).fit(
            mcd_embedding(delay, aoa, zoa), power)
        assert np.all(np.diff(km.objective_path_) <= 1e-12), trial
        mapping = {}
        ok = True
        for f, t in zip(labels, truth):
            if mapping.setdefault(f, t) != t:
                ok = False
                break
        ok = ok and len(set(mapping.values())) == 3
        assert ok, f"trial {trial}: planted clusters not recovered"
        hits += 1
    assert hits == 100
    _line(7, "planted cluster recovery", "[100/100 trials]")


def test_criterion_8_cli_determinism(tmp_path):
    cases = [
        (["simulate", "--scenario", "office", "--condition", "los",
          "--drops", "6", "--seed", "7", "--dump-clusters"],
         ("lsp.csv", "drop_stats.csv", "clusters.csv")),
        (["roundtrip", "--scenario", "office", "--condition", "nlos",
          "--drops", "25", "--seed", "7"],
         ("roundtrip_drops.csv",)),
        (["capacity", "--scenario", "umi", "--condition", "los",
          "--source", "measured", "--drops", "4", "--snr", "10,30",
          "--seed", "7"],
         ("capacity.csv", "capacity.svg")),
    ]
    for args, files in cases:
        a = tmp_path / (args[0] + "_a")
        b = tmp_path / (args[0] + "_b")
        ra = main(args + ["--out", str(a)])
        rb = main(args + ["--out", str(b)])
        assert ra == rb
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), \
                f"{args[0]}/{name} differs across reruns"
    _line(8, "CLI rerun determinism", "[simulate/roundtrip/capacity]")
