import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from thzgbsm.clusters import ClusterSet, LinkGeometry, build_drop
from thzgbsm.coeffs import (
    SUBCLUSTER_DELAY_FACTORS, SUBCLUSTER_RAY_GROUPS, AntennaArray,
    ChannelRealization, assemble_cir, cir_to_ctf, single_antenna, ura)
from thzgbsm.constants import spherical_unit
from thzgbsm.params import load_params

LAM = 299792458.0 / 100e9


def test_spherical_unit_axes():
    assert_allclose(spherical_unit(0.0, 0.0), [0.0, 0.0, 1.0], atol=1e-12)
    assert_allclose(spherical_unit(90.0, 0.0), [1.0, 0.0, 0.0], atol=1e-12)
    assert_allclose(spherical_unit(90.0, 90.0), [0.0, 1.0, 0.0], atol=1e-12)
    assert_allclose(spherical_unit(180.0, 45.0), [0.0, 0.0, -1.0], atol=1e-12)


def test_spherical_unit_is_unit_norm():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = spherical_unit(rng.uniform(0, 180), rng.uniform(-180, 180))
        assert np.linalg.norm(v) == pytest.approx(1.0)


def test_ura_layout():
    arr = ura(2, 3, 0.5 * LAM)
    assert arr.positions_m.shape == (6, 3)
    # panel lies in the y-z plane
    assert_allclose(arr.positions_m[:, 0], 0.0, atol=1e-15)
    # centered
    assert_allclose(arr.positions_m.mean(axis=0), 0.0, atol=1e-15)
    # nearest-neighbour spacing
    d01 = np.linalg.norm(arr.positions_m[0] - arr.positions_m[1])
    assert d01 == pytest.approx(0.5 * LAM)


def test_single_antenna():
    arr = single_antenna()
    assert arr.positions_m.shape == (1, 3)
    assert_allclose(arr.positions_m, 0.0)


def _hand_drop(power, los_weight, aoa, zoa, aod, zod, phase, d3_m=1.0):
    """One cluster of one ray at 5 ns, plus a direct path of share
    los_weight from azimuth 0 / 180 deg on the horizon, d3_m apart."""
    one = np.ones((1, 1))
    geom = LinkGeometry(d2_m=d3_m, d3_m=d3_m, aoa_los_deg=0.0,
                        aod_los_deg=180.0, zoa_los_deg=90.0, zod_los_deg=90.0)
    return ClusterSet(delays_s=np.array([5e-9]), powers=np.array([power]),
                      los_weight=los_weight, ray_fractions=one,
                      aoa_deg=aoa * one, aod_deg=aod * one, zoa_deg=zoa * one,
                      zod_deg=zod * one, phases=phase * one,
                      geometry=geom, lsp={})


def _direct_tap(d3_m, rx, tx):
    """Direct-path tap of a drop whose power is all in the direct path."""
    cs = _hand_drop(1.0, 1.0, 40.0, 70.0, -20.0, 95.0, 0.3, d3_m=d3_m)
    cr = assemble_cir(cs, rx, tx, LAM, c_ds_s=3.91e-9)
    assert_allclose(cr.delays_s, [0.0, 5e-9])
    assert_allclose(cr.amps[1], 0.0, atol=1e-15)
    return cr.amps[0]


def test_direct_path_phase_oracles():
    rx = single_antenna()
    tx = single_antenna()
    h1 = _direct_tap(LAM, rx, tx)
    assert h1.shape == (1, 1)
    assert h1[0, 0] == pytest.approx(1.0 + 0.0j, abs=1e-12)
    h2 = _direct_tap(LAM / 2, rx, tx)
    assert h2[0, 0] == pytest.approx(-1.0 + 0.0j, abs=1e-12)


def _one_ray(power, aoa, zoa, aod, zod, phase, rx, tx):
    """(rx, tx) coefficients of a one-cluster, one-ray NLoS drop."""
    cs = _hand_drop(power, 0.0, aoa, zoa, aod, zod, phase)
    cr = assemble_cir(cs, rx, tx, LAM, c_ds_s=3.91e-9)
    assert cr.amps.shape == (1, rx.n_elements, tx.n_elements)
    return cr.amps[0]


def test_nlos_ray_coefficient_is_amplitude_times_phase():
    rx = single_antenna()
    tx = single_antenna()
    for power, phase in ((1.0, 0.0), (0.7, 2.1), (0.05, -np.pi), (0.3, -0.4)):
        h = _one_ray(power, 10.0, 90.0, -40.0, 90.0, phase, rx, tx)
        assert h[0, 0] == np.sqrt(power) * np.exp(1j * phase)


def test_nlos_ray_power_is_pattern_independent_of_phase():
    rx = single_antenna()
    tx = single_antenna()
    rng = np.random.default_rng(1)
    for _ in range(10):
        phase = rng.uniform(-np.pi, np.pi)
        h = _one_ray(0.7, 33.0, 80.0, 12.0, 100.0, phase, rx, tx)
        assert abs(h[0, 0]) == pytest.approx(np.sqrt(0.7), rel=1e-9)


def test_steering_reciprocity_transpose():
    """Swapping the two arrays transposes the per-ray matrix."""
    rx = ura(2, 2, 0.5 * LAM)
    tx = ura(1, 3, 0.5 * LAM)
    h_ab = _one_ray(1.0, 25.0, 75.0, -130.0, 95.0, 0.3, rx, tx)
    h_ba = _one_ray(1.0, -130.0, 95.0, 25.0, 75.0, 0.3, tx, rx)
    assert_allclose(h_ba, h_ab.T, atol=1e-12)


def _drop(scenario="office", condition="nlos", seed=0):
    p = load_params(scenario, condition, "measured")
    return p, build_drop(p, np.random.default_rng(seed))


def test_assemble_cir_simplified_tap_count():
    p, cs = _drop("office", "nlos")
    rx = single_antenna()
    tx = single_antenna()
    cr = assemble_cir(cs, rx, tx, p.wavelength_m,
                      c_ds_s=p.clusters.c_ds_ns * 1e-9, mode="thz-simplified")
    assert cr.amps.shape[0] == cs.n_clusters
    assert cr.delays_s.shape == (cs.n_clusters,)
    assert np.all(np.diff(cr.delays_s) >= 0)

    p2, cs2 = _drop("office", "los", seed=4)
    cr2 = assemble_cir(cs2, rx, tx, p2.wavelength_m,
                       c_ds_s=p2.clusters.c_ds_ns * 1e-9, mode="thz-simplified")
    assert cr2.amps.shape[0] == cs2.n_clusters + 1
    assert cr2.delays_s[0] == 0.0


def test_assemble_cir_standard_splits_two_strongest():
    # the canonical 20-ray layout expands the two strongest clusters into
    # three delay taps each
    p = load_params("office", "nlos", "3gpp")
    cs = build_drop(p, np.random.default_rng(0))
    rx = single_antenna()
    tx = single_antenna()
    cr = assemble_cir(cs, rx, tx, p.wavelength_m,
                      c_ds_s=p.clusters.c_ds_ns * 1e-9, mode="standard")
    assert cr.amps.shape[0] == cs.n_clusters + 4
    # sub-taps at tau, tau + 1.28 c and tau + 2.56 c, c the set's 3.91 ns
    top = np.argsort(cs.powers)[-2:]
    tau = cs.delays_s[top]
    expected = np.sort(np.concatenate([cs.delays_s, tau + 1.28 * 3.91e-9,
                                       tau + 2.56 * 3.91e-9]))
    assert_allclose(cr.delays_s, expected, rtol=1e-12, atol=0.0)
    # few-ray drops degrade gracefully instead of emitting empty taps
    pm, csm = _drop("office", "nlos")  # 5 rays per cluster
    crm = assemble_cir(csm, rx, tx, pm.wavelength_m,
                       c_ds_s=pm.clusters.c_ds_ns * 1e-9, mode="standard")
    assert crm.amps.shape[0] == csm.n_clusters


def test_standard_and_simplified_conserve_power():
    for seed in range(4):
        p, cs = _drop("office", "nlos", seed=seed)
        rx = single_antenna()
        tx = single_antenna()
        c_ds = p.clusters.c_ds_ns * 1e-9
        a = assemble_cir(cs, rx, tx, p.wavelength_m, c_ds_s=c_ds,
                         mode="thz-simplified")
        b = assemble_cir(cs, rx, tx, p.wavelength_m, c_ds_s=c_ds, mode="standard")
        assert b.total_power() == pytest.approx(a.total_power(), rel=1e-12)


def test_total_tap_power_unity_exact_with_one_ray_per_cluster():
    # no within-cluster cross terms, so the budget closes exactly
    p = load_params("umi", "los", "measured")
    p1 = dataclasses.replace(p, clusters=dataclasses.replace(p.clusters, rays=1))
    for seed in range(5):
        cs = build_drop(p1, np.random.default_rng(seed))
        cr = assemble_cir(cs, single_antenna(), single_antenna(),
                          p1.wavelength_m, c_ds_s=p1.clusters.c_ds_ns * 1e-9)
        assert cr.total_power() == pytest.approx(1.0, abs=1e-12)


def test_total_tap_power_unity_in_expectation():
    # coherent ray sums fluctuate per drop but average to the unit budget
    p = load_params("umi", "los", "measured")
    vals = []
    for seed in range(150):
        cs = build_drop(p, np.random.default_rng(seed))
        cr = assemble_cir(cs, single_antenna(), single_antenna(),
                          p.wavelength_m, c_ds_s=p.clusters.c_ds_ns * 1e-9)
        vals.append(cr.total_power())
    assert np.mean(vals) == pytest.approx(1.0, abs=0.01)
    assert np.std(vals) < 0.05


def test_assemble_cir_array_shapes():
    p, cs = _drop("office", "los", seed=1)
    rx = ura(2, 2, 0.5 * p.wavelength_m)
    tx = ura(4, 4, 0.5 * p.wavelength_m)
    cr = assemble_cir(cs, rx, tx, p.wavelength_m, c_ds_s=p.clusters.c_ds_ns * 1e-9)
    assert cr.amps.shape == (cs.n_clusters + 1, 4, 16)
    h = cir_to_ctf(cr, np.linspace(-0.5e9, 0.5e9, 8))
    assert h.shape == (8, 4, 16)


def _reference_taps(cs, rx, tx, lam, mode, c_ds):
    """Per-ray loop: each tap sums amp exp(j phase) outer(a_rx, a_tx) over
    its rays; taps in stable delay order."""
    def steer(arr, zen, az):
        return np.exp(2j * np.pi * (arr.positions_m @ spherical_unit(zen, az)) / lam)

    def ray(coeff, zoa, aoa, zod, aod):
        return coeff * np.outer(steer(rx, zoa, aoa), steer(tx, zod, aod))

    taps = []
    if cs.los_weight > 0:
        g = cs.geometry
        coeff = np.sqrt(cs.los_weight) * np.exp(-2j * np.pi * g.d3_m / lam)
        taps.append((0.0, ray(coeff, g.zoa_los_deg, g.aoa_los_deg,
                              g.zod_los_deg, g.aod_los_deg)))
    n, m = cs.ray_fractions.shape
    split = set(np.argsort(cs.powers)[-2:]) if mode == "standard" and n >= 2 else set()
    rp = cs.ray_powers()
    for i in range(n):
        groups = SUBCLUSTER_RAY_GROUPS if i in split else [range(m)]
        for fac, group in zip(SUBCLUSTER_DELAY_FACTORS, groups):
            h = 0.0
            rays = [r for r in group if r < m]
            for r in rays:
                coeff = np.sqrt(rp[i, r]) * np.exp(1j * cs.phases[i, r])
                h = h + ray(coeff, cs.zoa_deg[i, r], cs.aoa_deg[i, r],
                            cs.zod_deg[i, r], cs.aod_deg[i, r])
            if rays:
                taps.append((cs.delays_s[i] + fac * c_ds, h))
    taps.sort(key=lambda t: t[0])
    return np.array([t[0] for t in taps]), np.stack([t[1] for t in taps])


@pytest.mark.parametrize("mode", ["thz-simplified", "standard"])
@pytest.mark.parametrize("condition", ["los", "nlos"])
@pytest.mark.parametrize("source", ["3gpp", "measured"])
def test_assemble_cir_matches_per_ray_reference(source, condition, mode):
    p = load_params("office", condition, source)
    c_ds = p.clusters.c_ds_ns * 1e-9
    lam = p.wavelength_m
    small = ura(2, 2, lam / 2)
    large = ura(4, 4, lam / 2)
    for rx, tx in ((small, large), (large, small)):
        for seed in range(2):
            cs = build_drop(p, np.random.default_rng(seed))
            cr = assemble_cir(cs, rx, tx, lam, c_ds_s=c_ds, mode=mode)
            delays, amps = _reference_taps(cs, rx, tx, lam, mode, c_ds)
            assert_allclose(cr.delays_s, delays, rtol=1e-12, atol=0.0)
            assert cr.amps.shape == amps.shape
            assert_allclose(cr.amps, amps, rtol=0.0,
                            atol=1e-12 * np.abs(amps).max())


def _tap_cr(delays, amp_per_tap):
    t = len(delays)
    amps = np.asarray(amp_per_tap, dtype=complex).reshape(t, 1, 1)
    return ChannelRealization(delays_s=np.asarray(delays, dtype=float),
                              amps=amps)


def test_cir_to_ctf_flat_for_single_zero_tap():
    cr = _tap_cr([0.0], [1.0])
    f = np.linspace(-0.5e9, 0.5e9, 16)
    h = cir_to_ctf(cr, f)
    assert h.shape == (16, 1, 1)
    assert_allclose(h, 1.0, atol=1e-12)


def test_cir_to_ctf_linear_phase_slope():
    tau = 1e-9
    cr = _tap_cr([tau], [1.0])
    f = np.array([0.0, 1e8, 2e8])
    h = cir_to_ctf(cr, f)[:, 0, 0]
    assert_allclose(np.angle(h), -2 * np.pi * f * tau, atol=1e-9)


def test_cir_to_ctf_two_tap_nulls():
    delta = 2e-9
    cr = _tap_cr([0.0, delta], [1.0, 1.0])
    null_freqs = np.array([1.0, 3.0, 5.0]) / (2 * delta)
    h = cir_to_ctf(cr, null_freqs)[:, 0, 0]
    assert_allclose(np.abs(h), 0.0, atol=1e-9)
