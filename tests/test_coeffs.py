import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from thzgbsm.clusters import ClusterSet, LinkGeometry, build_drop
from thzgbsm.coeffs import (
    SUBCLUSTER_DELAY_FACTORS, SUBCLUSTER_RAY_GROUPS, AntennaArray,
    ChannelRealization, _steering, assemble_cir, cir_to_ctf, single_antenna)
from thzgbsm.constants import spherical_unit
from thzgbsm.params import load_params

LAM = 299792458.0 / 100e9


def _positions(arr):
    """(n_elements, 3) element positions of a panel, row-major: centered on
    the origin in the y-z plane, rows along z, columns along y."""
    z, y = ((np.arange(n) - (n - 1) / 2.0) * arr.spacing_m
            for n in (arr.n_rows, arr.n_cols))
    zz, yy = np.meshgrid(z, y, indexing="ij")
    return np.column_stack([np.zeros(zz.size), yy.ravel(), zz.ravel()])


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
    # the layout the steering oracles below take as the panel's
    pos = _positions(AntennaArray(2, 3, 0.5 * LAM))
    assert pos.shape == (6, 3)
    # panel lies in the y-z plane
    assert_allclose(pos[:, 0], 0.0, atol=1e-15)
    # centered
    assert_allclose(pos.mean(axis=0), 0.0, atol=1e-15)
    # nearest-neighbour spacing
    d01 = np.linalg.norm(pos[0] - pos[1])
    assert d01 == pytest.approx(0.5 * LAM)
    # row-major: the column index moves along y, the row index along z
    step = np.diff(pos.reshape(2, 3, 3), axis=1)
    assert_allclose(step, np.broadcast_to([0.0, 0.5 * LAM, 0.0], step.shape))
    step = np.diff(pos.reshape(2, 3, 3), axis=0)
    assert_allclose(step, np.broadcast_to([0.0, 0.0, 0.5 * LAM], step.shape))


def test_single_antenna():
    pos = _positions(single_antenna())
    assert pos.shape == (1, 3)
    assert_allclose(pos, 0.0)


def test_antenna_array_rejects_bad_dimensions_and_spacing():
    for n_rows, n_cols in ((0, 2), (2, 0), (-1, 3), (2.5, 2), (2, 2.0),
                           (True, 2), (2, np.True_), ("2", 2), (None, 2)):
        with pytest.raises(ValueError, match="dimensions"):
            AntennaArray(n_rows, n_cols, 0.5 * LAM)
    # numpy integers are integers
    assert AntennaArray(np.int64(2), np.uint8(3), 0.5 * LAM).n_elements == 6
    for spacing_m in (0.0, -1e-3, np.nan, np.inf):
        with pytest.raises(ValueError, match="spacing_m"):
            AntennaArray(2, 2, spacing_m)


def test_antenna_arrays_compare_by_value():
    assert AntennaArray(2, 2, 1e-3) == AntennaArray(2, 2, 1e-3)
    assert AntennaArray(2, 2, 1e-3) != AntennaArray(2, 2, 2e-3)
    assert AntennaArray(2, 3, 1e-3) != AntennaArray(3, 2, 1e-3)
    assert single_antenna() == single_antenna()


@pytest.mark.parametrize("array", [
    AntennaArray(4, 3, 0.5 * LAM),
    AntennaArray(1, 5, 0.37 * LAM),
    single_antenna(),
    AntennaArray(3, 4, 0.5 * LAM),
], ids=["tall", "line", "single", "ura"])
@pytest.mark.parametrize("shape", [(), (7,), (2, 5)])
def test_steering_matches_direct_phasor(array, shape):
    rng = np.random.default_rng(5)
    u = spherical_unit(rng.uniform(0, 180, shape), rng.uniform(-180, 180, shape))
    assert u.shape == shape + (3,)
    direct = np.exp(2j * np.pi * np.tensordot(_positions(array), u,
                                              axes=([1], [-1])) / LAM)
    got = _steering(array, u, LAM)
    assert got.shape == (array.n_elements,) + shape
    assert_allclose(got, direct, rtol=0.0, atol=1e-12)


def test_single_antenna_steering_is_exactly_one():
    rng = np.random.default_rng(6)
    u = spherical_unit(rng.uniform(0, 180, 50), rng.uniform(-180, 180, 50))
    assert np.array_equal(_steering(single_antenna(), u, LAM), np.ones((1, 50)))


def _hand_drop(power, los_weight, aoa, zoa, aod, zod, phase, d3_m=1.0):
    """One cluster of one ray at 5 ns, plus a direct path of share
    los_weight from azimuth 0 / 180 deg on the horizon, d3_m apart."""
    one = np.ones((1, 1))
    geom = LinkGeometry(d2_m=d3_m, d3_m=d3_m, aoa_los_deg=0.0,
                        aod_los_deg=180.0, zoa_los_deg=90.0, zod_los_deg=90.0)
    return ClusterSet(delays_s=np.array([5e-9]), powers=np.array([power]),
                      los_weight=los_weight,
                      ray_powers=(1.0 - los_weight) * power * one,
                      drawn={}, angles={"aoa_deg": aoa * one, "aod_deg": aod * one,
                                        "zoa_deg": zoa * one, "zod_deg": zod * one},
                      phases=phase * one,
                      geometry=geom, wavelength_m=LAM, c_ds_s=3.91e-9, lsp={})


def _direct_tap(d3_m, rx, tx):
    """Direct-path tap of a drop whose power is all in the direct path."""
    cs = _hand_drop(1.0, 1.0, 40.0, 70.0, -20.0, 95.0, 0.3, d3_m=d3_m)
    cr = assemble_cir(cs, rx, tx)
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
    cr = assemble_cir(cs, rx, tx)
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
    rx = AntennaArray(2, 2, 0.5 * LAM)
    tx = AntennaArray(1, 3, 0.5 * LAM)
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
    cr = assemble_cir(cs, rx, tx, mode="thz-simplified")
    assert cr.amps.shape[0] == cs.n_clusters
    assert cr.delays_s.shape == (cs.n_clusters,)
    assert np.all(np.diff(cr.delays_s) >= 0)

    p2, cs2 = _drop("office", "los", seed=4)
    cr2 = assemble_cir(cs2, rx, tx, mode="thz-simplified")
    assert cr2.amps.shape[0] == cs2.n_clusters + 1
    assert cr2.delays_s[0] == 0.0


def test_assemble_cir_standard_splits_two_strongest():
    # the canonical 20-ray layout expands the two strongest clusters into
    # three delay taps each
    p = load_params("office", "nlos", "3gpp")
    cs = build_drop(p, np.random.default_rng(0))
    rx = single_antenna()
    tx = single_antenna()
    cr = assemble_cir(cs, rx, tx, mode="standard")
    assert cr.amps.shape[0] == cs.n_clusters + 4
    # sub-taps at tau, tau + 1.28 c and tau + 2.56 c, c the set's 3.91 ns
    top = np.argsort(cs.powers)[-2:]
    tau = cs.delays_s[top]
    expected = np.sort(np.concatenate([cs.delays_s, tau + 1.28 * 3.91e-9,
                                       tau + 2.56 * 3.91e-9]))
    assert_allclose(cr.delays_s, expected, rtol=1e-12, atol=0.0)
    # few-ray drops degrade gracefully instead of emitting empty taps
    pm, csm = _drop("office", "nlos")  # 5 rays per cluster
    crm = assemble_cir(csm, rx, tx, mode="standard")
    assert crm.amps.shape[0] == csm.n_clusters


def test_standard_and_simplified_conserve_power():
    for seed in range(4):
        p, cs = _drop("office", "nlos", seed=seed)
        rx = single_antenna()
        tx = single_antenna()
        a = assemble_cir(cs, rx, tx, mode="thz-simplified")
        b = assemble_cir(cs, rx, tx, mode="standard")
        assert np.sum(np.abs(b.amps) ** 2) == pytest.approx(
            np.sum(np.abs(a.amps) ** 2), rel=1e-12)


def test_total_tap_power_unity_exact_with_one_ray_per_cluster():
    # no within-cluster cross terms, so the budget closes exactly
    p = load_params("umi", "los", "measured")
    p1 = dataclasses.replace(p, clusters=dataclasses.replace(p.clusters, rays=1))
    for seed in range(5):
        cs = build_drop(p1, np.random.default_rng(seed))
        cr = assemble_cir(cs, single_antenna(), single_antenna())
        assert np.sum(np.abs(cr.amps) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_total_tap_power_unity_in_expectation():
    # coherent ray sums fluctuate per drop but average to the unit budget
    p = load_params("umi", "los", "measured")
    vals = []
    for seed in range(150):
        cs = build_drop(p, np.random.default_rng(seed))
        cr = assemble_cir(cs, single_antenna(), single_antenna())
        vals.append(np.sum(np.abs(cr.amps) ** 2))
    assert np.mean(vals) == pytest.approx(1.0, abs=0.01)
    assert np.std(vals) < 0.05


def test_assemble_cir_array_shapes():
    p, cs = _drop("office", "los", seed=1)
    rx = AntennaArray(2, 2, 0.5 * p.wavelength_m)
    tx = AntennaArray(4, 4, 0.5 * p.wavelength_m)
    cr = assemble_cir(cs, rx, tx)
    assert cr.amps.shape == (cs.n_clusters + 1, 4, 16)
    h = cir_to_ctf(cr, np.linspace(-0.5e9, 0.5e9, 8))
    assert h.shape == (8, 4, 16)


def _reference_taps(cs, rx, tx, mode):
    """Per-ray loop: each tap sums amp exp(j phase) outer(a_rx, a_tx) over
    its rays; taps in stable delay order."""
    lam, c_ds = cs.wavelength_m, cs.c_ds_s
    def steer(arr, zen, az):
        return np.exp(2j * np.pi * (_positions(arr) @ spherical_unit(zen, az)) / lam)

    def ray(coeff, zoa, aoa, zod, aod):
        return coeff * np.outer(steer(rx, zoa, aoa), steer(tx, zod, aod))

    taps = []
    if cs.los_weight > 0:
        g = cs.geometry
        coeff = np.sqrt(cs.los_weight) * np.exp(-2j * np.pi * g.d3_m / lam)
        taps.append((0.0, ray(coeff, g.zoa_los_deg, g.aoa_los_deg,
                              g.zod_los_deg, g.aod_los_deg)))
    n, m = cs.ray_powers.shape
    split = set(np.argsort(cs.powers)[-2:]) if mode == "standard" and n >= 2 else set()
    rp = cs.ray_powers
    zoa, aoa, zod, aod = (cs.angles[k] for k in ("zoa_deg", "aoa_deg", "zod_deg",
                                                 "aod_deg"))
    for i in range(n):
        groups = SUBCLUSTER_RAY_GROUPS if i in split else [range(m)]
        for fac, group in zip(SUBCLUSTER_DELAY_FACTORS, groups):
            h = 0.0
            rays = [r for r in group if r < m]
            for r in rays:
                coeff = np.sqrt(rp[i, r]) * np.exp(1j * cs.phases[i, r])
                h = h + ray(coeff, zoa[i, r], aoa[i, r], zod[i, r], aod[i, r])
            if rays:
                taps.append((cs.delays_s[i] + fac * c_ds, h))
    taps.sort(key=lambda t: t[0])
    return np.array([t[0] for t in taps]), np.stack([t[1] for t in taps])


def _assert_matches_reference(cs, rx, tx, mode):
    cr = assemble_cir(cs, rx, tx, mode=mode)
    delays, amps = _reference_taps(cs, rx, tx, mode)
    assert_allclose(cr.delays_s, delays, rtol=1e-12, atol=0.0)
    assert cr.amps.shape == amps.shape
    assert_allclose(cr.amps, amps, rtol=0.0, atol=1e-12 * np.abs(amps).max())


@pytest.mark.parametrize("mode", ["thz-simplified", "standard"])
@pytest.mark.parametrize("condition", ["los", "nlos"])
@pytest.mark.parametrize("source", ["3gpp", "measured"])
def test_assemble_cir_matches_per_ray_reference(source, condition, mode):
    p = load_params("office", condition, source)
    small = AntennaArray(2, 2, p.wavelength_m / 2)
    large = AntennaArray(4, 4, p.wavelength_m / 2)
    # a tall panel contracts along its shorter axis, the columns
    tall = AntennaArray(4, 3, p.wavelength_m / 2)
    for rx, tx in ((small, large), (large, small), (small, tall)):
        for seed in range(2):
            cs = build_drop(p, np.random.default_rng(seed))
            _assert_matches_reference(cs, rx, tx, mode)


@pytest.mark.parametrize("mode", ["thz-simplified", "standard"])
@pytest.mark.parametrize("scenario", ["office", "umi"])
def test_assemble_cir_matches_per_ray_reference_at_capacity_geometry(scenario, mode):
    """The capacity experiment's 2x2 receive and 16x16 transmit arrays,
    and the two swapped, on the 3GPP LoS sets' 241-301 components."""
    p = load_params(scenario, "los", "3gpp")
    small = AntennaArray(2, 2, p.wavelength_m / 2)
    panel = AntennaArray(16, 16, p.wavelength_m / 2)
    for rx, tx in ((small, panel), (panel, small)):
        for seed in range(2):
            cs = build_drop(p, np.random.default_rng(seed))
            _assert_matches_reference(cs, rx, tx, mode)


def test_assemble_cir_peak_stays_below_the_transmit_steering_matrix():
    # the (n_tx, components) complex steering matrix the contraction
    # never builds would alone take 16 * n_tx * n_components bytes
    p = load_params("office", "los", "3gpp")
    cs = build_drop(p, np.random.default_rng(0))
    n_components = cs.mpc_arrays()["power"].size
    rx = AntennaArray(2, 2, p.wavelength_m / 2)
    tx = AntennaArray(16, 16, p.wavelength_m / 2)
    tracemalloc.start()
    try:
        assemble_cir(cs, rx, tx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * tx.n_elements * n_components


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
