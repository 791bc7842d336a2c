import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from thzgbsm import capacity
from thzgbsm.capacity import (
    capacity_from_eigs, crossover_snr, gram_eigs, run_capacity_experiment)
from thzgbsm.coeffs import AntennaArray, assemble_cir, cir_to_ctf
from thzgbsm.params import load_params

from oracles import mimo_capacity_det


def _capacity(h, rho):
    """Equal-power capacity of one channel by the experiment's formula."""
    return float(capacity_from_eigs(gram_eigs(h), rho, h.shape[1]))


def test_siso_unit_channel_oracle():
    h = np.array([[1.0 + 0.0j]])
    assert _capacity(h, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert _capacity(h, 3.0) == pytest.approx(2.0, abs=1e-12)


def test_det_and_eig_paths_agree():
    rng = np.random.default_rng(0)
    for _ in range(100):
        u, s = rng.integers(1, 6), rng.integers(1, 6)
        h = rng.normal(size=(u, s)) + 1j * rng.normal(size=(u, s))
        rho = rng.uniform(0.1, 1000.0)
        a = _capacity(h, rho)
        b = mimo_capacity_det(h, rho)
        assert abs(a - b) < 1e-9


def test_capacity_monotone_in_snr():
    rng = np.random.default_rng(1)
    h = rng.normal(size=(4, 16)) + 1j * rng.normal(size=(4, 16))
    caps = [_capacity(h, 10.0 ** (s / 10)) for s in range(0, 36, 5)]
    assert np.all(np.diff(caps) > 0)


def test_capacity_from_eigs_matches_direct():
    rng = np.random.default_rng(2)
    h = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
    eigs = np.linalg.eigvalsh(h @ h.conj().T)
    want = mimo_capacity_det(h, 5.0)
    got = capacity_from_eigs(eigs[None, :], 5.0, m_t=8)
    assert got[0] == pytest.approx(want, rel=1e-12)


# (F, U, S) stacks, one wide and one tall, as the experiment's tones are
@pytest.mark.parametrize(("u", "s"), [(2, 6), (5, 3)])
def test_stacked_gram_eigs_match_det_path(u, s):
    rng = np.random.default_rng(u * 10 + s)
    h = rng.normal(size=(7, u, s)) + 1j * rng.normal(size=(7, u, s))
    eigs = gram_eigs(h)
    assert eigs.shape == (7, min(u, s))
    for rho in (0.1, 3.0, 1000.0):
        got = capacity_from_eigs(eigs, rho, s)
        want = [mimo_capacity_det(hf, rho) for hf in h]
        assert np.max(np.abs(got - want)) < 1e-9


def _tone_stack(n_tones, u, s, seed=0):
    rng = np.random.default_rng(seed)
    shape = (n_tones, u, s)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize(("u", "s"), [(4, 32), (32, 4)])
@pytest.mark.parametrize("n_tones", [1, 7, 13, 64])
def test_gram_eigs_equals_the_unblocked_eigvalsh(n_tones, u, s):
    h = _tone_stack(n_tones, u, s)
    hh = h.conj().swapaxes(-1, -2)
    want = np.linalg.eigvalsh(h @ hh if u <= s else hh @ h)
    assert np.array_equal(gram_eigs(h), want)
    assert np.array_equal(gram_eigs(h[0]), want[0])
    assert np.array_equal(gram_eigs(h.reshape(1, n_tones, u, s)), want[None])


def test_gram_eigs_peak_stays_below_half_the_stack():
    h = _tone_stack(64, 4, 256)
    tracemalloc.start()
    try:
        gram_eigs(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < h.nbytes / 2


def test_experiment_calls_assembly_and_transfer_function_once_per_drop(monkeypatch):
    # the benchmark's traced run wraps both names in this module and
    # counts one Gram eigendecomposition per row cir_to_ctf returns
    p = load_params("office", "los", "measured")
    n_assembled, ctf_rows = [], []

    def count_assembly(*args, **kwargs):
        n_assembled.append(1)
        return assemble_cir(*args, **kwargs)

    def count_rows(*args, **kwargs):
        h = cir_to_ctf(*args, **kwargs)
        ctf_rows.append(h.shape[0])
        return h

    monkeypatch.setattr(capacity, "assemble_cir", count_assembly)
    monkeypatch.setattr(capacity, "cir_to_ctf", count_rows)
    run_capacity_experiment(p, snr_db=[10.0], n_drops=3, n_tones=16)
    assert len(n_assembled) == 3
    assert ctf_rows == [16, 16, 16]


def test_experiment_normalization_frobenius_budget():
    # Mean ||H||_F^2 = m_r * m_t over drops and tones; at low SNR the
    # capacity is linear in it, sum(log2(1 + rho*lam/m_t)) ~ rho*m_r/ln 2,
    # with m_r = 4 receive elements.
    p = load_params("office", "los", "measured")
    e = run_capacity_experiment(p, snr_db=[-50.0], n_drops=4, seed=3)
    rho = 10.0 ** (-50.0 / 10.0)
    assert e.mean(axis=0)[0] == pytest.approx(rho * 4 / np.log(2.0), rel=1e-3)


def test_experiment_reproducible():
    p = load_params("office", "los", "measured")
    kw = dict(snr_db=[0.0, 20.0], n_drops=8, seed=9)
    a = run_capacity_experiment(p, **kw)
    b = run_capacity_experiment(p, **kw)
    assert np.array_equal(a, b)
    assert a.shape == (8, 2)
    # drops genuinely differ from one another
    assert a[:, 1].std() > 0


def test_experiment_curve_monotone():
    p = load_params("umi", "los", "measured")
    e = run_capacity_experiment(p, snr_db=np.arange(0.0, 31.0, 10.0),
                                n_drops=6, seed=0)
    assert np.all(np.diff(e.mean(axis=0)) > 0)


def test_experiment_default_arrays_shape(monkeypatch):
    # every drop runs from a 16x16 to a 2x2 half-wavelength URA
    p = load_params("office", "los", "measured")
    seen = []

    def spy(cs, rx, tx, *args, **kwargs):
        seen.append((rx, tx))
        return assemble_cir(cs, rx, tx, *args, **kwargs)

    monkeypatch.setattr(capacity, "assemble_cir", spy)
    run_capacity_experiment(p, snr_db=[10.0], n_drops=2, seed=1)
    half = p.wavelength_m / 2
    assert len(seen) == 2
    for rx, tx in seen:
        assert rx == AntennaArray(2, 2, half)
        assert tx == AntennaArray(16, 16, half)


def test_more_clusters_raise_high_snr_capacity():
    # richer angular support spreads the Gram eigenvalues, which pays off
    # at high SNR; 15 versus 4 clusters with everything else held fixed
    base = load_params("office", "los", "measured")
    caps = {}
    for n in (4, 15):
        p = dataclasses.replace(
            base, clusters=dataclasses.replace(base.clusters, count=n))
        e = run_capacity_experiment(p, snr_db=[30.0], n_drops=100, seed=0)
        caps[n] = e.mean(axis=0)[0]
    assert caps[15] > caps[4]


def test_experiment_rejects_fewer_than_one_tone():
    p = load_params("office", "los", "measured")
    for n_tones in (0, -1):
        with pytest.raises(ValueError, match="n_tones"):
            run_capacity_experiment(p, snr_db=[10.0], n_drops=2, n_tones=n_tones)


def test_experiment_rejects_fewer_than_one_drop():
    p = load_params("office", "los", "measured")
    for n_drops in (0, -1):
        with pytest.raises(ValueError, match="n_drops"):
            run_capacity_experiment(p, snr_db=[10.0], n_drops=n_drops)


def test_experiment_rejects_non_finite_snr():
    p = load_params("office", "los", "measured")
    for snr_db in ([10.0, np.nan], [np.inf], [-np.inf, 0.0]):
        with pytest.raises(ValueError, match="snr_db"):
            run_capacity_experiment(p, snr_db=snr_db, n_drops=2)
    # finite in dB, but 10 ** (snr_db / 10) overflows above about 3082 dB
    with pytest.raises(ValueError, match="snr_db point 4000 dB"):
        run_capacity_experiment(p, snr_db=[0.0, 1000.0, 4000.0, 5000.0],
                                n_drops=2)


def test_experiment_rejects_bad_bandwidth():
    p = load_params("office", "los", "measured")
    for bandwidth_hz in (0.0, -1e9, np.nan, np.inf):
        with pytest.raises(ValueError, match="bandwidth_hz"):
            run_capacity_experiment(p, snr_db=[10.0], n_drops=2,
                                    bandwidth_hz=bandwidth_hz)


def test_crossover_snr_interpolates():
    snr = np.array([0.0, 10.0, 20.0])
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([0.0, 2.5, 6.0])
    x = crossover_snr(snr, a, b)
    # curves cross between 0 and 10 where a-b goes 1.0 -> -0.5
    assert x == pytest.approx(0.0 + 10.0 * (1.0 / 1.5))


def test_crossover_snr_on_a_grid_point():
    # a - b goes +1, 0, -1: the curves cross exactly at 10 dB
    assert crossover_snr([0, 10, 20], [1, 2, 3], [0, 2, 4]) == 10.0
    assert crossover_snr([0, 10, 20, 30], [1, 2, 3, 0], [0, 2, 3, 1]) == 10.0
    # a zero the difference only touches, +1, 0, +1, is no crossing
    assert crossover_snr([0, 10, 20], [1, 2, 3], [0, 2, 2]) is None


def test_crossover_snr_none_when_ordered():
    snr = np.array([0.0, 10.0])
    assert crossover_snr(snr, np.array([1.0, 2.0]), np.array([2.0, 4.0])) is None
