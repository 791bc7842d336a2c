"""MIMO capacity experiments over generated drops.

Equal-power capacity of the sampled wideband channel from a 16x16
transmit to a 2x2 receive array: per drop the transfer function is
evaluated on a tone grid, the per-tone Gram eigenvalues are kept, the
whole experiment is normalized to a mean squared Frobenius norm of
rx*tx elements (so SNR means per-receive-antenna SNR, not a per-drop
gain equalization), and each drop's capacity is averaged over tones per
SNR point; a curve is the mean over drops.

Transmit power splits evenly across transmit elements; no waterfilling
anywhere. Every drop's capacity is checked to be nondecreasing in SNR.
"""

from __future__ import annotations

import numpy as np

# build_drop places the user and draws the LSPs itself; place_user and
# draw_lsp_iid stay importable here only because the bench's tracer wraps
# them in this module (bench/tracing.py)
from .clusters import build_drop, place_user
from .coeffs import assemble_cir, cir_to_ctf, ura
from .lsp import draw_lsp_iid
from .params import ScenarioParamSet


def gram_eigs(h) -> np.ndarray:
    """Eigenvalues of the Gram matrix of the smaller side of each channel
    in an (..., rx, tx) stack, ascending along the last axis."""
    h = np.asarray(h)
    hh = h.conj().swapaxes(-1, -2)
    return np.linalg.eigvalsh(h @ hh if h.shape[-2] <= h.shape[-1] else hh @ h)


def mimo_capacity_det(h, rho_linear: float, m_t: int | None = None) -> float:
    """Capacity log2 det(I + rho/M_t H H^H) in bit/s/Hz: the eigen path's reference."""
    h = np.asarray(h, dtype=complex)
    u, s = h.shape
    if m_t is None:
        m_t = s
    gram = h @ h.conj().T if u <= s else h.conj().T @ h
    sign, logdet = np.linalg.slogdet(np.eye(gram.shape[0]) + rho_linear * gram / m_t)
    return float(logdet / np.log(2.0))


def capacity_from_eigs(eigs, rho_linear: float, m_t: int) -> np.ndarray:
    """Capacity per eigenvalue row; eigs has shape (..., n_eigs)."""
    lam = np.clip(np.asarray(eigs, dtype=float), 0.0, None)
    return np.log2(1.0 + rho_linear * lam / m_t).sum(axis=-1)


# ---------------------------------------------------------------------------
# experiments


def _drop_payload(params, seed_seq, mode, rx, tx, freqs):
    """One drop's per-tone Gram eigenvalues, shape (F, min(U, S))."""
    cs = build_drop(params, np.random.default_rng(seed_seq))
    cr = assemble_cir(cs, rx, tx, mode=mode)
    return gram_eigs(cir_to_ctf(cr, freqs))


def run_capacity_experiment(params: ScenarioParamSet, snr_db,
                            n_drops: int = 100, seed: int = 0,
                            mode: str = "thz-simplified", n_tones: int = 64,
                            bandwidth_hz: float = 1e9) -> np.ndarray:
    """Equal-power capacity of each drop at each SNR point, averaged over
    tones: an (n_drops, n_snr) array, whose mean over axis 0 is the
    experiment's capacity curve.

    The arrays are 16x16 transmit and 2x2 receive half-wavelength
    rectangular arrays of single-polarized (vertical) isotropic elements.
    Per-drop seeds are spawned from one root sequence, so a rerun with the
    same seed reproduces the result. All drops share one scale factor, so
    the scenario's gain spread across drops stays in the result.
    """
    if n_drops < 1:
        raise ValueError("n_drops must be at least 1")
    if n_tones < 1:
        raise ValueError("n_tones must be at least 1")
    if not (np.isfinite(bandwidth_hz) and bandwidth_hz > 0):
        raise ValueError("bandwidth_hz must be positive and finite")
    snr_db = np.atleast_1d(np.asarray(snr_db, dtype=float))
    if snr_db.size == 0:
        raise ValueError("snr_db must contain at least one point")
    if not np.all(np.isfinite(snr_db)):
        raise ValueError("snr_db points must be finite")
    with np.errstate(over="ignore"):
        rho = 10.0 ** (snr_db / 10.0)
    if not np.all(np.isfinite(rho)):
        raise ValueError(f"snr_db point {snr_db[~np.isfinite(rho)][0]:g} dB "
                         "overflows as a linear SNR")
    half = params.wavelength_m / 2.0
    rx, tx = ura(2, 2, half), ura(16, 16, half)
    freqs = np.linspace(-bandwidth_hz / 2.0, bandwidth_hz / 2.0, n_tones)

    seeds = np.random.SeedSequence(seed).spawn(n_drops)
    eigs = np.stack([_drop_payload(params, ss, mode, rx, tx, freqs)
                     for ss in seeds])                  # (drops, F, min(U, S))

    m_t = tx.n_elements
    eigs = eigs * ((m_t * rx.n_elements) / eigs.sum(axis=-1).mean())

    per_drop = np.empty((n_drops, snr_db.size))
    for i, r in enumerate(rho):
        per_drop[:, i] = capacity_from_eigs(eigs, r, m_t).mean(axis=1)

    order = np.argsort(snr_db)
    diffs = np.diff(per_drop[:, order], axis=1)
    if np.any(diffs < -1e-9):
        raise RuntimeError("capacity decreased with SNR on at least one drop; "
                           "numerical failure in the eigenvalue path")

    return per_drop


def gap_at_snr(snr_db, curve_a, curve_b, at_db: float) -> float | None:
    """curve_a - curve_b at at_db, each linearly interpolated along the
    increasing SNR grid; None when at_db lies outside the grid."""
    snr = np.asarray(snr_db, dtype=float)
    if not snr.min() <= at_db <= snr.max():
        return None
    return float(np.interp(at_db, snr, curve_a) - np.interp(at_db, snr, curve_b))


def crossover_snr(snr_db, curve_a, curve_b) -> float | None:
    """First SNR where curve_a - curve_b changes sign, linearly
    interpolated or at the grid point where it is zero; None when it keeps
    one sign on the grid, zeros it only touches included."""
    snr = np.asarray(snr_db, dtype=float)
    d = np.asarray(curve_a, dtype=float) - np.asarray(curve_b, dtype=float)
    nz = np.flatnonzero(d)
    for i, j in zip(nz[:-1], nz[1:]):
        if np.sign(d[i]) != np.sign(d[j]):
            if j > i + 1:               # d is zero from grid point i + 1 on
                return float(snr[i + 1])
            frac = d[i] / (d[i] - d[j])
            return float(snr[i] + frac * (snr[j] - snr[i]))
    return None
