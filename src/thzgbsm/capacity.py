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
from .clusters import build_drop, match_planes, place_user
from .coeffs import AntennaArray, assemble_cir, cir_to_ctf
from .lsp import draw_lsp_iid
from .params import ScenarioParamSet


def gram_eigs(h) -> np.ndarray:
    """Eigenvalues of the Gram matrix of the smaller side of each channel
    in an (..., rx, tx) stack, ascending along the last axis.

    The Grams are formed over blocks of 8 channels, so no temporary is a
    conjugate copy of the whole stack, into one stack that one eigvalsh
    call takes. Each channel's product is the same matmul as over the
    whole stack, and LAPACK takes one matrix at a time, so each
    channel's eigenvalues are those of its Gram alone.
    """
    h = np.asarray(h)
    u, s = h.shape[-2:]
    flat = h.reshape(-1, u, s)
    gram = np.empty((flat.shape[0], min(u, s), min(u, s)), dtype=h.dtype)
    for i in range(0, flat.shape[0], 8):
        b = flat[i:i + 8]
        bh = b.conj().swapaxes(-1, -2)
        np.matmul(*((b, bh) if u <= s else (bh, b)), out=gram[i:i + 8])
    eigs = np.linalg.eigvalsh(gram)
    return eigs.reshape(h.shape[:-2] + eigs.shape[-1:])


def capacity_from_eigs(eigs, rho_linear: float, m_t: int) -> np.ndarray:
    """Capacity per eigenvalue row; eigs has shape (..., n_eigs)."""
    lam = np.clip(np.asarray(eigs, dtype=float), 0.0, None)
    return np.log2(1.0 + rho_linear * lam / m_t).sum(axis=-1)


# ---------------------------------------------------------------------------
# experiments


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
    same seed reproduces the result. Every drop is built first and all
    four angle planes of all of them are matched in one ``match_planes``
    call, the azimuth planes as one stacked search; each drop's channel
    is then taken alone.

    Each drop's component powers sum to 1, so path loss and shadow
    fading are normalized out before any scaling. All drops then share
    one scale factor, which sets the mean squared Frobenius norm over
    drops and tones to rx*tx. What it keeps is the spread of that norm
    across drops that the coherent ray sums at the two arrays produce
    (small-scale fading; a standard deviation of 0.2-2.3 dB across drops
    of the eight sets), which a per-drop normalization would remove.
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
    rx, tx = AntennaArray(2, 2, half), AntennaArray(16, 16, half)
    freqs = np.linspace(-bandwidth_hz / 2.0, bandwidth_hz / 2.0, n_tones)

    drops = [build_drop(params, np.random.default_rng(ss))
             for ss in np.random.SeedSequence(seed).spawn(n_drops)]
    match_planes(drops, "aoa_deg", "aod_deg", "zoa_deg", "zod_deg")
    eigs = np.stack([gram_eigs(cir_to_ctf(assemble_cir(cs, rx, tx, mode=mode),
                                          freqs))
                     for cs in drops])                  # (drops, F, min(U, S))

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
