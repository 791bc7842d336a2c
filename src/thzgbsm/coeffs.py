"""Antenna arrays, ray coefficients and channel impulse/transfer functions.

Drops become MIMO channel matrices here. Arrays are made of
single-polarized (vertical) isotropic elements, so every ray, the direct
path included, contributes one complex amplitude times array steering
phases at both ends; ``assemble_cir`` evaluates that one kernel for all
rows of a drop's component table (``Drops.columns``) at once,
reading power, phase, delay and angles from it and wavelength and
intra-cluster delay spread from the drop. Rays sum within a tap; taps are
either one per cluster ("thz-simplified", suited to sparse THz clusters
whose intra-cluster delay spread is far below typical sounding
resolution) or the standard form where the two strongest clusters split
into three sub-taps with fixed ray groups and delay offsets.

A tap's sum over its components is contracted along the transmit
panel's axes (TR 38.901 section 7.5 step 11 sums per tap; a URA's
response is the Kronecker product of its axes' responses). Every array
is a uniform rectangular panel in the y-z plane, so the steering phase
is a row (z) factor times a column (y) factor, and the (rx, tx) matrix
of a tap is one matmul, stacked over consecutive taps with as many
components, written straight into the result: rows are the receive
steering times the component's amplitude and the transmit row factor,
columns the transmit column factors, and the row-major element order
falls out of the product. The (n_tx, components) steering matrix is
never built.

Conventions: zenith is measured from +z, azimuth from +x in the x-y
plane; arrival angles point from the receiver toward the source of the
wave, departure angles from the transmitter toward the scatterer. A
scattered ray carries its random phase, the direct path the carrier
phase -2 pi d3/lambda of the 3D distance (its phase-column entry).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clusters import Drops
from .constants import spherical_unit

# Sub-tap structure for the standard (split) mode: delay offsets in units
# of the intra-cluster delay spread, and fixed zero-based ray groups.
SUBCLUSTER_DELAY_FACTORS = (0.0, 1.28, 2.56)
SUBCLUSTER_RAY_GROUPS = (
    (0, 1, 2, 3, 4, 5, 6, 7, 18, 19),
    (8, 9, 10, 11, 16, 17),
    (12, 13, 14, 15),
)


# ---------------------------------------------------------------------------
# antennas


@dataclass(frozen=True)
class AntennaArray:
    """Uniform rectangular panel of vertically polarized isotropic
    elements in the y-z plane, centered on the origin.

    Row index moves along z, column index along y, elements ``spacing_m``
    apart; element order is row-major.
    """
    n_rows: int
    n_cols: int
    spacing_m: float

    def __post_init__(self):
        for n in (self.n_rows, self.n_cols):
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
                raise ValueError(f"array dimensions must be integers, got {n!r}")
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("array dimensions must be positive")
        if not (np.isfinite(self.spacing_m) and self.spacing_m > 0):
            raise ValueError("spacing_m must be positive and finite")

    @property
    def n_elements(self) -> int:
        return self.n_rows * self.n_cols

    def _coords(self, n: int) -> np.ndarray:
        return (np.arange(n) - (n - 1) / 2.0) * self.spacing_m


def single_antenna() -> AntennaArray:
    # one element sits at the origin whatever the spacing
    return AntennaArray(1, 1, 1.0)


# ---------------------------------------------------------------------------
# ray coefficients


def _panel_phasors(array: AntennaArray, u, wavelength_m: float):
    """exp(j 2 pi c u_axis/lambda) over the row (z) and the column (y)
    coordinates c: tables (n_rows, ...) and (n_cols, ...); u (..., 3)."""
    k = 2j * np.pi / wavelength_m
    return (np.exp(k * np.multiply.outer(array._coords(array.n_rows), u[..., 2])),
            np.exp(k * np.multiply.outer(array._coords(array.n_cols), u[..., 1])))


def _steering(array: AntennaArray, unit_vec, wavelength_m: float):
    """exp(+j 2 pi <p, r>/lambda) per element, shape (n_elements, ...);
    unit_vec (..., 3).

    Every element has x = 0, so the phasor is the row-major product of
    the row (z) and column (y) tables of ``_panel_phasors``: exact in
    exact arithmetic, a few ulps from the direct form in floating point,
    and 16 + 16 exponentials per direction on a 16x16 panel instead of
    256. A single antenna steers by exactly 1. ``assemble_cir`` uses this
    on the receive side only; the transmit side contracts the two tables
    per tap.
    """
    rows, cols = _panel_phasors(array, np.asarray(unit_vec), wavelength_m)
    return (cols * rows[:, None]).reshape((array.n_elements,) + rows.shape[1:])


# ---------------------------------------------------------------------------
# full-drop assembly


@dataclass
class ChannelRealization:
    """Tapped-delay-line MIMO channel: amps are (tap, rx, tx)."""
    delays_s: np.ndarray
    amps: np.ndarray


def assemble_cir(cs: Drops, rx_array: AntennaArray, tx_array: AntennaArray,
                 *, mode: str = "thz-simplified") -> ChannelRealization:
    """Tapped channel realization from a record of one drop (``drops[i]``).

    Every component of ``cs.columns()``, the direct path included,
    goes through one kernel: the square root of its power times
    exp(j phase) of its phase column times the rx and tx steering phases
    at the drop's wavelength (positive-exponent convention at both ends).
    The direct path, cluster 0 when the drop carries one, has a tap of
    its own at zero excess delay.

    Each component is assigned a tap and a tap sums its components. mode
    "thz-simplified" gives every cluster one tap; mode "standard" splits
    the two strongest clusters into three sub-taps of fixed ray groups at
    delay offsets scaled by the drop's intra-cluster delay spread
    ``cs.c_ds_s``. Drops with fewer than two clusters, or too few rays
    for a sub-group, degrade gracefully to fewer taps. Total tap power is
    identical between the modes. Taps come out in stable delay order,
    the direct tap first among the zero-delay ones.
    """
    if mode not in ("thz-simplified", "standard"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(cs) != 1:
        raise ValueError(f"assemble_cir takes one drop, not {len(cs)}")
    cols = {k: v for k, (v,) in cs.columns().items()}
    cluster, ray = cols["cluster"], cols["ray"]
    sub = np.zeros(cluster.size, dtype=int)   # sub-tap of each component
    if mode == "standard" and cs.n_clusters >= 2:
        split = np.isin(cluster, 1 + np.argsort(cs.powers[0])[::-1][:2])
        for k, group in enumerate(SUBCLUSTER_RAY_GROUPS):
            sub[split & np.isin(ray, group)] = k
    # tap index 3 * cluster + sub-tap: the direct tap sorts first among
    # equal delays
    tap = 3 * cluster + sub
    delay = cols["delay_s"] + np.take(SUBCLUSTER_DELAY_FACTORS, sub) * cs.c_ds_s
    # components sorted by (delay, tap): each tap is one contiguous run
    order = np.lexsort((tap, delay))
    tap, delay = tap[order], delay[order]
    power, phase, zoa, aoa, zod, aod = (cols[k][order] for k in (
        "power", "phase", "zoa_deg", "aoa_deg", "zod_deg", "aod_deg"))
    start = np.flatnonzero(np.concatenate([[True], tap[1:] != tap[:-1]]))
    runs = np.append(start[1:], tap.size) - start
    # the result is allocated before the temporaries, so they sit above it
    # on the heap and, freed, merge into its top: the transfer function's
    # array then reuses that memory instead of the heap growing and being
    # trimmed again on every drop
    delays = delay[start]
    n_rx = rx_array.n_elements
    amps = np.empty((start.size, n_rx, tx_array.n_elements), dtype=complex)

    lam = cs.wavelength_m
    coeff = np.sqrt(power) * np.exp(1j * phase)
    a_rx = coeff * _steering(rx_array, spherical_unit(zoa, aoa), lam)
    rows, cols = _panel_phasors(tx_array, spherical_unit(zod, aod), lam)
    # rows (rx element, tx row), columns the tx columns: row-major in both
    left = (a_rx[:, None] * rows).reshape(n_rx * tx_array.n_rows, tap.size)
    # one stacked matmul of views per run of taps with as many components
    edges = np.flatnonzero(np.concatenate(
        [[True], runs[1:] != runs[:-1], [True]])).tolist()
    for a, b in zip(edges[:-1], edges[1:]):
        i, j, n = start[a], start[b - 1] + runs[a], runs[a]
        np.matmul(left[:, i:j].reshape(-1, b - a, n).transpose(1, 0, 2),
                  cols[:, i:j].reshape(-1, b - a, n).transpose(1, 2, 0),
                  out=amps[a:b].reshape(b - a, -1, tx_array.n_cols))
    return ChannelRealization(delays_s=delays, amps=amps)


def cir_to_ctf(cr: ChannelRealization, freqs_hz) -> np.ndarray:
    """Sampled transfer function, shape (freq, rx, tx).

    Plain discrete sum over taps: H(f) = sum_k a_k exp(-j 2 pi f tau_k).
    Frequencies are offsets from the carrier the drop was generated at.
    """
    f = np.atleast_1d(np.asarray(freqs_hz, dtype=float))
    rot = np.exp(-2j * np.pi * np.outer(f, cr.delays_s))     # (F, T)
    return np.tensordot(rot, cr.amps, axes=([1], [0]))
