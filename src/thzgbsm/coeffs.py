"""Antenna arrays, ray coefficients and channel impulse/transfer functions.

Drops become MIMO channel matrices here. Arrays are made of
single-polarized (vertical) isotropic elements, so every ray, the direct
path included, contributes one complex amplitude times array steering
phases at both ends; ``assemble_cir`` evaluates that one kernel for all
rays of a drop at once. Rays sum within a tap; taps are
either one per cluster ("thz-simplified", suited to sparse THz clusters
whose intra-cluster delay spread is far below typical sounding
resolution) or the standard form where the two strongest clusters split
into three sub-taps with fixed ray groups and delay offsets.

Conventions: zenith is measured from +z, azimuth from +x in the x-y
plane; arrival angles point from the receiver toward the source of the
wave, departure angles from the transmitter toward the scatterer. A
scattered ray carries its random phase, the direct path the carrier
phase of the 3D distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clusters import ClusterSet
from .constants import SPEED_OF_LIGHT, spherical_unit

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


@dataclass
class AntennaArray:
    """Positions (meters) of vertically polarized isotropic elements."""
    positions_m: np.ndarray

    def __post_init__(self):
        self.positions_m = np.atleast_2d(np.asarray(self.positions_m, dtype=float))
        if self.positions_m.shape[1] != 3:
            raise ValueError("positions_m must be (n, 3)")

    @property
    def n_elements(self) -> int:
        return self.positions_m.shape[0]


def single_antenna() -> AntennaArray:
    return AntennaArray(np.zeros((1, 3)))


def ura(n_rows: int, n_cols: int, spacing_m: float) -> AntennaArray:
    """Uniform rectangular array in the y-z plane, centered on the origin.

    Row index moves along z, column index along y; element order is
    row-major.
    """
    if n_rows < 1 or n_cols < 1:
        raise ValueError("array dimensions must be positive")
    ys = (np.arange(n_cols) - (n_cols - 1) / 2.0) * spacing_m
    zs = (np.arange(n_rows) - (n_rows - 1) / 2.0) * spacing_m
    zz, yy = np.meshgrid(zs, ys, indexing="ij")
    pos = np.column_stack([np.zeros(zz.size), yy.ravel(), zz.ravel()])
    return AntennaArray(pos)


# ---------------------------------------------------------------------------
# ray coefficients


def _steering(array: AntennaArray, unit_vec, wavelength_m: float):
    """exp(+j 2 pi <p, r>/lambda) per element; unit_vec (..., 3)."""
    phase = np.tensordot(array.positions_m, np.asarray(unit_vec), axes=([1], [-1]))
    return np.exp(2j * np.pi * phase / wavelength_m)


# ---------------------------------------------------------------------------
# full-drop assembly


@dataclass
class ChannelRealization:
    """Tapped-delay-line MIMO channel: amps are (tap, rx, tx)."""
    delays_s: np.ndarray
    amps: np.ndarray

    @property
    def n_taps(self) -> int:
        return self.delays_s.size

    def total_power(self) -> float:
        """Mean over rx/tx elements of the summed tap power."""
        return float((np.abs(self.amps) ** 2).sum(axis=0).mean())


def assemble_cir(cs: ClusterSet, rx_array: AntennaArray, tx_array: AntennaArray,
                 wavelength_m: float, *, c_ds_s: float,
                 mode: str = "thz-simplified") -> ChannelRealization:
    """Tapped channel realization from one drop.

    Every component of ``cs.mpc_arrays()``, the direct path included,
    goes through one kernel: the square root of its power times a unit
    phasor times the rx and tx steering phases (positive-exponent
    convention at both ends). A scattered ray's phasor is exp(j phase)
    of its drawn phase. The direct path, cluster 0 of the component list
    when the drop carries one, has phasor exp(-j 2 pi d3/lambda) and a
    tap of its own at zero excess delay.

    Each component is assigned a tap and a tap sums its components. mode
    "thz-simplified" gives every cluster one tap; mode "standard" splits
    the two strongest clusters into three sub-taps of fixed ray groups at
    delay offsets scaled by c_ds_s, the intra-cluster delay spread in
    seconds. Drops with fewer than two clusters, or too few rays for a
    sub-group, degrade gracefully to fewer taps. Total tap power is
    identical between the modes. Taps come out in stable delay order,
    the direct tap first among the zero-delay ones.
    """
    if mode not in ("thz-simplified", "standard"):
        raise ValueError(f"unknown mode {mode!r}")
    cols = cs.mpc_arrays()
    n, m = cs.ray_fractions.shape
    sub = np.zeros((n, m), dtype=int)     # sub-tap of each ray in its cluster
    if mode == "standard" and n >= 2:
        strongest = np.argsort(cs.powers)[::-1][:2]
        for k, group in enumerate(SUBCLUSTER_RAY_GROUPS):
            sub[np.ix_(strongest, [r for r in group if r < m])] = k
    # the direct path heads the component list, as cluster 0
    head = np.count_nonzero(cols["cluster"] == 0)
    sub = np.concatenate([np.zeros(head, dtype=int), sub.ravel()])
    carrier = -2.0 * np.pi * cs.geometry.d3_m / wavelength_m
    phase = np.concatenate([np.full(head, carrier), cs.phases.ravel()])
    coeff = np.sqrt(cols["power"]) * np.exp(1j * phase)
    # tap index 3 * cluster + sub-tap: the direct tap sorts first among
    # equal delays
    tap = 3 * cols["cluster"] + sub
    delay = cols["delay_s"] + np.take(SUBCLUSTER_DELAY_FACTORS, sub) * c_ds_s

    zoa, aoa = cols["zoa_deg"], cols["aoa_deg"]
    zod, aod = cols["zod_deg"], cols["aod_deg"]
    a_rx = coeff * _steering(rx_array, spherical_unit(zoa, aoa), wavelength_m)
    a_tx = _steering(tx_array, spherical_unit(zod, aod), wavelength_m)

    # components sorted by (delay, tap): each tap is one contiguous run
    order = np.lexsort((tap, delay))
    tap, a_rx, a_tx = tap[order], a_rx[:, order], a_tx[:, order]
    start = np.flatnonzero(np.concatenate([[True], tap[1:] != tap[:-1]]))
    stop = np.append(start[1:], tap.size)
    amps = np.stack([a_rx[:, i:j] @ a_tx[:, i:j].T for i, j in zip(start, stop)])
    return ChannelRealization(delays_s=delay[order][start], amps=amps)


def cir_to_ctf(cr: ChannelRealization, freqs_hz) -> np.ndarray:
    """Sampled transfer function, shape (freq, rx, tx).

    Plain discrete sum over taps: H(f) = sum_k a_k exp(-j 2 pi f tau_k).
    Frequencies are offsets from the carrier the drop was generated at.
    """
    f = np.atleast_1d(np.asarray(freqs_hz, dtype=float))
    rot = np.exp(-2j * np.pi * np.outer(f, cr.delays_s))     # (F, T)
    return np.tensordot(rot, cr.amps, axes=([1], [0]))
