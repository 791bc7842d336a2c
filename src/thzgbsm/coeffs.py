"""Antenna arrays, ray coefficients and channel impulse/transfer functions.

Drops become MIMO channel matrices here. Arrays are made of
single-polarized (vertical) isotropic elements, so every ray, the direct
path included, contributes one complex amplitude times array steering
phases at both ends; ``assemble_cir`` evaluates that one kernel for all
rows of a drop's component table (``ClusterSet.mpc_arrays``) at once,
reading power, phase, delay and angles from it and wavelength and
intra-cluster delay spread from the drop. Rays sum within a tap; taps are
either one per cluster ("thz-simplified", suited to sparse THz clusters
whose intra-cluster delay spread is far below typical sounding
resolution) or the standard form where the two strongest clusters split
into three sub-taps with fixed ray groups and delay offsets.

A tap's sum over its components is contracted along the transmit
array's axes (TR 38.901 section 7.5 step 11 sums per tap; a URA's
response is the Kronecker product of its axes' responses). The steering
phase is a product of one factor per axis, so the (rx, tx) matrix of a
tap is one matmul: rows are the receive steering times the component's
amplitude and the factors of the transmit array's two narrower axes,
over the coordinate pairs that occur; columns are the factors of its
widest axis. A gather that each ``AntennaArray`` builds once puts the
elements in order. The (n_tx, components) steering matrix is never
built, and every geometry (URA, line, single element, scattered 3-D
positions) goes through this one path, no special case per shape.

Conventions: zenith is measured from +z, azimuth from +x in the x-y
plane; arrival angles point from the receiver toward the source of the
wave, departure angles from the transmitter toward the scatterer. A
scattered ray carries its random phase, the direct path the carrier
phase -2 pi d3/lambda of the 3D distance (its phase-column entry).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clusters import ClusterSet
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
    """Positions (meters) of vertically polarized isotropic elements.

    The positions are a read-only copy, so the tables built from them at
    construction cannot go stale: per axis, the distinct element
    coordinates and each element's index into them (``_axes``), and the
    plan of ``assemble_cir``'s tap contraction (``_contraction``).
    """
    positions_m: np.ndarray

    def __post_init__(self):
        pos = np.array(self.positions_m, dtype=float, ndmin=2)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions_m must be (n, 3)")
        if pos.shape[0] == 0:
            raise ValueError("positions_m must hold at least one element")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions_m must be finite")
        pos.flags.writeable = False
        axes = [np.unique(pos[:, a], return_inverse=True) for a in range(3)]
        # the axis with the most distinct coordinates, w, against the
        # (a, b) coordinate pairs that occur on the other two: element e
        # is entry pair[e] * n_w + index_w[e] of a tap's (pair, w) product
        sizes = [coords.size for coords, _ in axes]
        w = int(np.argmax(sizes))
        a, b = (x for x in range(3) if x != w)
        keys, pair = np.unique(axes[a][1] * sizes[b] + axes[b][1],
                               return_inverse=True)
        element = pair * sizes[w] + axes[w][1]
        object.__setattr__(self, "positions_m", pos)
        object.__setattr__(self, "_axes", axes)
        object.__setattr__(self, "_contraction", (
            w, (a, keys // sizes[b]), (b, keys % sizes[b]), element))

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
    if not (np.isfinite(spacing_m) and spacing_m > 0):
        raise ValueError("spacing_m must be positive and finite")
    ys = (np.arange(n_cols) - (n_cols - 1) / 2.0) * spacing_m
    zs = (np.arange(n_rows) - (n_rows - 1) / 2.0) * spacing_m
    zz, yy = np.meshgrid(zs, ys, indexing="ij")
    pos = np.column_stack([np.zeros(zz.size), yy.ravel(), zz.ravel()])
    return AntennaArray(pos)


# ---------------------------------------------------------------------------
# ray coefficients


def _axis_phasors(array: AntennaArray, u, wavelength_m: float) -> list:
    """exp(j 2 pi c u_axis/lambda) over each axis's distinct element
    coordinates c: one (n_coords, ...) table per axis; u (..., 3)."""
    k = 2j * np.pi / wavelength_m
    return [np.exp(k * np.multiply.outer(coords, u[..., axis]))
            for axis, (coords, _) in enumerate(array._axes)]


def _steering(array: AntennaArray, unit_vec, wavelength_m: float):
    """exp(+j 2 pi <p, r>/lambda) per element, shape (n_elements, ...);
    unit_vec (..., 3).

    The exponent is a sum over the x, y and z axes, so the phasor is the
    product of one factor per axis, exp(j 2 pi p_axis r_axis/lambda);
    the identity exp(a + b + c) = exp(a) exp(b) exp(c) makes this exact
    in exact arithmetic, and in floating point it differs from the
    direct form by a few ulps. Each axis exponentiates only its distinct
    element coordinates (``_axis_phasors``) and gathers them back per
    element, so a 16x16 y-z array takes 1 + 16 + 16 exponentials per
    direction instead of 256. A coordinate of 0 gives a factor of
    exactly 1, so a single antenna at the origin steers by exactly 1.
    ``assemble_cir`` uses this on the receive side only; the transmit
    side keeps the per-axis tables and contracts them per tap.
    """
    u = np.asarray(unit_vec)
    steer = 1.0
    for (_, inv), table in zip(array._axes, _axis_phasors(array, u, wavelength_m)):
        steer = steer * table[inv]
    return steer


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


def assemble_cir(cs: ClusterSet, rx_array: AntennaArray, tx_array: AntennaArray,
                 *, mode: str = "thz-simplified") -> ChannelRealization:
    """Tapped channel realization from one drop.

    Every component of ``cs.mpc_arrays``, the direct path included,
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
    cols = cs.mpc_arrays
    cluster, ray = cols["cluster"], cols["ray"]
    sub = np.zeros(cluster.size, dtype=int)   # sub-tap of each component
    if mode == "standard" and cs.n_clusters >= 2:
        split = np.isin(cluster, 1 + np.argsort(cs.powers)[::-1][:2])
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
    stop = np.append(start[1:], tap.size)
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
    w, (a, coord_a), (b, coord_b), element = tx_array._contraction
    f = _axis_phasors(tx_array, spherical_unit(zod, aod), lam)
    # rows (rx element, a-b coordinate pair), columns the w axis's coordinates
    left = (a_rx[:, None] * (f[a][coord_a] * f[b][coord_b])).reshape(-1, tap.size)
    right = f[w]
    taps = np.empty((start.size, left.shape[0], right.shape[0]), dtype=complex)
    for k, (i, j) in enumerate(zip(start, stop)):
        np.matmul(left[:, i:j], right[:, i:j].T, out=taps[k])
    # mode "clip" writes straight into out; "raise" would buffer a copy
    np.take(taps.reshape(start.size, n_rx, -1), element, axis=2, out=amps,
            mode="clip")
    return ChannelRealization(delays_s=delays, amps=amps)


def cir_to_ctf(cr: ChannelRealization, freqs_hz) -> np.ndarray:
    """Sampled transfer function, shape (freq, rx, tx).

    Plain discrete sum over taps: H(f) = sum_k a_k exp(-j 2 pi f tau_k).
    Frequencies are offsets from the carrier the drop was generated at.
    """
    f = np.atleast_1d(np.asarray(freqs_hz, dtype=float))
    rot = np.exp(-2j * np.pi * np.outer(f, cr.delays_s))     # (F, T)
    return np.tensordot(rot, cr.amps, axes=([1], [0]))
