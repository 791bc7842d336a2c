"""Antenna arrays, ray coefficients and channel impulse/transfer functions.

Drops become MIMO channel matrices here: each ray contributes a dual-
polarized field term (random-phase polarization matrix scaled by the
ray's XPR) and array steering phases at both ends. Rays sum within a
tap; taps are either one per cluster ("thz-simplified", suited to sparse
THz clusters whose intra-cluster delay spread is far below typical
sounding resolution) or the standard form where the two strongest
clusters split into three sub-taps with fixed ray groups and delay
offsets.

Conventions: zenith is measured from +z, azimuth from +x in the x-y
plane; arrival angles point from the receiver toward the source of the
wave, departure angles from the transmitter toward the scatterer. The
direct path uses the identity-like polarization coupling with a sign
flip on the phi component and the carrier phase of the 3D distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clusters import ClusterSet
from .constants import SPEED_OF_LIGHT

# Sub-tap structure for the standard (split) mode: delay offsets in units
# of the intra-cluster delay spread, and fixed zero-based ray groups.
SUBCLUSTER_DELAY_FACTORS = (0.0, 1.28, 2.56)
SUBCLUSTER_RAY_GROUPS = (
    (0, 1, 2, 3, 4, 5, 6, 7, 18, 19),
    (8, 9, 10, 11, 16, 17),
    (12, 13, 14, 15),
)
DEFAULT_C_DS_S = 3.91e-9


def spherical_unit(zenith_deg, azimuth_deg) -> np.ndarray:
    """Unit propagation vector(s); output shape is input shape + (3,)."""
    zen = np.deg2rad(np.asarray(zenith_deg, dtype=float))
    az = np.deg2rad(np.asarray(azimuth_deg, dtype=float))
    sz = np.sin(zen)
    return np.stack([sz * np.cos(az), sz * np.sin(az), np.cos(zen)], axis=-1)


# ---------------------------------------------------------------------------
# antennas


def isotropic_vertical(zenith_deg, azimuth_deg):
    """Unit vertical (theta) polarization response, no directivity."""
    z = np.broadcast_arrays(np.asarray(zenith_deg, dtype=float),
                            np.asarray(azimuth_deg, dtype=float))[0]
    return np.ones_like(z), np.zeros_like(z)


def isotropic_horizontal(zenith_deg, azimuth_deg):
    """Unit horizontal (phi) polarization response, no directivity."""
    z = np.broadcast_arrays(np.asarray(zenith_deg, dtype=float),
                            np.asarray(azimuth_deg, dtype=float))[0]
    return np.zeros_like(z), np.ones_like(z)


@dataclass
class AntennaArray:
    """Element positions (meters) plus a shared polarimetric pattern.

    ``pattern(zenith_deg, azimuth_deg) -> (f_theta, f_phi)`` must accept
    arrays and broadcast.
    """
    positions_m: np.ndarray
    pattern: callable = isotropic_vertical
    name: str = ""

    def __post_init__(self):
        self.positions_m = np.atleast_2d(np.asarray(self.positions_m, dtype=float))
        if self.positions_m.shape[1] != 3:
            raise ValueError("positions_m must be (n, 3)")

    @property
    def n_elements(self) -> int:
        return self.positions_m.shape[0]


def single_antenna(pattern=isotropic_vertical, name="single") -> AntennaArray:
    return AntennaArray(np.zeros((1, 3)), pattern, name)


def ura(n_rows: int, n_cols: int, spacing_m: float,
        pattern=isotropic_vertical, name="") -> AntennaArray:
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
    return AntennaArray(pos, pattern, name or f"ura{n_rows}x{n_cols}")


# ---------------------------------------------------------------------------
# ray coefficients


def _steering(array: AntennaArray, unit_vec, wavelength_m: float):
    """exp(+j 2 pi <p, r>/lambda) per element; unit_vec (..., 3)."""
    phase = np.tensordot(array.positions_m, np.asarray(unit_vec), axes=([1], [-1]))
    return np.exp(2j * np.pi * phase / wavelength_m)


def los_coeff(aoa_deg: float, zoa_deg: float, aod_deg: float, zod_deg: float,
              distance_m: float, rx_array: AntennaArray, tx_array: AntennaArray,
              wavelength_m: float) -> np.ndarray:
    """Unit-power direct-path coefficient matrix, shape (rx, tx).

    Deterministic polarization coupling (theta preserved, phi sign
    flipped) and the carrier phase of the traveled distance.
    """
    f_th_r, f_ph_r = rx_array.pattern(zoa_deg, aoa_deg)
    f_th_t, f_ph_t = tx_array.pattern(zod_deg, aod_deg)
    pol = f_th_r * f_th_t - f_ph_r * f_ph_t
    u_rx = spherical_unit(zoa_deg, aoa_deg)
    u_tx = spherical_unit(zod_deg, aod_deg)
    a_rx = _steering(rx_array, u_rx, wavelength_m)
    a_tx = _steering(tx_array, u_tx, wavelength_m)
    phase = np.exp(-2j * np.pi * distance_m / wavelength_m)
    return pol * phase * np.outer(a_rx, a_tx)


# ---------------------------------------------------------------------------
# full-drop assembly


@dataclass
class ChannelRealization:
    """Tapped-delay-line MIMO channel: amps are (tap, rx, tx)."""
    delays_s: np.ndarray
    amps: np.ndarray
    wavelength_m: float

    @property
    def n_taps(self) -> int:
        return self.delays_s.size

    def total_power(self) -> float:
        """Mean over rx/tx elements of the summed tap power."""
        return float((np.abs(self.amps) ** 2).sum(axis=0).mean())


def _ray_matrix(cs: ClusterSet, rx_array, tx_array, wavelength_m):
    """All ray coefficients at once, shape (N, M, U, S).

    The polarization term couples the theta/phi responses through the
    random-phase matrix with cross terms damped by sqrt(1/xpr); steering
    phases use the positive-exponent convention at both ends.
    """
    ph = cs.phases
    f_th_r, f_ph_r = rx_array.pattern(cs.zoa_deg, cs.aoa_deg)
    f_th_t, f_ph_t = tx_array.pattern(cs.zod_deg, cs.aod_deg)
    inv = np.sqrt(1.0 / cs.xpr)
    pol = (f_th_r * np.exp(1j * ph[..., 0]) * f_th_t
           + f_th_r * inv * np.exp(1j * ph[..., 1]) * f_ph_t
           + f_ph_r * inv * np.exp(1j * ph[..., 2]) * f_th_t
           + f_ph_r * np.exp(1j * ph[..., 3]) * f_ph_t)
    u_rx = spherical_unit(cs.zoa_deg, cs.aoa_deg)     # (N, M, 3)
    u_tx = spherical_unit(cs.zod_deg, cs.aod_deg)
    a_rx = _steering(rx_array, u_rx, wavelength_m)    # (U, N, M)
    a_tx = _steering(tx_array, u_tx, wavelength_m)    # (S, N, M)
    amp = np.sqrt(cs.ray_powers()) * pol              # (N, M)
    return np.einsum("nm,unm,snm->nmus", amp, a_rx, a_tx)


def assemble_cir(cs: ClusterSet, rx_array: AntennaArray, tx_array: AntennaArray,
                 wavelength_m: float, mode: str = "thz-simplified",
                 c_ds_s: float | None = None) -> ChannelRealization:
    """Tapped channel realization from one drop.

    mode "thz-simplified" collapses every cluster to a single tap; mode
    "standard" splits the two strongest clusters into three sub-taps at
    fixed delay offsets scaled by c_ds_s (the canonical 3.91 ns when not
    given). Drops with fewer than two clusters, or too few rays for a
    sub-group, degrade gracefully to fewer taps. Total tap power is
    identical between the modes.

    The direct path, when the drop carries one, is a separate tap at
    zero excess delay with power los_weight.
    """
    if mode not in ("thz-simplified", "standard"):
        raise ValueError(f"unknown mode {mode!r}")
    rays = _ray_matrix(cs, rx_array, tx_array, wavelength_m)
    n, m = cs.ray_powers().shape

    delays = []
    amps = []
    if mode == "thz-simplified" or n < 2:
        split_idx = []
    else:
        split_idx = list(np.argsort(cs.powers)[::-1][:2])
    if c_ds_s is None:
        c_ds_s = DEFAULT_C_DS_S

    for i in range(n):
        if i in split_idx and m > 1:
            for fac, group in zip(SUBCLUSTER_DELAY_FACTORS, SUBCLUSTER_RAY_GROUPS):
                sel = [g for g in group if g < m]
                if not sel:
                    continue
                delays.append(cs.delays_s[i] + fac * c_ds_s)
                amps.append(rays[i, sel].sum(axis=0))
        else:
            delays.append(cs.delays_s[i])
            amps.append(rays[i].sum(axis=0))

    if cs.los_weight > 0:
        g = cs.geometry
        direct = los_coeff(g.aoa_los_deg, g.zoa_los_deg, g.aod_los_deg,
                           g.zod_los_deg, g.d3_m, rx_array, tx_array,
                           wavelength_m)
        delays.insert(0, 0.0)
        amps.insert(0, np.sqrt(cs.los_weight) * direct)

    delays = np.asarray(delays)
    amps = np.stack(amps)
    order = np.argsort(delays, kind="stable")
    return ChannelRealization(delays_s=delays[order], amps=amps[order],
                              wavelength_m=wavelength_m)


def cir_to_ctf(cr: ChannelRealization, freqs_hz) -> np.ndarray:
    """Sampled transfer function, shape (freq, rx, tx).

    Plain discrete sum over taps: H(f) = sum_k a_k exp(-j 2 pi f tau_k).
    Frequencies are offsets from the carrier the drop was generated at.
    """
    f = np.atleast_1d(np.asarray(freqs_hz, dtype=float))
    rot = np.exp(-2j * np.pi * np.outer(f, cr.delays_s))     # (F, T)
    return np.tensordot(rot, cr.amps, axes=([1], [0]))
