"""Path loss models and path loss from a calibrated power-delay profile.

The measured sets use the close-in (CI) form referenced to one meter of
free-space loss; the urban-microcell NLoS defaults use a fixed-slope
street-canyon expression. The other direction integrates the power of a
calibrated profile into one loss value.
"""

from __future__ import annotations

import numpy as np

from .constants import SPEED_OF_LIGHT


def fspl_db(f_ghz: float, d_m) -> np.ndarray | float:
    """Free-space path loss 20 log10(4 pi d f / c)."""
    d = np.asarray(d_m, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be positive")
    f_hz = f_ghz * 1e9
    out = 20.0 * np.log10(4.0 * np.pi * d * f_hz / SPEED_OF_LIGHT)
    return float(out) if np.isscalar(d_m) else out


def umi_nlos_3gpp_pl_db(d_m, sf_db=0.0) -> np.ndarray | float:
    """Street-canyon NLoS default at 132 GHz: 67.57 + 35.5 log10(d) + SF."""
    d = np.asarray(d_m, dtype=float)
    if np.any(d < 1.0):
        raise ValueError("street-canyon model holds for distances of at least 1 m")
    out = 67.57 + 35.5 * np.log10(d) + np.asarray(sf_db)
    return float(out) if np.isscalar(d_m) and np.isscalar(sf_db) else out


def pl_from_pdp(powers) -> float:
    """Path gain integration: loss = -10 log10(sum of linear powers) in dB.

    The profile must be calibrated so bin powers are absolute linear
    path gains.
    """
    total = float(np.asarray(powers, dtype=float).sum())
    if total <= 0:
        raise ValueError("profile has no positive power")
    return float(-10.0 * np.log10(total))
