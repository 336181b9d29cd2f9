"""Doppler analysis of inter-satellite links.

Paper §7: "it would be useful to model the impact of the Doppler effect on
the bandwidth and reliability of ISLs".  The quantity that matters is the
radial (line-of-sight) velocity between linked satellites: the optical
carrier's fractional frequency shift is ``-v_radial / c``, and the rate of
change of link length drives pointing/tracking requirements.

Within one +Grid shell, same-orbit neighbors keep constant separation
(zero Doppler), while cross-orbit neighbors oscillate — they converge near
the highest latitudes and diverge over the Equator (paper §2.3).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..constellations.builder import Constellation
from ..geo.constants import SPEED_OF_LIGHT_M_PER_S

__all__ = ["isl_radial_velocities_m_per_s", "doppler_shift_hz",
           "max_isl_doppler_summary"]

#: Half-width of the central difference (s).
DT_S = 0.1


def isl_radial_velocities_m_per_s(constellation: Constellation,
                                  isl_pairs: np.ndarray,
                                  time_s: float) -> np.ndarray:
    """Rate of change of each ISL's length at ``time_s`` (m/s).

    Positive values mean the endpoints are separating.  Computed by
    central differencing of link lengths over ±:data:`DT_S`, which is
    exact to O(dt^2) and robust for any propagation backend.
    """
    pairs = np.asarray(isl_pairs)
    if pairs.size == 0:
        return np.empty(0)
    before = constellation.positions_ecef_m(time_s - DT_S)
    after = constellation.positions_ecef_m(time_s + DT_S)
    length_before = np.linalg.norm(
        before[pairs[:, 0]] - before[pairs[:, 1]], axis=1)
    length_after = np.linalg.norm(
        after[pairs[:, 0]] - after[pairs[:, 1]], axis=1)
    return (length_after - length_before) / (2.0 * DT_S)


def doppler_shift_hz(carrier_hz: float,
                     radial_velocity_m_per_s: np.ndarray) -> np.ndarray:
    """First-order Doppler shift of a carrier over closing/receding links.

    Receding links (positive radial velocity) shift the received carrier
    down in frequency.
    """
    if carrier_hz <= 0.0:
        raise ValueError("carrier frequency must be positive")
    return -carrier_hz * np.asarray(radial_velocity_m_per_s) \
        / SPEED_OF_LIGHT_M_PER_S


def max_isl_doppler_summary(constellation: Constellation,
                            isl_pairs: np.ndarray,
                            carrier_hz: float = 193.4e12,  # 1550 nm laser
                            sample_times_s: Tuple[float, ...] = (
                                0.0, 300.0, 600.0, 900.0, 1200.0),
                            ) -> Dict[str, float]:
    """Worst-case ISL closing speed and Doppler shift over sample times.

    Defaults to the 1550 nm optical carrier typical of laser ISLs.
    """
    worst_speed = 0.0
    for time_s in sample_times_s:
        velocities = isl_radial_velocities_m_per_s(
            constellation, isl_pairs, float(time_s))
        if velocities.size:
            worst_speed = max(worst_speed, float(np.abs(velocities).max()))
    worst_shift = float(abs(doppler_shift_hz(
        carrier_hz, np.array([worst_speed]))[0]))
    return {
        "max_radial_speed_m_per_s": worst_speed,
        "max_doppler_shift_hz": worst_shift,
        "carrier_hz": carrier_hz,
    }
