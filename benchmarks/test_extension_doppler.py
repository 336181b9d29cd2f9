"""Extension bench: Doppler over ISLs (paper §7 future work).

Quantifies the §2.3 geometry: same-orbit +Grid links hold constant
separation (zero Doppler), while cross-orbit links converge toward the
highest latitudes and diverge over the Equator, sweeping km/s of radial
velocity — GHz of optical carrier shift that ISL transceivers must track.
"""

import numpy as np
import pytest

from repro import Hypatia
from repro.analysis.doppler import max_isl_doppler_summary

from _common import write_result

SHELLS = ["K1", "S1"]
SAMPLE_TIMES = [0.0, 500.0, 1000.0, 1500.0, 2000.0]
OPTICAL_CARRIER_HZ = 193.4e12  # 1550 nm


def test_extension_isl_doppler(benchmark):
    holder = {}

    def sweep():
        for shell_name in SHELLS:
            hypatia = Hypatia.from_shell_name(shell_name, num_cities=1)
            constellation = hypatia.constellation
            shell = constellation.shells[0]
            pairs = hypatia.network.isl_pairs
            # Split into intra-orbit and cross-orbit links.
            intra, cross = [], []
            for a, b in pairs:
                if a // shell.satellites_per_orbit == \
                        b // shell.satellites_per_orbit:
                    intra.append((a, b))
                else:
                    cross.append((a, b))
            holder[shell_name] = tuple(
                max_isl_doppler_summary(constellation, np.array(links),
                                        carrier_hz=OPTICAL_CARRIER_HZ,
                                        sample_times_s=SAMPLE_TIMES)
                for links in (intra, cross))
        return len(holder)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = ["# max |radial velocity| over sampled times, by link class",
            f"{'shell':>6} {'intra-orbit (m/s)':>18} "
            f"{'cross-orbit (m/s)':>18} {'optical shift (GHz)':>20}"]
    for shell_name in SHELLS:
        intra, cross = holder[shell_name]
        rows.append(f"{shell_name:>6} "
                    f"{intra['max_radial_speed_m_per_s']:18.2f} "
                    f"{cross['max_radial_speed_m_per_s']:18.2f} "
                    f"{cross['max_doppler_shift_hz'] / 1e9:20.3f}")

    for shell_name in SHELLS:
        intra_max, cross_max = (link_class["max_radial_speed_m_per_s"]
                                for link_class in holder[shell_name])
        assert intra_max < 1.0, "same-orbit links must be Doppler-free"
        assert cross_max > 100.0, "cross-orbit links must oscillate"
    write_result("extension_doppler", rows)
