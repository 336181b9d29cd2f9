"""Transport anchor against a textbook model (the `make bench-transport` gate).

NewReno under random loss follows Mathis et al. (1997): a flow limited by
loss rate ``p`` alone sends about ``MSS·8/RTT·√(3/(2p))`` bit/s.  The
packet engine's other transport gates compare it with frozen copies of
itself, which a shared mistake passes; this one compares it with the
model.

One NewReno flow runs from Quito to Nairobi on the tests' 10 × 10 X1
shell for ``DURATION_S``.  Its links run at 1 Gbit/s with 10 000-packet
queues, so neither a line rate nor a queue limits it, and a
``packet_loss`` fault at rate ``p`` on Quito's uplink drops its data
packets for the whole run.  For each ``p`` the run repeats under
``SEEDS`` fault seeds.  The ratio of goodput to the bound at the flow's
mean measured RTT goes to ``results/transport_mathis.txt``.  The median
over the seeds must lie in ``BAND``, which the measured spread set:
single runs read 0.84-1.15 and the medians 0.90-1.04 (EXPERIMENTS.md
"Transport anchors").  A miss is a finding to record, not a band to
widen.
"""

import math
import statistics

from repro.constellations.builder import Constellation
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.geo.coordinates import GeodeticPosition
from repro.ground.stations import GroundStation
from repro.orbits.shell import Shell
from repro.simulation.simulator import LinkConfig, PacketSimulator
from repro.topology.network import LeoNetwork
from repro.transport.tcp import TcpFlow

from _common import write_result

DURATION_S = 60.0
LOSS_RATES = (0.005, 0.01, 0.02)
SEEDS = (0, 1, 2, 3, 4)
BAND = (0.7, 1.4)
QUITO, NAIROBI = 0, 1


def _network(loss_rate, seed):
    """The X1 shell with Quito and Nairobi, Quito's uplink lossy."""
    shell = Shell(name="X1", num_orbits=10, satellites_per_orbit=10,
                  altitude_m=600_000.0, inclination_deg=53.0)
    stations = [
        GroundStation(gid=QUITO, name="Quito",
                      position=GeodeticPosition(0.0, -78.5, 0.0)),
        GroundStation(gid=NAIROBI, name="Nairobi",
                      position=GeodeticPosition(-1.3, 36.8, 0.0))]
    faults = FaultSchedule(
        [FaultEvent.packet_loss(0.0, DURATION_S, loss_rate, gid=QUITO)],
        seed=seed)
    return LeoNetwork(Constellation([shell]), stations,
                      min_elevation_deg=10.0, faults=faults)


def _mathis_ratio(loss_rate, seed):
    """``(goodput / bound, mean RTT, goodput, timeouts)`` of one run."""
    sim = PacketSimulator(_network(loss_rate, seed), LinkConfig(
        isl_rate_bps=1e9, gsl_rate_bps=1e9,
        isl_queue_packets=10_000, gsl_queue_packets=10_000))
    flow = TcpFlow(QUITO, NAIROBI).install(sim)
    sim.run(DURATION_S)
    _, rtts = flow.rtt_log.as_arrays()
    rtt_s = float(rtts.mean())
    bound = flow.payload_bytes * 8.0 / rtt_s * math.sqrt(1.5 / loss_rate)
    goodput = flow.goodput_bps(DURATION_S)
    return goodput / bound, rtt_s, goodput, flow.timeouts


def test_newreno_goodput_follows_mathis():
    lines = [
        f"# NewReno goodput / Mathis bound MSS*8/RTT*sqrt(3/(2p)): X1 "
        f"Quito -> Nairobi, 1 Gbit/s, {DURATION_S:g} s,",
        f"# uplink packet_loss at rate p, fault seeds {list(SEEDS)}; the "
        f"median must lie in {list(BAND)}",
        "     p  seed  rtt_ms  goodput_mbps  bound_mbps  ratio  timeouts",
    ]
    medians = {}
    for loss_rate in LOSS_RATES:
        ratios = []
        for seed in SEEDS:
            ratio, rtt_s, goodput, timeouts = _mathis_ratio(loss_rate, seed)
            ratios.append(ratio)
            lines.append(
                f"{loss_rate:6.3f} {seed:5d} {rtt_s * 1e3:7.1f} "
                f"{goodput / 1e6:13.3f} {goodput / ratio / 1e6:11.3f} "
                f"{ratio:6.3f} {timeouts:9d}")
        medians[loss_rate] = statistics.median(ratios)
        lines.append(f"{loss_rate:6.3f} median {medians[loss_rate]:.3f} "
                     f"(runs {min(ratios):.3f}-{max(ratios):.3f})")
    write_result("transport_mathis", lines)
    low, high = BAND
    outside = {p: round(m, 3) for p, m in medians.items()
               if not low <= m <= high}
    assert not outside, f"median goodput/bound outside {BAND}: {outside}"
