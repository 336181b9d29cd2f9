"""Packet-simulator device gate: a link device is built when a packet
first needs it, never up front.

Paper §3.1 gives every ISL direction its own device and every node one
shared GSL device; on a mega-constellation most of them never carry a
packet.  Two checks, on every machine:

* **Construction.**  A ``PacketSimulator`` over all five Starlink shells
  (4 409 satellites, 8 818 ISLs) with the 100 city ground stations
  builds no device, and its construction's tracemalloc peak stays within
  ``MAX_PACKET_SIM_BUILD_MB``.  Building all 22 145 devices up front
  peaked at 26.5 MiB; building none peaks at about 1.6 (the position
  tables and the two sorted ISL key arrays).
* **Use.**  After a short K1 x 100 NewReno permutation run (the Fig. 2
  protocol at 1 Mbit/s), every device that exists has sent, dropped or
  still holds a packet: nothing builds a device no packet needed.

``results/packet_devices.txt`` records both, with the built share.
"""

import time
import tracemalloc

from repro import Hypatia, random_permutation_pairs
from repro.constellations.builder import Constellation
from repro.constellations.definitions import STARLINK_SHELLS
from repro.ground.stations import ground_stations_from_cities
from repro.simulation.simulator import LinkConfig, PacketSimulator
from repro.topology.network import LeoNetwork
from repro.transport.tcp import TcpFlow

from _common import write_result

NUM_CITIES = 100
#: Gate on a bare simulator's construction peak over the five Starlink
#: shells (tracemalloc, MiB): ~1.6 with devices built on first use,
#: 26.5 when every device was built in the constructor.
MAX_PACKET_SIM_BUILD_MB = 4.0
#: Simulated seconds of the K1 permutation run.
RUN_S = 0.3


def _links(network):
    """Every device a simulator over ``network`` could build."""
    return 2 * len(network.isl_pairs) + network.num_nodes


def test_devices_are_built_on_first_use():
    starlink = LeoNetwork(
        Constellation(STARLINK_SHELLS.shells),
        ground_stations_from_cities(count=NUM_CITIES),
        min_elevation_deg=STARLINK_SHELLS.min_elevation_deg)
    tracemalloc.start()
    started = time.perf_counter()
    bare = PacketSimulator(starlink)
    build_s = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    peak_mb = peak / 2**20
    bare_devices = sum(1 for _ in bare.iter_devices())

    kuiper = Hypatia.from_shell_name("K1", num_cities=NUM_CITIES).network
    sim = PacketSimulator(kuiper, LinkConfig(isl_rate_bps=1e6,
                                             gsl_rate_bps=1e6))
    for src, dst in random_permutation_pairs(NUM_CITIES, seed=0):
        TcpFlow(src, dst, controller="newreno").install(sim)
    sim.run(RUN_S)
    devices = list(sim.iter_devices())
    idle = [device.name for device in devices
            if not (device.stats.packets_sent or device.stats.packets_dropped
                    or device.stats.packets_dropped_fault
                    or device.queue_length or device.is_busy)]

    write_result("packet_devices", [
        "# PacketSimulator construction, Starlink S1-S5 x "
        f"{NUM_CITIES} cities ({starlink.num_satellites} satellites, "
        f"{_links(starlink)} links)",
        f"devices_built          {bare_devices:10d}",
        f"build_peak_mb          {peak_mb:10.2f}",
        f"max_build_peak_mb      {MAX_PACKET_SIM_BUILD_MB:10.2f}",
        f"build_s                {build_s:10.3f}",
        f"# K1 x {NUM_CITIES} NewReno permutation, {RUN_S} s at 1 Mbit/s",
        f"devices_built          {len(devices):10d}",
        f"links                  {_links(kuiper):10d}",
        f"packets_forwarded      {sim.stats.packets_forwarded:10d}",
        f"devices_without_packet {len(idle):10d}",
    ])

    assert bare_devices == 0, "a bare simulator built devices"
    assert peak_mb <= MAX_PACKET_SIM_BUILD_MB, (
        f"building a bare simulator peaked at {peak_mb:.2f} MiB (gate "
        f"{MAX_PACKET_SIM_BUILD_MB:.1f} MiB): are devices built up front?")
    assert sim.stats.packets_forwarded > 0 and devices
    assert not idle, f"devices no packet needed: {idle[:5]}"
