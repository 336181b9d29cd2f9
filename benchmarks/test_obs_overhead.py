"""Observability overhead smoke bench (the `make bench-obs` gate).

The tracing hot-path contract (DESIGN.md "Observability"): with the
default :class:`~repro.obs.trace.NullTracer`, every emission site costs
one attribute check — the simulator must not lose more than 10% of its
events/wall-second to disabled instrumentation.

A pre-instrumentation baseline cannot be measured in-process, so the
gate combines two measurements:

1. **Hook-cost bound** (deterministic): ``timeit`` the disabled guard
   (``if tracer.enabled: ...``), multiply by the number of guards an
   event actually evaluates — *counted*, by running the scenario once
   more under a disabled tracer whose ``enabled`` counts its reads — and
   by the measured event rate of a real disabled-tracer run.  That
   product is the fraction of each event's budget the instrumentation
   consumes; it must stay below 10%.
2. **On/off comparison** (informational): the same scenario with a
   :class:`RingBufferTracer` enabled, reported alongside — enabled
   tracing is allowed to cost more, the contract is about the default.
"""

import time
import timeit

from repro.constellations.builder import Constellation
from repro.geo.coordinates import GeodeticPosition
from repro.ground.stations import GroundStation
from repro.obs import NULL_TRACER, NullTracer, RingBufferTracer
from repro.orbits.shell import Shell
from repro.simulation.simulator import LinkConfig, PacketSimulator
from repro.topology.network import LeoNetwork
from repro.transport.tcp import TcpFlow
from repro.transport.udp import UdpFlow

from _common import scaled, write_result

#: The disabled-instrumentation budget: hook cost per event must stay
#: below this fraction of the per-event wall budget.
MAX_OVERHEAD_FRACTION = 0.10

DURATION_S = scaled(2.0, 10.0)
#: Ceiling on counted guards per event: 1.597 at 2 s and 1.591 at the
#: 10 s full scale when the count was introduced, identical before and
#: after the PR 16 fast path.  The per-event paths may drop guard reads,
#: never add them.
MAX_GUARDS_PER_EVENT = 1.6


class _CountingNullTracer(NullTracer):
    """A disabled tracer that counts how often a guard reads ``enabled``
    (every site, in every layer: devices, forwarding, routing, flows)."""

    def __init__(self) -> None:
        self.reads = 0

    @property
    def enabled(self) -> bool:
        self.reads += 1
        return False


def _build_network() -> LeoNetwork:
    shell = Shell(name="X1", num_orbits=10, satellites_per_orbit=10,
                  altitude_m=600_000.0, inclination_deg=53.0)
    sites = [("Quito", 0.0, -78.5), ("Nairobi", -1.3, 36.8),
             ("Singapore", 1.35, 103.8), ("Sydney", -33.9, 151.2)]
    stations = [
        GroundStation(gid=i, name=name,
                      position=GeodeticPosition(lat, lon, 0.0))
        for i, (name, lat, lon) in enumerate(sites)
    ]
    return LeoNetwork(Constellation([shell]), stations,
                      min_elevation_deg=10.0)


def _run_scenario(network: LeoNetwork, tracer=None) -> dict:
    sim = PacketSimulator(
        network,
        LinkConfig(isl_rate_bps=10e6, gsl_rate_bps=10e6),
        tracer=tracer)
    TcpFlow(0, 2).install(sim)
    UdpFlow(1, 3, rate_bps=5e6).install(sim)
    start = time.perf_counter()
    sim.run(DURATION_S)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "events": sim.scheduler.events_processed,
        "events_per_s": sim.scheduler.events_processed / wall,
        "delivered": sim.stats.packets_delivered,
        "guard_reads": getattr(tracer, "reads", 0),
    }


def _disabled_guard_cost_s() -> float:
    """Wall seconds per disabled trace-hook evaluation (best of 5)."""
    tracer = NULL_TRACER
    timer = timeit.Timer(
        "tracer = obj.t\nif tracer.enabled:\n    raise AssertionError",
        globals={"obj": type("Holder", (), {"t": tracer})()})
    number = 100_000
    return min(timer.repeat(repeat=5, number=number)) / number


def test_disabled_tracer_overhead_within_budget():
    network = _build_network()

    disabled = min((_run_scenario(network, tracer=None) for _ in range(3)),
                   key=lambda run: run["wall_s"])
    enabled = _run_scenario(network, tracer=RingBufferTracer())

    counted = _run_scenario(network, tracer=_CountingNullTracer())
    recount = _run_scenario(network, tracer=_CountingNullTracer())
    # A program-made count may carry a claim only if it repeats exactly.
    assert (counted["guard_reads"], counted["events"]) == (
        recount["guard_reads"], recount["events"])
    assert counted["events"] == disabled["events"]
    guards_per_event = counted["guard_reads"] / counted["events"]

    guard_s = _disabled_guard_cost_s()
    per_event_budget_s = 1.0 / disabled["events_per_s"]
    overhead_fraction = guards_per_event * guard_s / per_event_budget_s

    slowdown = (disabled["events_per_s"] - enabled["events_per_s"]) \
        / disabled["events_per_s"]
    write_result("obs_overhead", [
        "# observability overhead smoke (events/wall-second)",
        f"duration_simulated_s      {DURATION_S:10.1f}",
        f"events_per_s_disabled     {disabled['events_per_s']:10.0f}",
        f"events_per_s_enabled      {enabled['events_per_s']:10.0f}",
        f"enabled_slowdown_fraction {slowdown:10.3f}",
        f"guard_cost_ns             {guard_s * 1e9:10.1f}",
        f"guard_reads               {counted['guard_reads']:10d}",
        f"events                    {counted['events']:10d}",
        f"guards_per_event          {guards_per_event:10.3f}",
        f"disabled_overhead_frac    {overhead_fraction:10.4f}",
        f"budget                    {MAX_OVERHEAD_FRACTION:10.2f}",
    ])

    assert disabled["delivered"] > 0 and enabled["delivered"] > 0
    assert guards_per_event <= MAX_GUARDS_PER_EVENT, (
        f"{guards_per_event:.3f} disabled-tracer guards per event, was "
        f"{MAX_GUARDS_PER_EVENT}: the packet path gained a guard read")
    # The contract: disabled instrumentation consumes < 10% of the
    # per-event budget.
    assert overhead_fraction < MAX_OVERHEAD_FRACTION, (
        f"disabled trace hooks cost {overhead_fraction:.1%} of the "
        f"per-event budget (limit {MAX_OVERHEAD_FRACTION:.0%})")
