"""Span-profiler overhead gate (part of `make bench-obs`).

The span hot-path contract (DESIGN.md "Profiling"): with the default
:class:`~repro.obs.spans.NullSpanProfiler` installed, every instrumented
site costs one module-attribute read plus one ``enabled`` check on
``begin`` and one integer comparison on ``end`` — disabled span
instrumentation must consume <= 2% of a 1e5-flow vectorized fluid
solve's wall clock.

Like the trace-overhead gate, a pre-instrumentation baseline cannot be
measured in-process, so the enforced number is deterministic: ``timeit``
the disabled guard, multiply by the spans a profiled run of the same
scenario actually records (x2: begin + end guards), and divide by the
disabled run's wall time.  The enabled/disabled wall comparison is
reported alongside, informationally — it is noise-dominated at this
span rate, which is precisely the design goal.
"""

import time
import timeit

from repro.constellations.builder import Constellation
from repro.fluid.engine import FluidFlow, FluidSimulation
from repro.geo.coordinates import GeodeticPosition
from repro.ground.stations import GroundStation
from repro.obs import spans
from repro.orbits.shell import Shell
from repro.topology.network import LeoNetwork

from _common import scaled, write_result

#: The disabled-instrumentation budget of the tentpole contract.
MAX_OVERHEAD_FRACTION = 0.02

NUM_FLOWS = scaled(100_000, 1_000_000)
DURATION_S = 2.0
STEP_S = 1.0
#: Guard evaluations per recorded span: the ``begin`` attribute check
#: plus the ``end`` handle comparison.
GUARDS_PER_SPAN = 2


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


def _build_flows():
    """1e5 elastic flows over every ordered station pair, round-robin."""
    pairs = [(s, d) for s in range(4) for d in range(4) if s != d]
    return [FluidFlow(*pairs[i % len(pairs)]) for i in range(NUM_FLOWS)]


def _run_scenario(network, flows) -> float:
    sim = FluidSimulation(network, flows)
    start = time.perf_counter()
    sim.run(DURATION_S, step_s=STEP_S)
    return time.perf_counter() - start


def _disabled_guard_cost_s() -> float:
    """Wall seconds per disabled span-hook evaluation (best of 5)."""
    timer = timeit.Timer(
        "profiler = mod.ACTIVE\nif profiler.enabled:\n"
        "    raise AssertionError",
        globals={"mod": spans})
    number = 100_000
    return min(timer.repeat(repeat=5, number=number)) / number


def test_disabled_span_overhead_within_budget():
    assert not spans.ACTIVE.enabled, "a profiler leaked into the bench"
    network = _build_network()
    flows = _build_flows()

    disabled_wall = min(_run_scenario(network, flows) for _ in range(3))

    profiler = spans.SpanProfiler()
    with spans.profiled(profiler):
        enabled_wall = _run_scenario(network, flows)
    spans_per_run = profiler.num_spans
    assert spans_per_run > 0, "profiled run recorded no spans"
    assert profiler.dropped == 0

    guard_s = _disabled_guard_cost_s()
    overhead_fraction = (GUARDS_PER_SPAN * spans_per_run * guard_s
                         / disabled_wall)
    slowdown = (enabled_wall - disabled_wall) / disabled_wall

    write_result("span_overhead", [
        "# span-profiler overhead gate (1e5-flow vectorized fluid solve)",
        f"flows                     {len(flows):10d}",
        f"duration_simulated_s      {DURATION_S:10.1f}",
        f"disabled_wall_s           {disabled_wall:10.3f}",
        f"enabled_wall_s            {enabled_wall:10.3f}",
        f"enabled_slowdown_fraction {slowdown:10.3f}",
        f"spans_per_run             {spans_per_run:10d}",
        f"guard_cost_ns             {guard_s * 1e9:10.1f}",
        f"guards_per_span           {GUARDS_PER_SPAN:10d}",
        f"disabled_overhead_frac    {overhead_fraction:10.6f}",
        f"budget                    {MAX_OVERHEAD_FRACTION:10.2f}",
    ])

    # The contract: disabled span instrumentation consumes <= 2% of the
    # solve's wall clock.
    assert overhead_fraction <= MAX_OVERHEAD_FRACTION, (
        f"disabled span hooks cost {overhead_fraction:.2%} of the "
        f"1e5-flow solve (limit {MAX_OVERHEAD_FRACTION:.0%})")
