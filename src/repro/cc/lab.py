"""Head-to-head congestion-controller evaluation (``repro cc-lab``).

The lab runs every registered congestion controller through the same
scenario matrix — fault x weather x churn — and scores each (scenario,
controller) cell by flow-completion-time percentiles and delivered vs
offered load.  It is how a new controller (the UCB bandit, an external
policy trained in :mod:`repro.cc.env`) earns its place next to the
classics: same constellation, same seeded workload, same injected
impairments, one comparison table.

Everything here is deterministic given ``(base spec, seed)``: workloads
come from seeded :class:`~repro.traffic.arrivals.FlowArrivalProcess`
draws, fault packet-loss streams are device-seeded Bernoulli, storms are
:meth:`~repro.ground.weather.WeatherModel.synthetic`.  Cells are
independent packet simulations, so ``workers=N`` farms them over a
process pool and — because cells are enumerated in a fixed order and
``Executor.map`` preserves it — produces a report bit-identical to the
serial run.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..faults.schedule import FaultEvent, FaultSchedule
from ..ground.weather import WeatherModel
from ..obs.report import fct_summary
from ..simulation.simulator import LinkConfig, PacketSimulator
from ..sweep.spec import NetworkSpec
from ..traffic.arrivals import FlowArrivalProcess
from ..traffic.matrix import TrafficMatrix
from ..traffic.spawner import WorkloadSpawner
from .api import controller_names
from .factory import ControllerFlowFactory

__all__ = [
    "DEFAULT_SITES",
    "LabScenario",
    "CcCellResult",
    "CcLabReport",
    "lab_network",
    "build_scenarios",
    "run_cell",
    "run_lab",
    "CLASSIC_CONTROLLERS",
]

#: The controllers ported verbatim from the seed TCP flows — the
#: yardstick a learned policy is scored against.
CLASSIC_CONTROLLERS = ("newreno", "vegas", "bbr")

#: Six well-spread cities used by the lab's default ground segment
#: (small enough that every cell stays cheap, far enough apart that
#: paths cross many ISLs).
DEFAULT_SITES: Tuple[Tuple[str, float, float], ...] = (
    ("Quito", 0.0, -78.5),
    ("Nairobi", -1.3, 36.8),
    ("Singapore", 1.35, 103.8),
    ("Honolulu", 21.3, -157.9),
    ("Sydney", -33.9, 151.2),
    ("Madrid", 40.4, -3.7),
)

#: Offered load per ground-station pair (bit/s) for the churn axis.
CHURN_RATE_BPS = {"light": 250_000.0, "heavy": 900_000.0}

#: Mean flow size of the lab workload (bytes).  Small transfers keep
#: flow churn high — the regime where window policy actually matters.
MEAN_FLOW_BYTES = 40_000.0

#: Stochastic loss rate on impaired ground uplinks in faulty scenarios.
FAULT_LOSS_RATE = 0.03


def lab_network(shell: str = "8x8",
                sites: Sequence[Tuple[str, float, float]] = DEFAULT_SITES,
                min_elevation_deg: float = 10.0,
                altitude_km: float = 600.0,
                inclination_deg: float = 53.0) -> NetworkSpec:
    """The lab's base :class:`NetworkSpec` (no workload attached yet).

    Args:
        shell: ``"NxM"`` — N orbits of M satellites at ``altitude_km`` /
            ``inclination_deg``.  Shells below 8x8 leave some site pairs
            permanently unrouteable; the default is the smallest fully
            connected lab constellation.
        sites: ``(name, lat, lon)`` ground stations, gids in order.
    """
    from ..constellations.builder import Constellation
    from ..geo.coordinates import GeodeticPosition
    from ..ground.stations import GroundStation
    from ..orbits.shell import Shell
    from ..topology.network import LeoNetwork

    try:
        orbits_s, sats_s = shell.lower().split("x")
        num_orbits, sats_per_orbit = int(orbits_s), int(sats_s)
    except ValueError:
        raise ValueError(f"shell must look like '8x8', got {shell!r}")
    lab_shell = Shell(name=f"LAB-{shell}", num_orbits=num_orbits,
                      satellites_per_orbit=sats_per_orbit,
                      altitude_m=altitude_km * 1000.0,
                      inclination_deg=inclination_deg)
    stations = [
        GroundStation(gid=i, name=name,
                      position=GeodeticPosition(lat, lon, 0.0))
        for i, (name, lat, lon) in enumerate(sites)
    ]
    network = LeoNetwork(Constellation([lab_shell]), stations,
                         min_elevation_deg=min_elevation_deg)
    return NetworkSpec.from_network(network)


@dataclass(frozen=True)
class LabScenario:
    """One cell-row of the matrix: a spec with workload plus its axes."""

    name: str
    spec: NetworkSpec
    duration_s: float
    axes: Tuple[Tuple[str, str], ...]

    @property
    def axes_dict(self) -> Dict[str, str]:
        return dict(self.axes)


def _faulty_schedule(spec: NetworkSpec, duration_s: float,
                     seed: int) -> FaultSchedule:
    """Impairments for the fault axis: lossy uplinks plus an ISL cut.

    Two ground stations (derived from the seed) suffer stochastic
    uplink loss over the middle of the run, and one plus-grid ISL is
    cut for the middle third — enough that retransmission policy and
    rerouting both matter, while the network stays usable.
    """
    num_sites = len(spec.ground_stations)
    lossy_a = seed % num_sites
    lossy_b = (seed + 1) % num_sites
    start, end = 0.2 * duration_s, 0.9 * duration_s
    num_sats = sum(s.num_orbits * s.satellites_per_orbit
                   for s in spec.shells)
    sat = seed % num_sats
    events = [
        FaultEvent.packet_loss(start, end, rate=FAULT_LOSS_RATE,
                               gid=lossy_a),
        FaultEvent.packet_loss(start, end, rate=FAULT_LOSS_RATE,
                               gid=lossy_b),
        FaultEvent.isl_cut(sat, (sat + 1) % num_sats,
                           start_s=duration_s / 3.0,
                           end_s=2.0 * duration_s / 3.0),
    ]
    return FaultSchedule(events, seed=seed)


def _storm_weather(spec: NetworkSpec, duration_s: float,
                   seed: int) -> WeatherModel:
    storms = WeatherModel.synthetic(
        num_stations=len(spec.ground_stations), duration_s=duration_s,
        seed=seed, storm_probability=0.5, mean_duration_s=duration_s / 2.0,
        penalty_deg=25.0)
    return storms


def build_scenarios(base: Optional[NetworkSpec] = None,
                    duration_s: float = 8.0,
                    seed: int = 0,
                    fault_axis: Sequence[str] = ("clean", "faulty"),
                    weather_axis: Sequence[str] = ("clear", "storm"),
                    churn_axis: Sequence[str] = ("light", "heavy"),
                    ) -> List[LabScenario]:
    """The fault x weather x churn matrix over ``base``.

    Every scenario reuses the same constellation and ground segment and
    differs only in its injected impairments and seeded workload, so
    controller comparisons isolate rate-control policy.  Axis values:
    fault in ``{"clean", "faulty"}``, weather in ``{"clear", "storm"}``,
    churn in ``{"light", "heavy"}``; pass shorter sequences to shrink
    the matrix (tests do).
    """
    if base is None:
        base = lab_network()
    scenarios: List[LabScenario] = []
    num_sites = len(base.ground_stations)
    for fault in fault_axis:
        if fault not in ("clean", "faulty"):
            raise ValueError(f"unknown fault axis value {fault!r}")
        for weather in weather_axis:
            if weather not in ("clear", "storm"):
                raise ValueError(f"unknown weather axis value {weather!r}")
            for churn in churn_axis:
                if churn not in CHURN_RATE_BPS:
                    raise ValueError(f"unknown churn axis value {churn!r}")
                matrix = TrafficMatrix.permutation(
                    num_stations=num_sites,
                    rate_bps=CHURN_RATE_BPS[churn], seed=seed)
                workload = FlowArrivalProcess(
                    matrix, mean_size_bytes=MEAN_FLOW_BYTES,
                    seed=seed).generate(duration_s * 0.75)
                spec = replace(
                    base,
                    faults=(_faulty_schedule(base, duration_s, seed)
                            if fault == "faulty" else base.faults),
                    weather=(_storm_weather(base, duration_s, seed)
                             if weather == "storm" else base.weather),
                ).with_workload(workload)
                scenarios.append(LabScenario(
                    name=f"{fault}-{weather}-{churn}",
                    spec=spec, duration_s=duration_s,
                    axes=(("fault", fault), ("weather", weather),
                          ("churn", churn))))
    return scenarios


@dataclass
class CcCellResult:
    """One (scenario, controller) cell's score."""

    scenario: str
    controller: str
    axes: Dict[str, str] = field(default_factory=dict)
    flows_offered: int = 0
    flows_completed: int = 0
    fct_mean_s: float = float("nan")
    fct_p50_s: float = float("nan")
    fct_p90_s: float = float("nan")
    fct_p99_s: float = float("nan")
    offered_bits: float = 0.0
    delivered_bits: float = 0.0
    fault_drops: int = 0
    congestion_drops: int = 0

    @property
    def delivered_fraction(self) -> float:
        if self.offered_bits <= 0.0:
            return 0.0
        return self.delivered_bits / self.offered_bits

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario, "controller": self.controller,
            "axes": dict(self.axes),
            "flows_offered": self.flows_offered,
            "flows_completed": self.flows_completed,
            "fct_mean_s": self.fct_mean_s, "fct_p50_s": self.fct_p50_s,
            "fct_p90_s": self.fct_p90_s, "fct_p99_s": self.fct_p99_s,
            "offered_bits": self.offered_bits,
            "delivered_bits": self.delivered_bits,
            "delivered_fraction": self.delivered_fraction,
            "fault_drops": self.fault_drops,
            "congestion_drops": self.congestion_drops,
        }


def run_cell(scenario: LabScenario, controller: str,
             gsl_queue_packets: int = 25, isl_queue_packets: int = 25,
             forwarding_interval_s: float = 0.1) -> CcCellResult:
    """Run one (scenario, controller) cell to completion.

    Module-level and argument-picklable on purpose: the parallel path
    ships ``(scenario, controller)`` pairs to worker processes.
    """
    sim = PacketSimulator(
        scenario.spec.build(),
        link_config=LinkConfig(gsl_queue_packets=gsl_queue_packets,
                               isl_queue_packets=isl_queue_packets),
        forwarding_interval_s=forwarding_interval_s)
    workload = scenario.spec.workload
    assert workload is not None, "lab scenarios always carry a workload"
    spawner = WorkloadSpawner(
        workload,
        flow_factory=ControllerFlowFactory(controller)).install(sim)
    sim.run(scenario.duration_s)

    result = CcCellResult(scenario=scenario.name, controller=controller,
                          axes=scenario.axes_dict,
                          flows_offered=workload.num_flows,
                          flows_completed=spawner.completed,
                          offered_bits=workload.offered_bits,
                          delivered_bits=float(
                              spawner._delivered_bytes) * 8.0,
                          fault_drops=sim.stats.packets_dropped_fault,
                          congestion_drops=sim.stats.packets_dropped_queue)
    for key, value in fct_summary(spawner.fcts_s).items():
        if key != "fct_max_s":
            setattr(result, key, value)
    return result


def _run_cell_star(args: Tuple[LabScenario, str]) -> CcCellResult:
    return run_cell(*args)


@dataclass
class CcLabReport:
    """All cells of one lab run plus the derived comparisons."""

    cells: List[CcCellResult]
    seed: int = 0
    learned: str = "bandit"

    @property
    def scenarios(self) -> List[str]:
        seen: List[str] = []
        for cell in self.cells:
            if cell.scenario not in seen:
                seen.append(cell.scenario)
        return seen

    @property
    def controllers(self) -> List[str]:
        seen: List[str] = []
        for cell in self.cells:
            if cell.controller not in seen:
                seen.append(cell.controller)
        return seen

    def cell(self, scenario: str, controller: str
             ) -> Optional[CcCellResult]:
        for c in self.cells:
            if c.scenario == scenario and c.controller == controller:
                return c
        return None

    def winners(self) -> Dict[str, str]:
        """Per scenario, the controller with the lowest FCT p50.

        Cells that completed no flows never win; ties break toward the
        cell enumerated first (controller order is caller-fixed), so
        the winner table is deterministic.
        """
        winners: Dict[str, str] = {}
        for scenario in self.scenarios:
            best: Optional[CcCellResult] = None
            for cell in self.cells:
                if cell.scenario != scenario or not cell.flows_completed:
                    continue
                if best is None or cell.fct_p50_s < best.fct_p50_s:
                    best = cell
            if best is not None:
                winners[scenario] = best.controller
        return winners

    def learned_vs_best_classic(self) -> Dict[str, Dict[str, Any]]:
        """Per scenario: the learned controller against the best classic.

        ``wins`` is true where the learned p50 matches or beats the best
        classic's — the lab's acceptance criterion is that this holds in
        at least one scenario of the full matrix.
        """
        rows: Dict[str, Dict[str, Any]] = {}
        for scenario in self.scenarios:
            learned = self.cell(scenario, self.learned)
            classics = [c for c in self.cells
                        if c.scenario == scenario and c.flows_completed
                        and c.controller in CLASSIC_CONTROLLERS]
            if learned is None or not classics:
                continue
            best = min(classics, key=lambda c: c.fct_p50_s)
            wins = bool(learned.flows_completed
                        and learned.fct_p50_s <= best.fct_p50_s)
            rows[scenario] = {
                "learned_fct_p50_s": learned.fct_p50_s,
                "best_classic": best.controller,
                "best_classic_fct_p50_s": best.fct_p50_s,
                "wins": wins,
            }
        return rows

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": "cc_lab_report",
            "seed": self.seed,
            "learned": self.learned,
            "scenarios": self.scenarios,
            "controllers": self.controllers,
            "cells": [cell.as_dict() for cell in self.cells],
            "winners": self.winners(),
            "learned_vs_best_classic": self.learned_vs_best_classic(),
        }

    def to_json(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def format_lines(self) -> List[str]:
        """Human-readable comparison table for the CLI."""
        lines: List[str] = []
        controllers = self.controllers
        header = f"{'scenario':<22}" + "".join(
            f"{name:>12}" for name in controllers) + "  winner"
        lines.append(header)
        winners = self.winners()
        for scenario in self.scenarios:
            row = f"{scenario:<22}"
            for name in controllers:
                cell = self.cell(scenario, name)
                if cell is None or not cell.flows_completed:
                    row += f"{'-':>12}"
                else:
                    row += f"{cell.fct_p50_s * 1000.0:>10.1f}ms"
            row += f"  {winners.get(scenario, '-')}"
            lines.append(row)
        lines.append("")
        versus = self.learned_vs_best_classic()
        won = sum(1 for row in versus.values() if row["wins"])
        lines.append(
            f"{self.learned} matches or beats the best classic FCT p50 "
            f"in {won}/{len(versus)} scenarios (p50, lower is better)")
        return lines


def run_lab(scenarios: Optional[Sequence[LabScenario]] = None,
            controllers: Optional[Sequence[str]] = None,
            seed: int = 0,
            duration_s: float = 8.0,
            workers: int = 1,
            learned: str = "bandit",
            base: Optional[NetworkSpec] = None,
            **axes: Sequence[str]) -> CcLabReport:
    """Run the whole matrix, serially or across a process pool.

    Args:
        scenarios: Pre-built scenario list (default: the full
            :func:`build_scenarios` matrix over ``base`` with ``seed``
            and ``duration_s``; trim it with ``fault_axis=`` /
            ``weather_axis=`` / ``churn_axis=`` keyword arguments).
        controllers: Registry names to race (default: every registered
            controller except the env-only ``"external"`` stub).
        workers: Process-pool width; ``<= 1`` runs serially.  Cells are
            enumerated in a fixed (scenario, controller) order and
            ``Executor.map`` preserves it, so the report is identical
            either way.
        learned: Which controller the comparison rows treat as the
            learned policy.
    """
    if scenarios is None:
        scenarios = build_scenarios(base=base, duration_s=duration_s,
                                    seed=seed, **axes)
    elif axes:
        raise ValueError("axis overrides only apply to built scenarios")
    if controllers is None:
        controllers = [name for name in controller_names()
                       if name != "external"]
    jobs = [(scenario, controller) for scenario in scenarios
            for controller in controllers]
    if workers <= 1:
        cells = [run_cell(scenario, controller)
                 for scenario, controller in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_run_cell_star, jobs))
    return CcLabReport(cells=cells, seed=seed, learned=learned)
