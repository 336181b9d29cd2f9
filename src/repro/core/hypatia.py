"""The Hypatia facade: one object wiring every subsystem together.

This is the library's front door.  It assembles a constellation, ground
stations, ISL/GSL connectivity, and exposes the three analysis surfaces the
paper's experiments run on:

* **geometry**: snapshots, pair RTT/path timelines (`compute_timelines`);
* **packet simulation**: a ready-to-run :class:`PacketSimulator`
  (`build_packet_simulator`) to attach ping/TCP/UDP applications to;
* **fluid simulation**: constellation-wide max-min traffic
  (`build_fluid_simulation`).

Example:
    >>> from repro import Hypatia
    >>> hypatia = Hypatia.from_shell_name("K1", num_cities=100)
    >>> timelines = hypatia.compute_timelines(
    ...     [hypatia.pair("Manila", "Dalian")], duration_s=10.0, step_s=1.0)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..constellations.builder import Constellation
from ..constellations.definitions import ALL_SHELLS, shell_by_name
from ..fluid.engine import FluidFlow, FluidSimulation
from ..ground.stations import GroundStation, ground_stations_from_cities
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..orbits.shell import Shell
from ..routing.engine import RoutingEngine
from ..simulation.simulator import LinkConfig, PacketSimulator
from ..sweep.engine import sweep_timelines
from ..topology.dynamic_state import PairTimeline, snapshot_times
from ..topology.gsl import GslPolicy
from ..topology.network import LeoNetwork, TopologySnapshot
from .workloads import gid_by_name

__all__ = ["Hypatia"]

#: Default minimum elevation per operator (paper §5.1).
_DEFAULT_MIN_ELEVATION = {spec.first_shell().name: spec.min_elevation_deg
                          for spec in ALL_SHELLS.values()}


class Hypatia:
    """A configured LEO network study: constellation + ground segment.

    Args:
        constellation: The satellites.
        ground_stations: The ground segment.
        min_elevation_deg: Minimum GS elevation angle.
        isl_builder: The ISL interconnect, by its
            :data:`~repro.topology.isl.ISL_BUILDERS` name: ``"plus_grid"``
            (+Grid, the default), ``"single_ring"`` or ``"none"`` (bent
            pipe, Appendix A: connectivity through GS relays only).
        gsl_policy: GS satellite-selection policy.
        faults: Optional :class:`repro.faults.FaultSchedule` — dynamic
            outages/cuts/rain/loss, applied at every topology snapshot
            and packet transmission.
    """

    def __init__(self, constellation: Constellation,
                 ground_stations: Sequence[GroundStation],
                 min_elevation_deg: float,
                 isl_builder: str = "plus_grid",
                 gsl_policy: GslPolicy = GslPolicy.ALL_VISIBLE,
                 faults=None) -> None:
        self.network = LeoNetwork(
            constellation, ground_stations,
            min_elevation_deg=min_elevation_deg,
            isl_builder=isl_builder,
            gsl_policy=gsl_policy,
            faults=faults,
        )
        self.routing = RoutingEngine(self.network)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_shell_name(cls, shell_name: str, num_cities: int = 100,
                        min_elevation_deg: Optional[float] = None,
                        isl_builder: str = "plus_grid",
                        extra_stations: Sequence[GroundStation] = (),
                        gsl_policy: GslPolicy = GslPolicy.ALL_VISIBLE,
                        epoch_offset_s: float = 0.0,
                        faults=None) -> "Hypatia":
        """Build a study for one Table 1 shell with city ground stations.

        Args:
            shell_name: "S1".."S5", "K1".."K3", "T1"/"T2".
            num_cities: Top-N most populous cities as GSes.
            min_elevation_deg: Override; defaults to the operator's filing
                value (Starlink 25, Kuiper 30, Telesat 10).
            isl_builder: The ISL interconnect by name, as for
                :class:`Hypatia` (``"none"`` is the bent pipe).
            extra_stations: Appended after the city stations (e.g. a relay
                grid); their gids are rewritten to stay consecutive.
            gsl_policy: GS satellite-selection policy.
            epoch_offset_s: Advance the constellation by this much motion
                at simulation time 0 (windows experiments around specific
                connectivity events).
            faults: Optional :class:`repro.faults.FaultSchedule`.
        """
        shell = shell_by_name(shell_name)
        if min_elevation_deg is None:
            min_elevation_deg = _default_elevation_for(shell)
        stations = ground_stations_from_cities(count=num_cities)
        for station in extra_stations:
            stations.append(GroundStation(
                gid=len(stations), name=station.name,
                position=station.position, is_relay=station.is_relay))
        return cls(Constellation([shell], epoch_offset_s=epoch_offset_s),
                   stations,
                   min_elevation_deg=min_elevation_deg,
                   isl_builder=isl_builder, gsl_policy=gsl_policy,
                   faults=faults)

    # ------------------------------------------------------------------
    # Convenience lookups
    # ------------------------------------------------------------------

    @property
    def ground_stations(self) -> List[GroundStation]:
        return self.network.ground_stations

    @property
    def constellation(self) -> Constellation:
        return self.network.constellation

    def gid(self, city_name: str) -> int:
        """gid of the GS at a named city."""
        return gid_by_name(self.network.ground_stations, city_name)

    def pair(self, src_name: str, dst_name: str) -> Tuple[int, int]:
        """(src_gid, dst_gid) for two named cities."""
        return self.gid(src_name), self.gid(dst_name)

    def snapshot(self, time_s: float) -> TopologySnapshot:
        """The topology frozen at ``time_s``."""
        return self.network.snapshot(time_s)

    # ------------------------------------------------------------------
    # Analysis surfaces
    # ------------------------------------------------------------------

    def compute_timelines(self, pairs: Sequence[Tuple[int, int]],
                          duration_s: float, step_s: float = 0.1,
                          workers: Optional[int] = None,
                          ) -> Dict[Tuple[int, int], PairTimeline]:
        """Shortest-path RTT/path timelines for the given pairs.

        Args:
            pairs: (src_gid, dst_gid) pairs to track.
            duration_s: How long to simulate.
            step_s: Forwarding-state recomputation interval.
            workers: Snapshot-sweep worker processes (``None``/1 serial,
                0 = all cores); parallel results are bit-identical to
                serial — see :mod:`repro.sweep`.
        """
        return sweep_timelines(self.network, pairs,
                               snapshot_times(duration_s, step_s),
                               workers=workers)

    def build_packet_simulator(self, link_config: Optional[LinkConfig] = None,
                               tracer: Optional["Tracer"] = None,
                               ) -> PacketSimulator:
        """A packet-level simulator over this network.

        Args:
            link_config: Device rates/queues (paper defaults if omitted).
            tracer: Optional :class:`repro.obs.Tracer` receiving the
                run's structured trace events.
        """
        return PacketSimulator(self.network, link_config=link_config,
                               tracer=tracer)

    def build_fluid_simulation(self, flows: Sequence[FluidFlow] = (),
                               link_capacity_bps: float = 10_000_000.0,
                               mode: str = "maxmin",
                               metrics: Optional["MetricsRegistry"] = None,
                               workload=None) -> FluidSimulation:
        """The max-min fluid traffic engine over this network.

        Args:
            flows: Long-running flows (may be empty when ``workload``
                supplies the traffic).
            link_capacity_bps: Uniform device capacity.
            mode: ``"maxmin"``, the only fluid mode this facade builds
                (the AIMD model of Fig. 10 is
                :class:`~repro.fluid.aimd.AimdFluidSimulation`).
            metrics: Optional registry receiving per-snapshot series.
            workload: Optional :class:`repro.traffic.WorkloadSchedule`;
                its finite flows are appended after ``flows`` and the
                engine re-solves on every arrival/completion.
        """
        if mode != "maxmin":
            raise ValueError(f"unknown fluid mode {mode!r}; the facade "
                             f"builds 'maxmin' only")
        flows = list(flows)
        if workload is not None:
            flows.extend(workload.as_fluid_flows())
        return FluidSimulation(
            self.network, flows, link_capacity_bps=link_capacity_bps,
            metrics=metrics)


def _default_elevation_for(shell: Shell) -> float:
    """The operator's filing minimum elevation for a shell's family."""
    prefix = shell.name[0]
    by_prefix = {"S": "Starlink", "K": "Kuiper", "T": "Telesat"}
    operator = by_prefix.get(prefix)
    if operator is None:
        raise ValueError(
            f"cannot infer operator from shell {shell.name!r}; pass "
            f"min_elevation_deg explicitly")
    return ALL_SHELLS[operator].min_elevation_deg
