"""Picklable network specifications for sweep worker processes.

A sweep worker must rebuild the :class:`~repro.topology.network.LeoNetwork`
inside its own process — live graphs, routing engines, and snapshot caches
are never pickled across the process boundary.  A :class:`NetworkSpec` is
the small, picklable recipe that makes the rebuild deterministic: shell
definitions (plain frozen dataclasses), the ground-station list, the GSL
policy and elevation threshold, and the ISL interconnect *by name* through
a builder registry.

Because :class:`~repro.constellations.builder.Constellation` derives every
satellite's elements purely from its shells and
:meth:`NetworkSpec.build` passes the exact same constructor arguments, a
rebuilt network produces bit-identical snapshots — the property the sweep
engine's serial-equals-parallel contract rests on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..constellations.builder import Constellation
from ..faults.schedule import FaultSchedule
from ..ground.stations import GroundStation
from ..traffic.arrivals import WorkloadSchedule
from ..ground.weather import WeatherModel
from ..orbits.shell import Shell
from ..topology.gsl import GslPolicy
from ..topology.isl import no_isls, plus_grid_isls, single_ring_isls
from ..topology.network import LeoNetwork

__all__ = ["NetworkSpec", "ISL_BUILDERS", "register_isl_builder",
           "isl_builder_name"]

#: Named ISL interconnect builders a spec may reference.  Keys are what
#: travels across the process boundary; values never leave this process.
ISL_BUILDERS: Dict[str, Callable[[Constellation], np.ndarray]] = {
    "plus_grid": plus_grid_isls,
    "single_ring": single_ring_isls,
    "none": no_isls,
}


def register_isl_builder(name: str,
                         builder: Callable[[Constellation], np.ndarray],
                         ) -> None:
    """Register a custom ISL builder under a spec-referenceable name.

    Workers resolve the name through this registry, so the registration
    must happen at import time of a module the workers also import
    (module level, not inside a test function) when using the ``spawn``
    start method; under ``fork`` (the Linux default) the inherited
    registry suffices.
    """
    existing = ISL_BUILDERS.get(name)
    if existing is not None and existing is not builder:
        raise ValueError(f"ISL builder name {name!r} is already taken")
    ISL_BUILDERS[name] = builder


def isl_builder_name(builder: Callable[[Constellation], np.ndarray]) -> str:
    """The registered name of an ISL builder callable.

    Raises:
        ValueError: If the callable was never registered — pass it to
            :func:`register_isl_builder` first, or run the sweep serially.
    """
    for name, registered in ISL_BUILDERS.items():
        if registered is builder:
            return name
    raise ValueError(
        f"ISL builder {builder!r} is not registered; call "
        f"repro.sweep.register_isl_builder() to make the network "
        f"spec-expressible, or run with workers=1")


@dataclass(frozen=True)
class NetworkSpec:
    """Everything needed to rebuild a ``LeoNetwork`` in another process.

    Attributes:
        shells: The constellation's shell definitions, in id order.
        constellation_name: Constellation label (kept for exports).
        epoch_offset_s: Constellation epoch offset at simulation time 0.
        ground_stations: The ground segment, gid order.
        min_elevation_deg: Minimum GS elevation angle.
        isl_builder: Registered name of the ISL interconnect builder.
        gsl_policy: GS satellite-selection policy.
        failed_satellites: Satellites carrying no links.
        weather: Optional rain-attenuation schedule (plain data, so it
            pickles).
        faults: Optional fault schedule (plain data too) — carrying it
            here is what keeps faulted parallel sweeps bit-identical to
            serial ones.
        workload: Optional workload schedule (plain data as well).  The
            network build ignores it; it rides along so workload-driven
            sweeps track exactly the same pair set in every worker.
    """

    shells: Tuple[Shell, ...]
    constellation_name: str
    epoch_offset_s: float
    ground_stations: Tuple[GroundStation, ...]
    min_elevation_deg: float
    isl_builder: str = "plus_grid"
    gsl_policy: GslPolicy = GslPolicy.ALL_VISIBLE
    failed_satellites: Tuple[int, ...] = ()
    weather: Optional[WeatherModel] = field(default=None)
    faults: Optional[FaultSchedule] = field(default=None)
    workload: Optional[WorkloadSchedule] = field(default=None)

    def with_workload(self, workload: Optional[WorkloadSchedule]
                      ) -> "NetworkSpec":
        """A copy of this spec carrying ``workload``."""
        return replace(self, workload=workload)

    def __post_init__(self) -> None:
        if self.isl_builder not in ISL_BUILDERS:
            raise ValueError(
                f"unknown ISL builder {self.isl_builder!r}; "
                f"known: {sorted(ISL_BUILDERS)}")

    @classmethod
    def from_network(cls, network: LeoNetwork) -> "NetworkSpec":
        """The spec describing an existing network.

        Raises:
            ValueError: If the network's ISL builder is not registered
                (see :func:`register_isl_builder`).
        """
        return cls(
            shells=tuple(network.constellation.shells),
            constellation_name=network.constellation.name,
            epoch_offset_s=network.constellation.epoch_offset_s,
            ground_stations=tuple(network.ground_stations),
            min_elevation_deg=float(network.min_elevation_deg),
            isl_builder=isl_builder_name(network.isl_builder),
            gsl_policy=network.gsl_policy,
            failed_satellites=tuple(sorted(network.failed_satellites)),
            weather=network.weather,
            faults=network.faults,
        )

    def _constellation(self) -> Constellation:
        return Constellation(
            list(self.shells), name=self.constellation_name,
            epoch_offset_s=self.epoch_offset_s)

    def static_isl_pairs(self) -> np.ndarray:
        """The ISL interconnect this spec's network would carry.

        Computed without building the full network: a parallel sweep
        ships this array in every chunk payload so workers can skip
        re-running the ISL builder.
        """
        return np.asarray(ISL_BUILDERS[self.isl_builder](
            self._constellation()))

    def build(self, isl_pairs: Optional[np.ndarray] = None) -> LeoNetwork:
        """Rebuild the network this spec describes (bit-identical).

        Args:
            isl_pairs: Optional precomputed ISL pair array (e.g.
                :meth:`static_isl_pairs` computed once by a sweep's
                parent).  Must equal what the registered builder would
                produce; the network keeps its own copy.
        """
        registered = builder = ISL_BUILDERS[self.isl_builder]
        if isl_pairs is not None:
            precomputed = np.array(isl_pairs)  # copy: never alias the caller's

            def builder(constellation: Constellation) -> np.ndarray:
                return precomputed
        network = LeoNetwork(
            self._constellation(), list(self.ground_stations),
            min_elevation_deg=self.min_elevation_deg,
            isl_builder=builder,
            gsl_policy=self.gsl_policy,
            weather=self.weather,
            failed_satellites=self.failed_satellites,
            faults=self.faults,
        )
        # The network names the registered builder whichever way its
        # pairs arrived, so NetworkSpec.from_network round-trips.
        network.isl_builder = registered
        return network
