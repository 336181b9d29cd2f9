"""Picklable network specifications for sweep worker processes.

A sweep worker must rebuild the :class:`~repro.topology.network.LeoNetwork`
inside its own process — live graphs, routing engines, and snapshot caches
are never pickled across the process boundary.  A :class:`NetworkSpec` is
the small, picklable recipe that makes the rebuild deterministic: shell
definitions (plain frozen dataclasses), the ground-station list, the GSL
policy and elevation threshold, and the ISL interconnect *by name*
(:data:`ISL_BUILDERS`).

Because :class:`~repro.constellations.builder.Constellation` derives every
satellite's elements purely from its shells and
:meth:`NetworkSpec.build` passes the exact same constructor arguments, a
rebuilt network produces bit-identical snapshots — the property the sweep
engine's serial-equals-parallel contract rests on.

:meth:`NetworkSpec.fingerprint` is the spec's content hash: checkpoint
headers carry it, and a resume refuses a spec that hashes otherwise.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..constellations.builder import Constellation
from ..faults.schedule import FaultSchedule
from ..ground.stations import GroundStation
from ..traffic.arrivals import WorkloadSchedule
from ..orbits.shell import Shell
from ..topology.gsl import GslPolicy
from ..topology.isl import no_isls, plus_grid_isls, single_ring_isls
from ..topology.network import LeoNetwork

__all__ = ["NetworkSpec", "ISL_BUILDERS", "isl_builder_name"]

#: The ISL interconnect builders a spec may reference.  Keys are what
#: travels across the process boundary; values never leave this process.
ISL_BUILDERS: Dict[str, Callable[[Constellation], np.ndarray]] = {
    "plus_grid": plus_grid_isls,
    "single_ring": single_ring_isls,
    "none": no_isls,
}


def isl_builder_name(builder: Callable[[Constellation], np.ndarray]) -> str:
    """The :data:`ISL_BUILDERS` name of an ISL builder callable.

    Raises:
        ValueError: If the callable is none of them — a network built
            with it can only be swept serially.
    """
    for name, known in ISL_BUILDERS.items():
        if known is builder:
            return name
    raise ValueError(
        f"ISL builder {builder!r} is not spec-expressible; run with "
        f"workers=1")


@dataclass(frozen=True)
class NetworkSpec:
    """Everything needed to rebuild a ``LeoNetwork`` in another process.

    Attributes:
        shells: The constellation's shell definitions, in id order.
        constellation_name: Constellation label (kept for exports).
        epoch_offset_s: Constellation epoch offset at simulation time 0.
        ground_stations: The ground segment, gid order.
        min_elevation_deg: Minimum GS elevation angle.
        isl_builder: :data:`ISL_BUILDERS` name of the ISL interconnect.
        gsl_policy: GS satellite-selection policy.
        failed_satellites: Satellites carrying no links.
        faults: Optional fault schedule, rain included (plain data, so
            it pickles) — carrying it here is what keeps faulted parallel
            sweeps bit-identical to serial ones.
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
            ValueError: If the network's ISL builder is none of
                :data:`ISL_BUILDERS`.
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
            failed_satellites=self.failed_satellites,
            faults=self.faults,
        )
        # The network names the registered builder whichever way its
        # pairs arrived, so NetworkSpec.from_network round-trips.
        network.isl_builder = registered
        return network

    def fingerprint(self) -> str:
        """A stable sha256 content hash of this spec.

        Specs describing the same network and traffic hash equally in any
        process, on any platform, under any ``PYTHONHASHSEED``; the hash
        goes into every checkpoint header and gates every resume.  It
        covers a key-sorted JSON record of every field (the faults as
        :meth:`FaultSchedule.as_dict`), then the workload's requests in
        schedule order as little-endian arrays: ``<f8`` starts, ``<i8``
        sources, destinations and sizes.  A field added to the spec or to
        a type it holds must be added here too; ``tests/test_service.py``
        fails until it is.
        """
        workload = self.workload
        record = {
            "shells": [{
                "name": shell.name,
                "num_orbits": int(shell.num_orbits),
                "satellites_per_orbit": int(shell.satellites_per_orbit),
                "altitude_m": float(shell.altitude_m),
                "inclination_deg": float(shell.inclination_deg),
                "phase_offset_rel": float(shell.phase_offset_rel),
            } for shell in self.shells],
            "constellation_name": self.constellation_name,
            "epoch_offset_s": float(self.epoch_offset_s),
            "ground_stations": [{
                "gid": int(station.gid),
                "name": station.name,
                "latitude_deg": float(station.position.latitude_deg),
                "longitude_deg": float(station.position.longitude_deg),
                "altitude_m": float(station.position.altitude_m),
                "is_relay": bool(station.is_relay),
            } for station in self.ground_stations],
            "min_elevation_deg": float(self.min_elevation_deg),
            "isl_builder": self.isl_builder,
            "gsl_policy": self.gsl_policy.value,
            "failed_satellites": [int(sat) for sat in self.failed_satellites],
            "faults": None if self.faults is None else self.faults.as_dict(),
            "workload_seed": None if workload is None else workload.seed,
        }
        digest = hashlib.sha256(json.dumps(
            record, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        if workload is not None:
            requests = workload.requests
            for dtype, column in (("<f8", "t_start_s"), ("<i8", "src_gid"),
                                  ("<i8", "dst_gid"), ("<i8", "size_bytes")):
                digest.update(np.fromiter(
                    map(attrgetter(column), requests), dtype=dtype,
                    count=len(requests)).tobytes())
        return digest.hexdigest()
