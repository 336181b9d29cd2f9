"""The picklable network recipe: what a network is built from.

A :class:`NetworkSpec` is the one recipe for a
:class:`~repro.topology.network.LeoNetwork`: the network's inputs and
nothing derived from them — shell definitions (plain frozen dataclasses),
the epoch offset, the ground-station list, the elevation threshold, the
ISL interconnect by its :data:`~repro.topology.isl.ISL_BUILDERS` name, the
GSL policy and the fault schedule.  A sweep worker rebuilds its network
from one — live graphs, routing engines, and snapshot caches are never
pickled across the process boundary — and runs the named ISL builder
itself.

Because :class:`~repro.constellations.builder.Constellation` derives every
satellite's elements purely from its shells and
:meth:`NetworkSpec.build` passes the exact same constructor arguments, a
rebuilt network produces bit-identical snapshots — the property the sweep
engine's serial-equals-parallel contract rests on.

:meth:`NetworkSpec.as_dict` / :meth:`~NetworkSpec.from_dict` are its JSON
form and :meth:`NetworkSpec.fingerprint` its content hash, both in every
service checkpoint.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..constellations.builder import Constellation
from ..faults.schedule import FaultSchedule, each, exact_int, real, required
from ..geo.coordinates import GeodeticPosition
from ..ground.stations import GroundStation
from ..obs import spans
from ..traffic.arrivals import WorkloadSchedule
from ..orbits.shell import Shell
from ..topology.gsl import GslPolicy
from ..topology.network import LeoNetwork

__all__ = ["NetworkSpec"]


@dataclass(frozen=True)
class NetworkSpec:
    """The inputs of a ``LeoNetwork``, picklable, so any process can
    rebuild it.

    Attributes:
        shells: The constellation's shell definitions, in id order.  A
            rebuilt constellation takes its default name,
            ``"+".join(shell names)``.
        epoch_offset_s: Constellation epoch offset at simulation time 0.
        ground_stations: The ground segment, gid order.
        min_elevation_deg: Minimum GS elevation angle.
        isl_builder: :data:`~repro.topology.isl.ISL_BUILDERS` name of the
            ISL interconnect; ``build`` rejects any other.
        gsl_policy: GS satellite-selection policy.
        faults: Optional fault schedule, dead satellites and rain included
            (plain data, so it pickles) — carrying it here is what keeps
            faulted parallel sweeps bit-identical to serial ones.
        workload: Optional workload schedule (plain data as well).  The
            network build ignores it; it rides along so workload-driven
            sweeps track exactly the same pair set in every worker.
    """

    shells: Tuple[Shell, ...]
    epoch_offset_s: float
    ground_stations: Tuple[GroundStation, ...]
    min_elevation_deg: float
    isl_builder: str = "plus_grid"
    gsl_policy: GslPolicy = GslPolicy.ALL_VISIBLE
    faults: Optional[FaultSchedule] = field(default=None)
    workload: Optional[WorkloadSchedule] = field(default=None)

    def with_workload(self, workload: Optional[WorkloadSchedule]
                      ) -> "NetworkSpec":
        """A copy of this spec carrying ``workload``."""
        return replace(self, workload=workload)

    @classmethod
    @spans.timed("sweep.spec_build")
    def from_network(cls, network: LeoNetwork) -> "NetworkSpec":
        """The spec describing an existing network."""
        return cls(
            shells=tuple(network.constellation.shells),
            epoch_offset_s=network.constellation.epoch_offset_s,
            ground_stations=tuple(network.ground_stations),
            min_elevation_deg=float(network.min_elevation_deg),
            isl_builder=network.isl_builder,
            gsl_policy=network.gsl_policy,
            faults=network.faults,
        )

    @spans.timed("sweep.spec_build")
    def build(self) -> LeoNetwork:
        """Rebuild the network this spec describes (bit-identical).

        Raises:
            ValueError: If :attr:`isl_builder` names no ISL builder.
        """
        return LeoNetwork(
            Constellation(list(self.shells),
                          epoch_offset_s=self.epoch_offset_s),
            list(self.ground_stations),
            min_elevation_deg=self.min_elevation_deg,
            isl_builder=self.isl_builder,
            gsl_policy=self.gsl_policy,
            faults=self.faults,
        )

    def _record(self) -> Dict[str, Any]:
        """Every field but the workload as a JSON-expressible record."""
        return {
            "shells": [{
                "name": shell.name,
                "num_orbits": int(shell.num_orbits),
                "satellites_per_orbit": int(shell.satellites_per_orbit),
                "altitude_m": float(shell.altitude_m),
                "inclination_deg": float(shell.inclination_deg),
                "phase_offset_rel": float(shell.phase_offset_rel),
            } for shell in self.shells],
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
            "faults": None if self.faults is None else self.faults.as_dict(),
        }

    def as_dict(self) -> Dict[str, Any]:
        """The spec as a JSON-expressible record: the fields
        :meth:`fingerprint` hashes, the workload as
        :meth:`WorkloadSchedule.as_dict` (or None)."""
        workload = self.workload
        return {**self._record(),
                "workload": None if workload is None else workload.as_dict()}

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "NetworkSpec":
        """The spec an :meth:`as_dict` record describes.  Outside input
        goes through the constructors of every part (counts and ids
        through ``exact_int``), so a malformed record — a missing or
        mistyped field — is a ``ValueError`` naming the field."""
        def shell(part: Any) -> Shell:
            what = "a shell"
            return Shell(
                required(part, "name", what),
                *(exact_int(required(part, key, what), key)
                  for key in ("num_orbits", "satellites_per_orbit")),
                *(real(required(part, key, what), key) for key in (
                    "altitude_m", "inclination_deg", "phase_offset_rel")))

        def station(part: Any) -> GroundStation:
            what = "a ground station"
            return GroundStation(
                exact_int(required(part, "gid", what), "station gid"),
                required(part, "name", what),
                GeodeticPosition(*(real(required(part, key, what), key)
                                   for key in ("latitude_deg",
                                               "longitude_deg",
                                               "altitude_m"))),
                is_relay=bool(required(part, "is_relay", what)))

        (shells, epoch_offset_s, stations, min_elevation_deg, isl_builder,
         gsl_policy, faults, workload) = (
            required(record, key, "a network spec") for key in (
                "shells", "epoch_offset_s", "ground_stations",
                "min_elevation_deg", "isl_builder", "gsl_policy", "faults",
                "workload"))
        if not isinstance(isl_builder, str):
            raise ValueError(
                f"isl_builder must be a name, got {isl_builder!r}")
        return cls(
            shells=tuple(each(shells, shell, "shells")),
            epoch_offset_s=real(epoch_offset_s, "epoch_offset_s"),
            ground_stations=tuple(each(stations, station,
                                       "ground_stations")),
            min_elevation_deg=real(min_elevation_deg, "min_elevation_deg"),
            isl_builder=isl_builder,
            gsl_policy=GslPolicy(gsl_policy),
            faults=None if faults is None else FaultSchedule.from_dict(faults),
            workload=(None if workload is None
                      else WorkloadSchedule.from_dict(workload)),
        )

    def fingerprint(self) -> str:
        """A stable sha256 content hash of this spec.

        Specs describing the same network and traffic hash equally in any
        process, on any platform, under any ``PYTHONHASHSEED``; the hash
        goes into every checkpoint and gates every resume.  It covers
        the key-sorted :meth:`as_dict` record with the workload's seed
        for the workload, then its requests in schedule order as
        little-endian arrays: ``<f8`` starts, ``<i8`` sources,
        destinations and sizes.  A field added to the spec or to a type
        it holds must be added here too; ``tests/test_service.py`` fails
        until it is.
        """
        workload = self.workload
        record = {**self._record(),
                  "workload_seed": None if workload is None else workload.seed}
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
