"""Deterministic fault schedules: what breaks, when, and for how long.

Paper §7 invites reliability work ("rerouting around failures and bad
weather").  This module is the repo's fault model: a
:class:`FaultSchedule` is an explicit, seeded, *plain-data* list of
:class:`FaultEvent` s — satellite outages, ISL cuts, ground-station (GSL)
cuts, rain-style elevation attenuation, and stochastic per-link packet
loss/corruption — each with a start and an end (recovery).

Design contract (the determinism the test suite enforces):

* A schedule is pure data: frozen dataclasses, picklable, JSON
  round-trippable.  It crosses the sweep-engine process boundary inside
  :class:`repro.sweep.NetworkSpec` untouched, so ``workers=N`` stays
  bit-identical to serial.
* All queries are functions of time only.  Overlapping events *stack*
  order-independently: elevation penalties add, loss rates combine as
  ``1 - prod(1 - r_i)``.
* Topology faults (outages/cuts) act through
  :meth:`repro.topology.network.LeoNetwork.snapshot` — routing reroutes
  at the next forwarding tick, never retroactively.
* Packet-level faults (loss/corruption) act through the per-device
  seeded Bernoulli hook (:class:`repro.faults.injector.LinkFaultInjector`),
  whose RNG stream depends only on ``(schedule.seed, device name)``.

The weather model is one *producer* of fault events:
:meth:`FaultSchedule.from_weather` maps every
:class:`~repro.ground.weather.RainEvent` to an equivalent
``GSL_ATTENUATION`` event, and :class:`LeoNetwork` evaluates both through
the same code path.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass
from typing import (Any, Dict, FrozenSet, Hashable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..ground.weather import WeatherModel

__all__ = ["FaultKind", "FaultEvent", "FaultSchedule"]


class FaultKind(enum.Enum):
    """The fault-event taxonomy (see DESIGN.md "Fault model")."""

    #: A satellite goes dark: all its ISLs and GSLs vanish while active.
    SATELLITE_OUTAGE = "satellite_outage"

    #: One inter-satellite link is cut (both directions).
    ISL_CUT = "isl_cut"

    #: A ground station loses all its GSLs (uplink and downlink).
    GSL_CUT = "gsl_cut"

    #: A ground station's effective minimum elevation rises by
    #: ``elevation_penalty_deg`` (rain attenuation; >= 90 is a full cut).
    GSL_ATTENUATION = "gsl_attenuation"

    #: Stochastic packet loss at rate ``rate`` on one link's devices.
    PACKET_LOSS = "packet_loss"

    #: Stochastic packet corruption at rate ``rate`` (corrupted packets
    #: are discarded at the transmitter, like loss, but accounted apart).
    PACKET_CORRUPTION = "packet_corruption"


#: Kinds that target an ISL / a ground station, for validation.
_ISL_KINDS = (FaultKind.ISL_CUT, FaultKind.PACKET_LOSS,
              FaultKind.PACKET_CORRUPTION)
_GID_KINDS = (FaultKind.GSL_CUT, FaultKind.GSL_ATTENUATION,
              FaultKind.PACKET_LOSS, FaultKind.PACKET_CORRUPTION)


@dataclass(frozen=True)
class FaultEvent:
    """One fault episode, active over ``[start_s, end_s)``.

    Exactly one target field is set, depending on ``kind``:
    ``satellite`` (SATELLITE_OUTAGE), ``isl`` (ISL_CUT, or loss/corruption
    on an ISL), or ``gid`` (GSL_CUT / GSL_ATTENUATION, or loss/corruption
    on a station's uplink device).  Use the classmethod constructors.

    Attributes:
        kind: The fault taxonomy entry.
        start_s / end_s: Active interval (end exclusive — recovery time).
        satellite: Failed satellite id (SATELLITE_OUTAGE only).
        isl: Normalized ``(min, max)`` satellite pair of the targeted ISL.
        gid: Targeted ground station.
        rate: Per-packet drop probability (loss/corruption kinds).
        elevation_penalty_deg: Added minimum elevation (GSL_ATTENUATION).
    """

    kind: FaultKind
    start_s: float
    end_s: float
    satellite: Optional[int] = None
    isl: Optional[Tuple[int, int]] = None
    gid: Optional[int] = None
    rate: float = 1.0
    elevation_penalty_deg: float = 0.0

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ValueError(
                f"fault must end after it starts "
                f"({self.start_s} .. {self.end_s})")
        targets = [t is not None for t in (self.satellite, self.isl,
                                           self.gid)]
        if sum(targets) != 1:
            raise ValueError("exactly one of satellite/isl/gid must be set")
        if self.kind is FaultKind.SATELLITE_OUTAGE and self.satellite is None:
            raise ValueError("satellite outage needs a satellite target")
        if self.kind is FaultKind.ISL_CUT and self.isl is None:
            raise ValueError("ISL cut needs an isl target")
        if self.kind in (FaultKind.GSL_CUT, FaultKind.GSL_ATTENUATION) \
                and self.gid is None:
            raise ValueError(f"{self.kind.value} needs a gid target")
        if self.isl is not None:
            a, b = self.isl
            if a == b:
                raise ValueError("ISL endpoints must differ")
            if (a, b) != (min(a, b), max(a, b)):
                raise ValueError(
                    f"isl pair must be normalized (min, max), got {self.isl}")
        if self.kind in (FaultKind.PACKET_LOSS, FaultKind.PACKET_CORRUPTION):
            if not 0.0 < self.rate <= 1.0:
                raise ValueError(
                    f"loss/corruption rate must be in (0, 1], got {self.rate}")
        if self.elevation_penalty_deg < 0.0:
            raise ValueError("elevation penalty must be non-negative")
        if self.kind is FaultKind.GSL_ATTENUATION \
                and self.elevation_penalty_deg == 0.0:
            raise ValueError("attenuation needs a positive penalty")

    # -- constructors ---------------------------------------------------

    @classmethod
    def satellite_outage(cls, satellite: int, start_s: float,
                         end_s: float) -> "FaultEvent":
        """A satellite goes dark over ``[start_s, end_s)``."""
        return cls(FaultKind.SATELLITE_OUTAGE, start_s, end_s,
                   satellite=int(satellite))

    @classmethod
    def isl_cut(cls, sat_a: int, sat_b: int, start_s: float,
                end_s: float) -> "FaultEvent":
        """One ISL is cut (both directions)."""
        a, b = int(sat_a), int(sat_b)
        return cls(FaultKind.ISL_CUT, start_s, end_s,
                   isl=(min(a, b), max(a, b)))

    @classmethod
    def gsl_cut(cls, gid: int, start_s: float, end_s: float) -> "FaultEvent":
        """A ground station loses all GSL connectivity."""
        return cls(FaultKind.GSL_CUT, start_s, end_s, gid=int(gid))

    @classmethod
    def gsl_attenuation(cls, gid: int, start_s: float, end_s: float,
                        elevation_penalty_deg: float) -> "FaultEvent":
        """Rain-style elevation penalty over one station."""
        return cls(FaultKind.GSL_ATTENUATION, start_s, end_s, gid=int(gid),
                   elevation_penalty_deg=float(elevation_penalty_deg))

    @classmethod
    def packet_loss(cls, start_s: float, end_s: float, rate: float,
                    isl: Optional[Tuple[int, int]] = None,
                    gid: Optional[int] = None) -> "FaultEvent":
        """Stochastic loss on an ISL (both directions) or a GS uplink."""
        if isl is not None:
            a, b = int(isl[0]), int(isl[1])
            isl = (min(a, b), max(a, b))
        return cls(FaultKind.PACKET_LOSS, start_s, end_s, isl=isl,
                   gid=int(gid) if gid is not None else None,
                   rate=float(rate))

    @classmethod
    def packet_corruption(cls, start_s: float, end_s: float, rate: float,
                          isl: Optional[Tuple[int, int]] = None,
                          gid: Optional[int] = None) -> "FaultEvent":
        """Stochastic corruption on an ISL or a GS uplink."""
        if isl is not None:
            a, b = int(isl[0]), int(isl[1])
            isl = (min(a, b), max(a, b))
        return cls(FaultKind.PACKET_CORRUPTION, start_s, end_s, isl=isl,
                   gid=int(gid) if gid is not None else None,
                   rate=float(rate))

    # -- queries --------------------------------------------------------

    def active_at(self, time_s: float) -> bool:
        """Whether the event is active at ``time_s`` (end exclusive)."""
        return self.start_s <= time_s < self.end_s

    @property
    def is_stochastic(self) -> bool:
        """Loss/corruption events act per packet, not on the topology."""
        return self.kind in (FaultKind.PACKET_LOSS,
                             FaultKind.PACKET_CORRUPTION)

    # -- (de)serialization ----------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """Compact JSON-friendly form (sentinel fields omitted)."""
        record: Dict[str, Any] = {
            "kind": self.kind.value,
            "start_s": self.start_s,
            "end_s": self.end_s,
        }
        if self.satellite is not None:
            record["satellite"] = self.satellite
        if self.isl is not None:
            record["isl"] = list(self.isl)
        if self.gid is not None:
            record["gid"] = self.gid
        if self.is_stochastic:
            record["rate"] = self.rate
        if self.kind is FaultKind.GSL_ATTENUATION:
            record["elevation_penalty_deg"] = self.elevation_penalty_deg
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "FaultEvent":
        isl = record.get("isl")
        return cls(
            kind=FaultKind(record["kind"]),
            start_s=float(record["start_s"]),
            end_s=float(record["end_s"]),
            satellite=record.get("satellite"),
            isl=tuple(int(s) for s in isl) if isl is not None else None,
            gid=record.get("gid"),
            rate=float(record.get("rate", 1.0)),
            elevation_penalty_deg=float(
                record.get("elevation_penalty_deg", 0.0)),
        )


def _sort_key(event: FaultEvent) -> tuple:
    """Total, content-only order — schedules with equal events compare
    and iterate identically regardless of construction order."""
    return (event.start_s, event.end_s, event.kind.value,
            -1 if event.satellite is None else event.satellite,
            event.isl if event.isl is not None else (-1, -1),
            -1 if event.gid is None else event.gid,
            event.rate, event.elevation_penalty_deg)


class FaultSchedule:
    """An immutable, time-queryable collection of fault events.

    Args:
        events: The fault events, any order (stored schedule-sorted).
        seed: Base seed of the packet-level Bernoulli streams (each
            device derives its own stream from ``(seed, device name)``).

    Example::

        schedule = FaultSchedule([
            FaultEvent.satellite_outage(17, start_s=30.0, end_s=90.0),
            FaultEvent.packet_loss(10.0, 20.0, rate=0.05, isl=(3, 4)),
        ])
        network = LeoNetwork(..., faults=schedule)
    """

    def __init__(self, events: Sequence[FaultEvent] = (),
                 seed: int = 0) -> None:
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=_sort_key))
        self.seed = int(seed)

    # -- container protocol ---------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return self.events == other.events and self.seed == other.seed

    def __repr__(self) -> str:
        return (f"FaultSchedule({len(self.events)} events, "
                f"seed={self.seed})")

    @property
    def num_events(self) -> int:
        return len(self.events)

    @property
    def is_empty(self) -> bool:
        return not self.events

    @property
    def end_s(self) -> float:
        """When the last event recovers (0 for an empty schedule)."""
        return max((event.end_s for event in self.events), default=0.0)

    def merged(self, other: "FaultSchedule") -> "FaultSchedule":
        """Union of two schedules (keeps this schedule's seed)."""
        return FaultSchedule(self.events + other.events, seed=self.seed)

    # -- time queries (all pure functions of t) -------------------------

    def active_at(self, time_s: float) -> List[FaultEvent]:
        """Every event active at ``time_s``, in schedule order."""
        return [event for event in self.events if event.active_at(time_s)]

    def failed_satellites_at(self, time_s: float) -> FrozenSet[int]:
        """Satellites in outage at ``time_s``."""
        return frozenset(
            event.satellite for event in self.events
            if event.kind is FaultKind.SATELLITE_OUTAGE
            and event.active_at(time_s))

    def cut_isls_at(self, time_s: float) -> FrozenSet[Tuple[int, int]]:
        """Normalized (min, max) pairs of ISLs cut at ``time_s``."""
        return frozenset(
            event.isl for event in self.events
            if event.kind is FaultKind.ISL_CUT and event.active_at(time_s))

    def cut_gids_at(self, time_s: float) -> FrozenSet[int]:
        """Ground stations with all GSLs cut at ``time_s``."""
        return frozenset(
            event.gid for event in self.events
            if event.kind is FaultKind.GSL_CUT and event.active_at(time_s))

    def elevation_penalty_deg(self, gid: int, time_s: float) -> float:
        """Summed attenuation penalty over station ``gid`` at ``time_s``.

        Addition is commutative, so overlapping events stack
        order-independently (the property test's invariant).
        """
        return sum(event.elevation_penalty_deg for event in self.events
                   if event.kind is FaultKind.GSL_ATTENUATION
                   and event.gid == gid and event.active_at(time_s))

    def loss_events_for_isl(self, sat_a: int, sat_b: int
                            ) -> Tuple[FaultEvent, ...]:
        """Loss/corruption events targeting one ISL (any direction)."""
        key = (min(sat_a, sat_b), max(sat_a, sat_b))
        return tuple(event for event in self.events
                     if event.is_stochastic and event.isl == key)

    def loss_events_for_gid(self, gid: int) -> Tuple[FaultEvent, ...]:
        """Loss/corruption events targeting one station's uplink."""
        return tuple(event for event in self.events
                     if event.is_stochastic and event.gid == gid)

    def combined_rate(self, events: Sequence[FaultEvent],
                      time_s: float) -> float:
        """Active events' rates combined as independent Bernoulli trials:
        ``1 - prod(1 - r_i)`` — order-independent by construction."""
        survive = 1.0
        for event in events:
            if event.active_at(time_s):
                survive *= 1.0 - event.rate
        return 1.0 - survive

    def capacity_factors(self, devices: Sequence[Hashable],
                         num_satellites: int, time_s: float) -> List[float]:
        """Effective capacity multipliers of fluid-engine device keys.

        Device keys follow :func:`repro.fluid.engine.path_devices`:
        ``(a, b)`` for a directed ISL, ``("gsl", node)`` for a node's
        shared GSL device.  Cut/outaged links are zero-capacity; active
        loss/corruption scales capacity by the expected survival rate.
        The active sets are evaluated once for the whole batch: the
        events are scanned per call, not per device.
        """
        failed = self.failed_satellites_at(time_s)
        cut_isls = self.cut_isls_at(time_s)
        cut_gids = self.cut_gids_at(time_s)
        # Active loss/corruption events per target (an ISL pair or a
        # gid), in schedule order like ``loss_events_for_*``.
        lossy: Dict[Hashable, List[FaultEvent]] = {}
        for event in self.events:
            if event.is_stochastic and event.active_at(time_s):
                target = event.isl if event.isl is not None else event.gid
                lossy.setdefault(target, []).append(event)
        factors = []
        for device in devices:
            if isinstance(device, tuple) and len(device) == 2 \
                    and device[0] == "gsl":
                node = int(device[1])
                if node < num_satellites:  # a satellite's GSL device
                    factors.append(0.0 if node in failed else 1.0)
                    continue
                target = node - num_satellites
                dead = target in cut_gids
            else:
                a, b = int(device[0]), int(device[1])
                target = (min(a, b), max(a, b))
                dead = a in failed or b in failed or target in cut_isls
            factors.append(0.0 if dead else 1.0 - self.combined_rate(
                lossy.get(target, ()), time_s))
        return factors

    # -- producers ------------------------------------------------------

    @classmethod
    def from_weather(cls, weather: WeatherModel,
                     seed: int = 0) -> "FaultSchedule":
        """The weather model expressed as GSL attenuation fault events.

        This is the unification hook: :class:`LeoNetwork` folds a
        configured :class:`~repro.ground.weather.WeatherModel` into its
        fault schedule through this conversion, so rain and explicit
        faults act through one code path.  Penalties sum identically to
        :meth:`WeatherModel.penalty_deg`.
        """
        return cls([
            FaultEvent.gsl_attenuation(
                rain.gid, rain.start_s, rain.end_s,
                elevation_penalty_deg=rain.elevation_penalty_deg)
            for rain in weather.iter_events()
            if rain.elevation_penalty_deg > 0.0
        ], seed=seed)

    @classmethod
    def synthetic(cls, num_satellites: int, num_stations: int,
                  duration_s: float, seed: int = 0,
                  satellite_outage_probability: float = 0.02,
                  gsl_cut_probability: float = 0.05,
                  loss_probability: float = 0.05,
                  mean_duration_s: float = 30.0,
                  mean_loss_rate: float = 0.05,
                  isl_pairs: Optional[Sequence[Tuple[int, int]]] = None,
                  isl_cut_probability: float = 0.002,
                  ) -> "FaultSchedule":
        """A seeded random fault schedule (mirrors
        :meth:`WeatherModel.synthetic`).

        Each satellite independently suffers an outage with
        ``satellite_outage_probability``; each station a GSL cut with
        ``gsl_cut_probability`` and a lossy-uplink episode with
        ``loss_probability``; each ISL (when ``isl_pairs`` is given) a
        cut with ``isl_cut_probability``.  Starts are uniform over the
        run, durations exponential around ``mean_duration_s``, loss
        rates exponential around ``mean_loss_rate`` (capped at 1).
        Identical arguments produce an identical, schedule-sorted event
        list.
        """
        for name, p in (("satellite outage", satellite_outage_probability),
                        ("gsl cut", gsl_cut_probability),
                        ("loss", loss_probability),
                        ("isl cut", isl_cut_probability)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} probability must be in [0, 1]")
        rng = random.Random(seed)
        events: List[FaultEvent] = []

        def window() -> Tuple[float, float]:
            start = rng.uniform(0.0, duration_s)
            length = max(1.0, rng.expovariate(1.0 / mean_duration_s))
            return start, min(start + length, duration_s + 1.0)

        for sat in range(num_satellites):
            if rng.random() < satellite_outage_probability:
                start, end = window()
                events.append(FaultEvent.satellite_outage(sat, start, end))
        for gid in range(num_stations):
            if rng.random() < gsl_cut_probability:
                start, end = window()
                events.append(FaultEvent.gsl_cut(gid, start, end))
            if rng.random() < loss_probability:
                start, end = window()
                rate = min(1.0, max(0.005,
                                    rng.expovariate(1.0 / mean_loss_rate)))
                events.append(FaultEvent.packet_loss(start, end, rate,
                                                     gid=gid))
        if isl_pairs is not None:
            for a, b in isl_pairs:
                if rng.random() < isl_cut_probability:
                    start, end = window()
                    events.append(FaultEvent.isl_cut(int(a), int(b),
                                                     start, end))
        return cls(events, seed=seed)

    # -- (de)serialization ----------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "events": [event.as_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultSchedule":
        if "events" not in payload:
            raise ValueError("fault schedule payload has no 'events' key")
        return cls([FaultEvent.from_dict(record)
                    for record in payload["events"]],
                   seed=int(payload.get("seed", 0)))

    def to_json(self, path: str, indent: Optional[int] = 1) -> None:
        """Write the schedule as JSON (the ``--faults`` file format)."""
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(self.as_dict(), stream, indent=indent)
            stream.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "FaultSchedule":
        """Load a schedule written by :meth:`to_json`."""
        with open(path, "r", encoding="utf-8") as stream:
            return cls.from_dict(json.load(stream))
