"""Deterministic fault schedules: what breaks, when, and for how long.

Paper §7 invites reliability work ("rerouting around failures and bad
weather").  This module is the repo's fault model: a
:class:`FaultSchedule` is an explicit, seeded, *plain-data* list of
:class:`FaultEvent` s — satellite outages, ISL cuts, ground-station (GSL)
cuts, rain attenuation, and stochastic packet loss on a station's
uplink — each with a start and an end (recovery).  Rain is not a
separate model: a storm is a ``GSL_ATTENUATION`` event, and
:meth:`FaultSchedule.storms` draws a seeded storm schedule.

Design contract (the determinism the test suite enforces):

* A schedule is pure data: frozen dataclasses, picklable, JSON
  round-trippable.  It crosses the sweep-engine process boundary inside
  :class:`repro.sweep.NetworkSpec` untouched, so ``workers=N`` stays
  bit-identical to serial.
* All queries are functions of time only.  Overlapping events *stack*
  order-independently: elevation penalties add, loss rates combine as
  ``1 - prod(1 - r_i)``.
* An event carries no field its kind ignores: a ``rate`` other than 1
  belongs to loss only, an elevation penalty to attenuation only, so
  equal ``as_dict()`` forms mean equal events.
* Topology faults (outages/cuts) act through
  :meth:`repro.topology.network.LeoNetwork.snapshot` — routing reroutes
  at the next forwarding tick, never retroactively.
* Packet loss acts through the per-device seeded Bernoulli hook
  (:class:`repro.faults.injector.LinkFaultInjector`), whose RNG stream
  depends only on ``(schedule.seed, device name)``.
"""

from __future__ import annotations

import enum
import json
import numbers
import random
from dataclasses import dataclass
from typing import (Any, Callable, Dict, FrozenSet, Hashable, Iterator, List,
                    Optional, Sequence, Tuple)

__all__ = ["FaultKind", "FaultEvent", "FaultSchedule", "each", "exact_int",
           "real", "required"]

#: Mean of :meth:`FaultSchedule.synthetic`'s exponential loss-rate draws.
MEAN_LOSS_RATE = 0.05


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

    #: Stochastic packet loss at rate ``rate`` on a station's uplink.
    PACKET_LOSS = "packet_loss"


#: The kinds each target field may carry, for validation.
_TARGET_KINDS = {
    "satellite": (FaultKind.SATELLITE_OUTAGE,),
    "isl": (FaultKind.ISL_CUT,),
    "gid": (FaultKind.GSL_CUT, FaultKind.GSL_ATTENUATION,
            FaultKind.PACKET_LOSS),
}


def exact_int(value: Any, name: str) -> int:
    """An index or count read from outside input: an int, or an integral
    float (JSON may spell 3 as 3.0) — never a bool or a fraction to
    truncate.  ``name`` labels the ``ValueError``."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral)
            or (isinstance(value, float) and value.is_integer())):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def real(value: Any, name: str) -> float:
    """A number read from outside input, as ``float`` reads it; whatever
    ``float`` refuses is a ``ValueError`` labelled ``name``."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def required(record: Any, key: str, what: str) -> Any:
    """Field ``key`` of ``what``, a JSON object read from outside input.
    A record that is no object, or lacks the field, is a ``ValueError``
    naming both."""
    if not isinstance(record, dict):
        raise ValueError(f"{what} must be a JSON object, got {record!r}")
    if key not in record:
        raise ValueError(f"{what} has no {key!r} field")
    return record[key]


def each(records: Any, parse: Callable[[Any], Any], name: str
         ) -> List[Any]:
    """``parse`` of every record of the JSON list field ``name``; its
    ``ValueError`` is re-raised naming the record's index."""
    if not isinstance(records, list):
        raise ValueError(f"{name!r} must be a list, got {records!r}")
    parsed = []
    for index, record in enumerate(records):
        try:
            parsed.append(parse(record))
        except ValueError as error:
            raise ValueError(f"{name}[{index}]: {error}") from None
    return parsed


@dataclass(frozen=True)
class FaultEvent:
    """One fault episode, active over ``[start_s, end_s)``.

    Exactly one target field is set, depending on ``kind``:
    ``satellite`` (SATELLITE_OUTAGE), ``isl`` (ISL_CUT), or ``gid``
    (GSL_CUT / GSL_ATTENUATION, or PACKET_LOSS on a station's uplink
    device).  Use the classmethod constructors.

    Attributes:
        kind: The fault taxonomy entry.
        start_s / end_s: Active interval (end exclusive — recovery time).
        satellite: Failed satellite id (SATELLITE_OUTAGE only).
        isl: Normalized ``(min, max)`` satellite pair of the targeted ISL.
        gid: Targeted ground station.
        rate: Per-packet drop probability (PACKET_LOSS only).
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
        # Negated comparisons: a NaN fails every comparison, so it is
        # rejected here instead of silently never firing.
        if not self.end_s > self.start_s:
            raise ValueError(
                f"fault must end after it starts "
                f"({self.start_s} .. {self.end_s})")
        targets = [name for name in _TARGET_KINDS
                   if getattr(self, name) is not None]
        if len(targets) != 1:
            raise ValueError("exactly one of satellite/isl/gid must be set")
        (target,) = targets
        if self.kind not in _TARGET_KINDS[target]:
            raise ValueError(f"{self.kind.value} cannot target a {target}")
        if target == "isl":
            a, b = (exact_int(end, "fault isl endpoint")
                    for end in self.isl)
            if a == b:
                raise ValueError("ISL endpoints must differ")
            if a > b:
                raise ValueError(
                    f"isl pair must be normalized (min, max), got {self.isl}")
            object.__setattr__(self, "isl", (a, b))
        else:
            object.__setattr__(self, target, exact_int(
                getattr(self, target), f"fault {target}"))
        if self.kind is FaultKind.PACKET_LOSS:
            if not 0.0 < self.rate <= 1.0:
                raise ValueError(
                    f"loss rate must be in (0, 1], got {self.rate}")
        elif self.rate != 1.0:
            raise ValueError(f"{self.kind.value} carries no rate, "
                             f"got rate={self.rate}")
        if not self.elevation_penalty_deg >= 0.0:
            raise ValueError(f"elevation penalty must be non-negative, "
                             f"got {self.elevation_penalty_deg}")
        if self.kind is FaultKind.GSL_ATTENUATION:
            if self.elevation_penalty_deg == 0.0:
                raise ValueError("attenuation needs a positive penalty")
        elif self.elevation_penalty_deg != 0.0:
            raise ValueError(
                f"{self.kind.value} carries no elevation_penalty_deg, "
                f"got {self.elevation_penalty_deg}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def satellite_outage(cls, satellite: int, start_s: float,
                         end_s: float) -> "FaultEvent":
        """A satellite goes dark over ``[start_s, end_s)``."""
        return cls(FaultKind.SATELLITE_OUTAGE, start_s, end_s,
                   satellite=satellite)

    @classmethod
    def isl_cut(cls, sat_a: int, sat_b: int, start_s: float,
                end_s: float) -> "FaultEvent":
        """One ISL is cut (both directions)."""
        return cls(FaultKind.ISL_CUT, start_s, end_s,
                   isl=(min(sat_a, sat_b), max(sat_a, sat_b)))

    @classmethod
    def gsl_cut(cls, gid: int, start_s: float, end_s: float) -> "FaultEvent":
        """A ground station loses all GSL connectivity."""
        return cls(FaultKind.GSL_CUT, start_s, end_s, gid=gid)

    @classmethod
    def gsl_attenuation(cls, gid: int, start_s: float, end_s: float,
                        elevation_penalty_deg: float) -> "FaultEvent":
        """Rain over one station: its minimum elevation rises."""
        return cls(FaultKind.GSL_ATTENUATION, start_s, end_s, gid=gid,
                   elevation_penalty_deg=float(elevation_penalty_deg))

    @classmethod
    def packet_loss(cls, start_s: float, end_s: float, rate: float,
                    gid: int) -> "FaultEvent":
        """Stochastic loss on a ground station's uplink."""
        return cls(FaultKind.PACKET_LOSS, start_s, end_s, gid=gid,
                   rate=float(rate))

    # -- queries --------------------------------------------------------

    def active_at(self, time_s: float) -> bool:
        """Whether the event is active at ``time_s`` (end exclusive)."""
        return self.start_s <= time_s < self.end_s

    @property
    def is_stochastic(self) -> bool:
        """Loss events act per packet, not on the topology."""
        return self.kind is FaultKind.PACKET_LOSS

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
        """The event an :meth:`as_dict` record describes; a missing or
        mistyped field is a ``ValueError`` naming it."""
        what = "a fault event"
        kind = FaultKind(required(record, "kind", what))
        isl = record.get("isl")
        if not (isl is None or isinstance(isl, (list, tuple))):
            raise ValueError(f"isl must be a satellite pair, got {isl!r}")
        return cls(
            kind=kind,
            start_s=real(required(record, "start_s", what), "start_s"),
            end_s=real(required(record, "end_s", what), "end_s"),
            satellite=record.get("satellite"),
            isl=None if isl is None else tuple(isl),
            gid=record.get("gid"),
            rate=real(record.get("rate", 1.0), "rate"),
            elevation_penalty_deg=real(
                record.get("elevation_penalty_deg", 0.0),
                "elevation_penalty_deg"),
        )


def _sort_key(event: FaultEvent) -> tuple:
    """Total, content-only order — schedules with equal events compare
    and iterate identically regardless of construction order."""
    return (event.start_s, event.end_s, event.kind.value,
            -1 if event.satellite is None else event.satellite,
            event.isl if event.isl is not None else (-1, -1),
            -1 if event.gid is None else event.gid,
            event.rate, event.elevation_penalty_deg)


def _seeded_windows(seed: int, duration_s: float, mean_duration_s: float,
                    probabilities: Dict[str, float], **positive: float
                    ) -> Tuple[random.Random, Callable[[], Tuple[float,
                                                                float]]]:
    """Check a schedule generator's arguments; return its seeded RNG and
    the event-window draw both generators share.

    A window starts uniformly over the run and lasts an exponential
    draw around ``mean_duration_s`` (at least 1 s), ending no later than
    1 s past the run.
    """
    positive = {"duration_s": duration_s,
                "mean_duration_s": mean_duration_s, **positive}
    for name, value in positive.items():
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value}")
    for name, p in probabilities.items():
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {p}")
    rng = random.Random(seed)

    def window() -> Tuple[float, float]:
        start = rng.uniform(0.0, duration_s)
        length = max(1.0, rng.expovariate(1.0 / mean_duration_s))
        return start, min(start + length, duration_s + 1.0)

    return rng, window


class FaultSchedule:
    """An immutable, time-queryable collection of fault events.

    Args:
        events: The fault events, any order (stored schedule-sorted).
        seed: Base seed of the packet-level Bernoulli streams (each
            device derives its own stream from ``(seed, device name)``).

    Example::

        schedule = FaultSchedule([
            FaultEvent.satellite_outage(17, start_s=30.0, end_s=90.0),
            FaultEvent.packet_loss(10.0, 20.0, rate=0.05, gid=3),
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

    def loss_events_for_gid(self, gid: int) -> Tuple[FaultEvent, ...]:
        """Loss events targeting one station's uplink."""
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
        loss on a station's uplink scales its capacity by the expected
        survival rate.  The active sets are evaluated once for the whole
        batch: the events are scanned per call, not per device.
        """
        failed = self.failed_satellites_at(time_s)
        cut_isls = self.cut_isls_at(time_s)
        cut_gids = self.cut_gids_at(time_s)
        # Active loss events per gid, in schedule order like
        # ``loss_events_for_gid``.
        lossy: Dict[int, List[FaultEvent]] = {}
        for event in self.events:
            if event.is_stochastic and event.active_at(time_s):
                lossy.setdefault(event.gid, []).append(event)
        factors = []
        for device in devices:
            if isinstance(device, tuple) and len(device) == 2 \
                    and device[0] == "gsl":
                node = int(device[1])
                if node < num_satellites:  # a satellite's GSL device
                    factors.append(0.0 if node in failed else 1.0)
                    continue
                gid = node - num_satellites
                factors.append(0.0 if gid in cut_gids
                               else 1.0 - self.combined_rate(
                                   lossy.get(gid, ()), time_s))
            else:
                a, b = int(device[0]), int(device[1])
                dead = (a in failed or b in failed
                        or (min(a, b), max(a, b)) in cut_isls)
                factors.append(0.0 if dead else 1.0)
        return factors

    # -- producers ------------------------------------------------------

    @classmethod
    def storms(cls, num_stations: int, duration_s: float, seed: int = 0,
               probability: float = 0.2, mean_duration_s: float = 60.0,
               penalty_deg: float = 25.0) -> "FaultSchedule":
        """A seeded random storm schedule: ``GSL_ATTENUATION`` events.

        Each station independently gets one storm with ``probability``,
        timed like :meth:`synthetic`'s events, raising its minimum
        elevation by ``penalty_deg`` (90 or more takes it off the air).
        Combine with explicit faults as ``faults.merged(storms)``, which
        keeps the explicit schedule's loss seed.
        """
        rng, window = _seeded_windows(seed, duration_s, mean_duration_s,
                                      {"probability": probability},
                                      penalty_deg=penalty_deg)
        events: List[FaultEvent] = []
        for gid in range(num_stations):
            if rng.random() < probability:
                start, end = window()
                events.append(FaultEvent.gsl_attenuation(
                    gid, start, end, penalty_deg))
        return cls(events, seed=seed)

    @classmethod
    def synthetic(cls, num_satellites: int, num_stations: int,
                  duration_s: float, seed: int = 0,
                  satellite_outage_probability: float = 0.02,
                  gsl_cut_probability: float = 0.05,
                  loss_probability: float = 0.05,
                  mean_duration_s: float = 30.0) -> "FaultSchedule":
        """A seeded random fault schedule.

        Each satellite independently suffers an outage with
        ``satellite_outage_probability``; each station a GSL cut with
        ``gsl_cut_probability`` and a lossy-uplink episode with
        ``loss_probability``.  Starts are uniform over the
        run, durations exponential around ``mean_duration_s``, loss
        rates exponential around :data:`MEAN_LOSS_RATE` (capped at 1).
        Identical arguments produce an identical, schedule-sorted event
        list.
        """
        rng, window = _seeded_windows(
            seed, duration_s, mean_duration_s,
            {"satellite_outage_probability": satellite_outage_probability,
             "gsl_cut_probability": gsl_cut_probability,
             "loss_probability": loss_probability})
        events: List[FaultEvent] = []
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
                                    rng.expovariate(1.0 / MEAN_LOSS_RATE)))
                events.append(FaultEvent.packet_loss(start, end, rate,
                                                     gid=gid))
        return cls(events, seed=seed)

    # -- (de)serialization ----------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "events": [event.as_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultSchedule":
        """The schedule an :meth:`as_dict` payload describes; a missing
        or mistyped field is a ``ValueError`` naming it (and the event's
        index)."""
        return cls(each(required(payload, "events", "a fault schedule"),
                        FaultEvent.from_dict, "events"),
                   seed=exact_int(payload.get("seed", 0), "fault seed"))

    def to_json(self, path: str) -> None:
        """Write the schedule as JSON (the ``--faults`` file format)."""
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(self.as_dict(), stream, indent=1)
            stream.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "FaultSchedule":
        """Load a schedule written by :meth:`to_json`."""
        with open(path, "r", encoding="utf-8") as stream:
            return cls.from_dict(json.load(stream))
