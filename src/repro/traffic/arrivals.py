"""Stochastic flow churn: seeded Poisson arrivals with heavy-tail sizes.

The paper's §5.4 workload is a fixed set of *infinite* flows; real
platforms see flows arrive, transfer a finite number of bytes, and leave.
:class:`FlowArrivalProcess` turns a :class:`~repro.traffic.matrix.
TrafficMatrix` into that dynamic workload: each city pair gets an
independent Poisson arrival process whose rate is proportional to the
pair's matrix demand, and each flow draws a size from an exponential,
lognormal, or Pareto distribution with a configurable mean.

Determinism contract (mirroring :mod:`repro.faults`):

* Every pair owns its own :class:`random.Random` stream seeded with the
  *string* ``"{seed}:{src}:{dst}"`` — CPython hashes string seeds with
  sha512, so streams are stable across processes and independent of
  ``PYTHONHASHSEED``.
* Streams never couple: adding a pair to the matrix, or changing one
  pair's demand, cannot perturb any other pair's flows.  Two schedules
  generated from disjoint matrices merge into exactly the schedule the
  union matrix would generate.
* A :class:`WorkloadSchedule` is pure data — frozen dataclass events,
  content-sorted, picklable, JSON round-trippable — so it crosses the
  sweep-engine process boundary inside
  :class:`repro.sweep.NetworkSpec` untouched (``workers=N`` stays
  bit-identical to serial).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from ..faults.schedule import exact_int
from .matrix import TrafficMatrix

__all__ = ["FlowRequest", "WorkloadSchedule", "FlowArrivalProcess",
           "SIZE_DISTRIBUTIONS"]

#: Supported flow-size distributions.
SIZE_DISTRIBUTIONS = ("exponential", "lognormal", "pareto")

#: Shape of the lognormal flow sizes (σ of the underlying normal).
LOGNORMAL_SIGMA = 1.0

#: Pareto tail index of the flow sizes: above 1 the mean exists, above 2
#: the variance too.
PARETO_ALPHA = 2.5

#: Per-flow size floor after drawing.
MIN_SIZE_BYTES = 1_000

#: A request's integer fields, and their bound: a spec fingerprint
#: packs them as int64.
_INTEGER_FIELDS = ("src_gid", "dst_gid", "size_bytes")
_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class FlowRequest:
    """One finite transfer: ``size_bytes`` from ``src_gid`` to ``dst_gid``
    starting at ``t_start_s``.

    Attributes:
        t_start_s: Arrival (start) time, seconds.
        src_gid: Source ground station.
        dst_gid: Destination ground station.
        size_bytes: Transfer size (application payload), bytes.
    """

    t_start_s: float
    src_gid: int
    dst_gid: int
    size_bytes: int

    def __post_init__(self) -> None:
        if self.t_start_s < 0.0 or not math.isfinite(self.t_start_s):
            raise ValueError(
                f"start time must be finite and >= 0, got {self.t_start_s}")
        # Outside input (a JSON workload) may spell 3 as 3.0, but a
        # fraction or a bool is refused, not truncated.
        if not (type(self.src_gid) is type(self.dst_gid)
                is type(self.size_bytes) is int):
            for name in _INTEGER_FIELDS:
                object.__setattr__(self, name, exact_int(
                    getattr(self, name), f"flow {name}"))
        if max(self.src_gid, self.dst_gid, self.size_bytes) > _INT64_MAX:
            raise ValueError(
                f"flow gids and size must fit in 64 bits, got "
                f"{self.src_gid} -> {self.dst_gid}, {self.size_bytes} bytes")
        if self.src_gid == self.dst_gid:
            raise ValueError("flow endpoints must differ")
        if self.src_gid < 0 or self.dst_gid < 0:
            raise ValueError("gids must be non-negative")
        if self.size_bytes <= 0:
            raise ValueError(
                f"flow size must be positive, got {self.size_bytes}")

    def __reduce__(self):
        # Pickled by value: the default pickling leaves every request
        # with an instance dict (CPython >= 3.11), and a parallel sweep
        # ships a workload's ~10^4 of them in every worker's spec.
        return (FlowRequest, (self.t_start_s, self.src_gid, self.dst_gid,
                              self.size_bytes))

    def as_dict(self) -> Dict[str, Any]:
        return {"t_start_s": self.t_start_s, "src_gid": self.src_gid,
                "dst_gid": self.dst_gid, "size_bytes": self.size_bytes}

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "FlowRequest":
        if not isinstance(record, dict):
            raise ValueError(
                f"a flow request must be a JSON object, got {record!r}")
        return cls(t_start_s=float(record["t_start_s"]),
                   src_gid=record["src_gid"], dst_gid=record["dst_gid"],
                   size_bytes=record["size_bytes"])


def _sort_key(request: FlowRequest) -> tuple:
    """Total, content-only order — schedules built from the same requests
    compare and iterate identically regardless of construction order."""
    return (request.t_start_s, request.src_gid, request.dst_gid,
            request.size_bytes)


class WorkloadSchedule:
    """An immutable, time-sorted collection of flow requests.

    Args:
        requests: The flow requests, any order (stored schedule-sorted).
        seed: The generating process's base seed (carried for provenance
            and for deriving per-flow packet-level streams).

    Example::

        matrix = TrafficMatrix.gravity(count=20, total_offered_bps=5e8)
        schedule = FlowArrivalProcess(matrix, seed=7).generate(60.0)
        flows = schedule.as_fluid_flows()
    """

    def __init__(self, requests: Sequence[FlowRequest] = (),
                 seed: int = 0) -> None:
        self.requests: Tuple[FlowRequest, ...] = tuple(
            sorted(requests, key=_sort_key))
        self.seed = int(seed)

    # -- container protocol ---------------------------------------------

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[FlowRequest]:
        return iter(self.requests)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkloadSchedule):
            return NotImplemented
        return self.requests == other.requests and self.seed == other.seed

    def __repr__(self) -> str:
        return (f"WorkloadSchedule({len(self.requests)} flows, "
                f"seed={self.seed})")

    @property
    def num_flows(self) -> int:
        return len(self.requests)

    @property
    def is_empty(self) -> bool:
        return not self.requests

    @property
    def end_s(self) -> float:
        """When the last flow *starts* (0 for an empty schedule)."""
        return max((r.t_start_s for r in self.requests), default=0.0)

    @property
    def offered_bits(self) -> float:
        """Total offered volume across all flows (bits)."""
        return float(sum(r.size_bytes for r in self.requests)) * 8.0

    def offered_load_bps(self, duration_s: float) -> float:
        """Aggregate offered load if served over ``duration_s``."""
        if duration_s <= 0.0:
            raise ValueError("duration must be positive")
        return self.offered_bits / duration_s

    def pairs(self) -> List[Tuple[int, int]]:
        """Distinct (src, dst) pairs, sorted — the sweep-facing pair set."""
        return sorted({(r.src_gid, r.dst_gid) for r in self.requests})

    def shifted(self, dt_s: float) -> "WorkloadSchedule":
        """The same requests, every start time moved by ``dt_s``.

        How a workload authored relative to t=0 is attached to a live
        service mid-flight: shift it to the service's current epoch
        boundary so no request starts in the simulated past.
        """
        return WorkloadSchedule(
            [FlowRequest(t_start_s=r.t_start_s + dt_s, src_gid=r.src_gid,
                         dst_gid=r.dst_gid, size_bytes=r.size_bytes)
             for r in self.requests],
            seed=self.seed)

    def as_fluid_flows(self) -> list:
        """The schedule as finite, elastic
        :class:`~repro.fluid.engine.FluidFlow` s (flow *f* is request *f*,
        index-aligned with the schedule order)."""
        from ..fluid.engine import FluidFlow
        return [FluidFlow(r.src_gid, r.dst_gid, start_s=r.t_start_s,
                          size_bytes=float(r.size_bytes))
                for r in self.requests]

    # -- (de)serialization ----------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "flows": [request.as_dict() for request in self.requests],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "WorkloadSchedule":
        if not isinstance(payload, dict):
            raise ValueError(
                f"a workload must be a JSON object, got {payload!r}")
        if "flows" not in payload:
            raise ValueError("workload payload has no 'flows' key")
        flows = payload["flows"]
        if not isinstance(flows, list):
            raise ValueError(
                f"workload 'flows' must be a list, got {flows!r}")
        return cls([FlowRequest.from_dict(record) for record in flows],
                   seed=exact_int(payload.get("seed", 0), "workload seed"))

    def to_json(self, path: str) -> None:
        """Write the schedule as JSON (the ``--workload`` file format)."""
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(self.as_dict(), stream, indent=1)
            stream.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "WorkloadSchedule":
        """Load a schedule written by :meth:`to_json`."""
        with open(path, "r", encoding="utf-8") as stream:
            return cls.from_dict(json.load(stream))


class FlowArrivalProcess:
    """Seeded Poisson flow arrivals proportional to a traffic matrix.

    Each pair ``(i, j)`` with matrix demand ``d`` gets flows at rate
    ``λ = d / (8 · mean_size_bytes)`` per second, so the *expected*
    offered load per pair equals the matrix entry.  Sizes are drawn per
    flow from the configured distribution with mean ``mean_size_bytes``.

    Args:
        matrix: The demand matrix.
        mean_size_bytes: Mean flow size.
        size_distribution: ``"exponential"``, ``"lognormal"``, or
            ``"pareto"``.
        seed: Base seed; each pair derives its own sha512 string-seeded
            stream as ``Random(f"{seed}:{src}:{dst}")``.

    The lognormal has σ = :data:`LOGNORMAL_SIGMA`, the Pareto tail index
    :data:`PARETO_ALPHA`; both keep the configured mean.  Every size is
    at least :data:`MIN_SIZE_BYTES`.
    """

    def __init__(self, matrix: TrafficMatrix,
                 mean_size_bytes: float = 1_000_000.0,
                 size_distribution: str = "exponential",
                 seed: int = 0) -> None:
        if not 0.0 < mean_size_bytes < math.inf:
            raise ValueError(
                f"mean flow size must be positive and finite, got "
                f"{mean_size_bytes}")
        if size_distribution not in SIZE_DISTRIBUTIONS:
            raise ValueError(
                f"unknown size distribution {size_distribution!r}; "
                f"known: {SIZE_DISTRIBUTIONS}")
        self.matrix = matrix
        self.mean_size_bytes = float(mean_size_bytes)
        self.size_distribution = size_distribution
        self.seed = int(seed)
        # Distribution parameters hit the configured mean exactly:
        # lognormal mean = exp(μ + σ²/2); Pareto mean = xm·α/(α-1).
        self._lognormal_mu = (math.log(self.mean_size_bytes)
                              - 0.5 * LOGNORMAL_SIGMA ** 2)
        self._pareto_xm = (self.mean_size_bytes
                           * (PARETO_ALPHA - 1.0) / PARETO_ALPHA)

    def pair_arrival_rate(self, src_gid: int, dst_gid: int) -> float:
        """Poisson flow-arrival rate of one pair (flows/second)."""
        return (self.matrix.rate_bps(src_gid, dst_gid)
                / (8.0 * self.mean_size_bytes))

    def _draw_size_bytes(self, rng: random.Random) -> int:
        if self.size_distribution == "exponential":
            size = rng.expovariate(1.0 / self.mean_size_bytes)
        elif self.size_distribution == "lognormal":
            size = rng.lognormvariate(self._lognormal_mu, LOGNORMAL_SIGMA)
        else:  # pareto
            size = self._pareto_xm * rng.paretovariate(PARETO_ALPHA)
        return max(MIN_SIZE_BYTES, int(round(size)))

    def generate(self, duration_s: float) -> WorkloadSchedule:
        """A deterministic workload over ``[0, duration_s)``.

        Identical ``(matrix, parameters, seed)`` produce an identical,
        schedule-sorted request list; pairs are independent, so schedules
        from sub-matrices merge into the union's schedule.
        """
        if not 0.0 < duration_s < math.inf:
            raise ValueError(
                f"duration must be positive and finite, got {duration_s}")
        requests: List[FlowRequest] = []
        for src, dst in self.matrix.pairs():
            rate = self.pair_arrival_rate(src, dst)
            if rate <= 0.0:
                continue
            # Per pair: gap, size, gap, size, ...
            rng = random.Random(f"{self.seed}:{src}:{dst}")
            t = rng.expovariate(rate)
            while t < duration_s:
                requests.append(FlowRequest(
                    t_start_s=t, src_gid=src, dst_gid=dst,
                    size_bytes=self._draw_size_bytes(rng)))
                t += rng.expovariate(rate)
        return WorkloadSchedule(requests, seed=self.seed)
