"""Fluid (flow-level) simulation of constellation-wide traffic.

The paper's §5.4 experiment — a fixed permutation of long-running TCP flows
between 100 cities over Kuiper — is packet-simulated in ns-3.  A faithful
pure-Python per-packet reproduction at that scale is computationally out of
reach, so this engine substitutes the standard fluid abstraction:

* at each forwarding-state snapshot, every flow follows its shortest path;
* flow rates are the max-min fair allocation over the same *device*
  capacities the packet simulator models (directional ISL devices, one
  shared GSL device per node);
* per-device utilization and per-pair unused bandwidth follow directly.

The substitution preserves what the experiment measures: how shortest-path
churn reshuffles which flows share which bottlenecks, yielding large
fluctuations in a path's unused bandwidth even under a static traffic
matrix (Fig. 10) and moving hotspots around the constellation
(Figs. 14/15).  The ablation bench ``test_ablation_fluid_vs_packet``
checks the two engines agree on small scenarios.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from math import isfinite
from typing import (Dict, Hashable, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from ..obs import spans
from ..obs.metrics import MetricsRegistry
from ..obs.report import RunReport, fct_summary, fluid_run_report
from ..routing.engine import UNREACHABLE, PathWalk, path_tuples
from ..topology.dynamic_state import make_routing_engine, snapshot_times
from ..topology.network import LeoNetwork
from .vectorized import FlowLinkMatrix, waterfill, waterfill_lists

__all__ = ["ClassPaths", "DeviceIndex", "FluidFlow", "FluidResult",
           "FluidRunState", "FluidSimulation", "SnapshotRecord",
           "path_devices",
           "table_devices",
           "decode_device", "first_appearance_columns",
           "flow_link_matrix_from_paths"]

#: Demand cap for "elastic" flows: far above any single device, so the
#: allocation is capacity-limited, but finite so the solver terminates.
_ELASTIC_DEMAND_CAPACITIES = 100.0

#: Event-time tolerance of the intra-step churn loop (seconds) — also the
#: minimum sub-interval width, so the loop always advances.
_TIME_EPS_S = 1e-9
#: Residual below this many bits counts as a completed transfer (float
#: round-off from ``rate · (residual / rate)`` is far below a byte).
_RESIDUAL_EPS_BITS = 1e-3


@dataclass(frozen=True)
class FluidFlow:
    """One flow of the fluid model.

    Attributes:
        src_gid: Source ground station.
        dst_gid: Destination ground station.
        demand_bps: Rate cap (``inf`` models a greedy long-running TCP).
        size_bytes: Transfer size; ``None`` (default) is a long-running
            flow that never completes, a finite size makes the flow leave
            the allocation once its residual reaches zero.
        start_s: Arrival time; the flow takes no capacity before it.
    """

    src_gid: int
    dst_gid: int
    demand_bps: float = np.inf
    size_bytes: Optional[float] = None
    start_s: float = 0.0

    def __post_init__(self) -> None:
        if self.src_gid == self.dst_gid:
            raise ValueError("flow endpoints must differ")
        # ``not (x > 0)`` also rejects NaN, which ``x <= 0`` lets through.
        if not (self.demand_bps > 0.0):
            raise ValueError(
                f"demand must be positive, got {self.demand_bps}")
        if self.size_bytes is not None and not (
                0.0 < self.size_bytes < float("inf")):
            raise ValueError(
                f"flow size must be positive and finite, "
                f"got {self.size_bytes}")
        if not (0.0 <= self.start_s < float("inf")):
            raise ValueError(
                f"start time must be finite and >= 0, got {self.start_s}")


def path_devices(path: Sequence[int], num_satellites: int
                 ) -> List[Hashable]:
    """The transmitting devices a path occupies, in DES-compatible keys.

    Satellite-to-satellite hops use the directed ISL device ``(a, b)``;
    any hop leaving node ``a`` toward a ground station — or leaving a
    ground station — uses that node's shared GSL device ``("gsl", a)``.
    """
    devices: List[Hashable] = []
    for a, b in zip(path, path[1:]):
        if a < num_satellites and b < num_satellites:
            devices.append((a, b))
        else:
            devices.append(("gsl", a))
    return devices


def table_devices(table: np.ndarray, counts: np.ndarray,
                  num_satellites: int, num_nodes: int
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`path_devices` over the rows of a path table.

    ``table`` and ``counts`` are a
    :meth:`~repro.routing.engine.RoutingEngine.path_table` walk: row
    ``i``'s path is its first ``counts[i]`` nodes (none for count 0).
    Encodes every transmitting device as one int64 code — ``a*N + b``
    for the directed ISL ``(a, b)``, ``N*N + a`` for the shared GSL
    device of node ``a`` (``N = num_nodes``) — and returns
    ``(codes, hop_counts)``: the per-hop device codes of all rows in
    row-major order, which is path order, plus each row's hop count.
    Decode with :func:`decode_device`.
    """
    hop_counts = np.maximum(counts - 1, 0)
    hops = np.arange(table.shape[1] - 1) < hop_counts[:, np.newaxis]
    src = table[:, :-1][hops]
    dst = table[:, 1:][hops]
    isl = (src < num_satellites) & (dst < num_satellites)
    codes = np.where(isl, src * num_nodes + dst,
                     num_nodes * num_nodes + src)
    return codes, hop_counts


def decode_device(code: int, num_nodes: int) -> Hashable:
    """The :func:`path_devices`-style key of an encoded device."""
    code = int(code)
    if code < num_nodes * num_nodes:
        return (code // num_nodes, code % num_nodes)
    return ("gsl", code - num_nodes * num_nodes)


#: Fibonacci hashing: 2**64 over the golden ratio; a code's home slot is
#: the top bits of its product with this, modulo 2**64.
_FIBONACCI_HASH = np.uint64(0x9E3779B97F4A7C15)


class DeviceIndex:
    """Every device code a simulation's paths have crossed, each in its
    own slot of an open-addressing hash table, with its decoded key.

    A slot is a compact per-device index: the table keeps at least
    four slots per device and stays far below the ``N*N + N`` code
    space of :func:`table_devices`, so :func:`first_appearance_columns`
    numbers a step's codes with one scatter-min over slots instead of a
    sort, and each device's key is decoded once per simulation instead
    of once per step.

    Args:
        num_nodes: Total node count of the encoding (satellites plus
            ground stations).
    """

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        #: Per slot the code it holds; -1 while empty.
        self._codes = np.full(16, -1, dtype=np.int64)
        self._keys: List[Hashable] = [None] * 16

    @property
    def size(self) -> int:
        """Number of slots (every slot index lies below it)."""
        return len(self._codes)

    def slots(self, codes: np.ndarray) -> np.ndarray:
        """Each code's slot, adding the codes not seen before."""
        codes = np.asarray(codes, dtype=np.int64)
        slots, missing = self._probe(codes)
        if missing.any():
            fresh = np.unique(codes[missing])
            known = self._codes[self._codes != -1]
            if 4 * (known.size + fresh.size) > self.size:
                # Rehash into a table four times the devices: every slot
                # moves.
                size = 4 * (known.size + fresh.size)
                self._codes = np.full(1 << size.bit_length(), -1,
                                      dtype=np.int64)
                self._keys = [None] * len(self._codes)
                self._insert(np.concatenate([known, fresh]))
                return self._probe(codes)[0]
            self._insert(fresh)
            slots[missing] = self._probe(codes[missing])[0]
        return slots

    def keys(self, slots: np.ndarray) -> List[Hashable]:
        """The :func:`path_devices`-style keys of the devices in ``slots``."""
        keys = self._keys
        return [keys[slot] for slot in slots.tolist()]

    def _probe(self, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(slots, missing)``: each code's slot — for a code not in the
        table, the empty slot its linear probe ends at — and which codes
        are not in the table."""
        # Codes are non-negative: their int64 bits are their uint64 ones.
        slots = codes.view(np.uint64) * _FIBONACCI_HASH
        slots >>= np.uint64(65 - self.size.bit_length())
        slots = slots.view(np.int64)
        held = self._codes[slots]
        missing = held == -1
        probing = np.flatnonzero(~missing & (held != codes))
        while probing.size:
            slots[probing] = (slots[probing] + 1) & (self.size - 1)
            held = self._codes[slots[probing]]
            missing[probing[held == -1]] = True
            probing = probing[(held != codes[probing]) & (held != -1)]
        return slots, missing

    def _insert(self, codes: np.ndarray) -> None:
        """Add distinct codes that are not in the table yet."""
        while codes.size:
            # Codes whose probes end at one empty slot: the first takes
            # it, the others probe on next round.
            taken, first = np.unique(self._probe(codes)[0],
                                     return_index=True)
            self._codes[taken] = codes[first]
            for slot, code in zip(taken.tolist(), codes[first].tolist()):
                self._keys[slot] = decode_device(code, self.num_nodes)
            codes = np.delete(codes, first)


def first_appearance_columns(codes: np.ndarray, devices: DeviceIndex
                             ) -> Tuple[np.ndarray, np.ndarray,
                                        List[Hashable]]:
    """Number the distinct device codes in first-appearance order.

    A scatter-min over the codes' slots in ``devices``
    (:func:`first_appearance_rows`), with no sort of the codes.

    Returns ``(columns, column_codes, keys)``: each entry's column, and
    the code and decoded key each column stands for — the order a dict
    keyed by device would have after inserting ``codes`` one by one.
    """
    slots = devices.slots(codes)
    columns, first = first_appearance_rows(slots, devices.size)
    return columns, codes[first], devices.keys(slots[first])


def first_appearance_rows(ids: np.ndarray, num_ids: int
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Number small dense ids in first-appearance order, sort-free.

    ``ids`` lie in ``[0, num_ids)`` (flow classes, matrix rows, device
    slots), so one scatter-min over a ``num_ids`` table finds every id's
    first position in O(len(ids)) — this runs over every candidate flow
    and every traversal each step.

    Returns ``(rows, first)``: each entry's row in first-appearance
    order, and the position in ``ids`` where each row first appears.
    """
    first = np.full(num_ids, ids.size, dtype=np.int64)
    np.minimum.at(first, ids, np.arange(ids.size, dtype=np.int64))
    present = np.flatnonzero(first < ids.size)
    order = present[np.argsort(first[present])]
    rank = np.empty(num_ids, dtype=np.int64)
    rank[order] = np.arange(order.size, dtype=np.int64)
    return rank[ids], first[order]


@spans.timed("fluid.matrix_build")
def flow_link_matrix_from_paths(
        table: np.ndarray, counts: np.ndarray, num_satellites: int,
        devices: DeviceIndex, capacities_of
        ) -> Tuple["FlowLinkMatrix", np.ndarray]:
    """Build one snapshot's flows-on-links CSR from a path table.

    Device codes are encoded in path order (:func:`table_devices`) and
    columns numbered by :func:`first_appearance_columns` — exactly the
    oracle's link dict insertion order, so
    :func:`repro.fluid.vectorized.waterfill` over the matrix reproduces
    the reference allocator (``tests/_fluid_oracle.py``) bit-for-bit.
    A row without a path becomes an empty row.

    Args:
        table / counts: One node path per matrix row, as
            :meth:`~repro.routing.engine.RoutingEngine.path_table`
            returns them (count 0 for disconnected rows).
        num_satellites: Node-numbering split point.
        devices: The device index the columns are numbered in (its
            ``num_nodes`` is the encoding's).
        capacities_of: Callable mapping the list of device keys (one per
            matrix column) to their capacities (bps), all at once.

    Returns:
        ``(matrix, hop_counts)`` — the incidence matrix and the per-row
        device count (0 marks disconnected rows).
    """
    codes, hop_counts = table_devices(table, counts, num_satellites,
                                      devices.num_nodes)
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(hop_counts, out=indptr[1:])
    link_index, _, keys = first_appearance_columns(codes, devices)
    matrix = FlowLinkMatrix(keys, capacities_of(keys), indptr, link_index)
    return matrix, hop_counts


@dataclass
class ClassPaths:
    """One step's paths: a row per flow class among the candidates.

    Flows of one class share a path, so a step routes each class once:
    rows are the classes present among ``candidates``, in
    first-candidate order, and their paths stay the router's int table.

    Attributes:
        candidates: (K,) flows that could take capacity in the step.
        row_of_cand: (K,) each candidate's row.
        lead: (R,) each row's first candidate.
        classes: (R,) each row's flow class.
        table / counts: The rows' node paths, as
            :meth:`~repro.routing.engine.RoutingEngine.path_table`
            returns them (count 0: no path).
        paths: (R,) the same paths as node tuples (``None``: no path).
        devices: The simulation's device index, which numbers the
            step's matrix columns.
    """

    candidates: np.ndarray
    row_of_cand: np.ndarray
    lead: np.ndarray
    classes: np.ndarray
    table: np.ndarray
    counts: np.ndarray
    paths: List[Optional[Tuple[int, ...]]]
    devices: DeviceIndex

    def flow_rows(self, num_flows: int) -> np.ndarray:
        """(F,) each flow's row; the extra row ``R`` off the candidates."""
        rows = np.full(num_flows, len(self.lead), dtype=np.int64)
        rows[self.candidates] = self.row_of_cand
        return rows


class _LastStep(NamedTuple):
    """What one step leaves for the next (see
    :meth:`FluidSimulation._step_paths`): its paths and its walk (None
    without candidates or when the topology is frozen)."""

    step: ClassPaths
    walk: Optional[PathWalk]


class SnapshotRecord(NamedTuple):
    """What a run keeps of one recorded snapshot: a rate and a path per
    row — a flow class among the step's candidates — and which flows
    hold them.  Arrays a snapshot shares with the one before are the
    same objects, so a static workload holds its flow sets once.

    Attributes:
        candidates: (K,) ascending flows the step routed; each holds
            its row's path, every other flow ``None``.
        row_of_cand: (K,) each candidate's row (:class:`ClassPaths`).
        eligible: (K,) which candidates take their row's rate: started
            and not yet done at the snapshot instant; every other flow
            has rate 0.
        row_rates: (R,) each row's rate at the snapshot instant, 0 for
            a row without an active member (none eligible, or no path).
        row_paths: (R,) each row's node tuple (``None``: no path).
    """

    candidates: np.ndarray
    row_of_cand: np.ndarray
    eligible: np.ndarray
    row_rates: np.ndarray
    row_paths: List[Optional[Tuple[int, ...]]]

    def rates(self, num_flows: int) -> np.ndarray:
        """(F,) each flow's rate at the snapshot."""
        rates = np.zeros(num_flows)
        eligible = self.eligible
        rates[self.candidates[eligible]] = self.row_rates[
            self.row_of_cand[eligible]]
        return rates

    def paths(self, num_flows: int) -> List[Optional[Tuple[int, ...]]]:
        """Per flow its row's path tuple, ``None`` off the candidates."""
        rows = np.full(num_flows, len(self.row_paths), dtype=np.int64)
        rows[self.candidates] = self.row_of_cand
        row_paths = np.fromiter(chain(self.row_paths, [None]), dtype=object,
                                count=len(self.row_paths) + 1)
        return row_paths[rows].tolist()


#: Values :meth:`FluidResult.perf_summary` hands numpy in one sum.
_SUM_BLOCK_VALUES = 1 << 16


@dataclass
class FluidResult:
    """Output of a fluid simulation.

    A run keeps per snapshot one rate and one path per flow class among
    the step's candidates, and each candidate's row
    (:class:`SnapshotRecord`).  The per-flow views are built from them
    on first read — the same values, bits and path tuple objects a
    per-flow history would hold: every member of a class that is
    eligible at a snapshot was allocated its class row's rate, and every
    candidate took its class row's tuple.

    Attributes:
        times_s: (T,) snapshot times.
        num_flows: How many flows the run held (F).
        snapshots: (T,) what each snapshot recorded.
        flow_rates_bps: (T, F) allocated rate of each flow over time;
            zero while a flow's endpoints are disconnected.  Expanded
            on first read.
        flow_paths: ``flow_paths[t][f]`` node-id path or None.  Expanded
            on first read.
        device_load_bps: per snapshot, mapping device-key -> allocated load.
        num_satellites: Node-numbering split point (satellites below it).
        link_capacity_bps: The uniform device capacity of the run.
        engine: Which engine produced the result ("maxmin" or "aimd").
        kernel: Constant provenance label of the max-min engine's
            allocator ("vectorized"; "" for AIMD), kept so run reports
            stay byte-identical.
        perf: Work accounting of the run (``snapshots_computed``, and
            ``allocations_solved`` for dynamic max-min runs), filled by
            the engines; wall-clock time is the span profiler's
            (``fluid.advance``, around ``fluid.paths`` /
            ``fluid.matrix_build`` / ``fluid.waterfill`` /
            ``fluid.loads``, then a static step's ``fluid.integrate`` or
            a dynamic step's event loop ``fluid.subevents``, or AIMD's
            ``fluid.aimd.substeps``).
        duration_s: Simulated horizon of the run.
        flow_offered_bits: (F,) per-flow offered volume — ``inf`` for
            long-running flows, 0 for a flow cancelled before it
            started; ``None`` for fully static workloads.
        flow_delivered_bits: (F,) bits each flow actually transferred
            over the run; ``None`` for fully static workloads.
        flow_fct_s: (F,) flow completion time (completion − start);
            ``nan`` for flows that never completed; ``None`` for fully
            static workloads.
    """

    times_s: np.ndarray
    num_flows: int
    snapshots: List[SnapshotRecord]
    device_load_bps: List[Dict[Hashable, float]]
    num_satellites: int
    link_capacity_bps: float
    engine: str = "maxmin"
    kernel: str = ""
    perf: Dict[str, float] = field(default_factory=dict)
    duration_s: float = 0.0
    flow_offered_bits: Optional[np.ndarray] = None
    flow_delivered_bits: Optional[np.ndarray] = None
    flow_fct_s: Optional[np.ndarray] = None

    @cached_property
    def flow_rates_bps(self) -> np.ndarray:
        rates = np.zeros((len(self.snapshots), self.num_flows))
        for row, record in zip(rates, self.snapshots):
            row[:] = record.rates(self.num_flows)
        return rates

    @cached_property
    def flow_paths(self) -> List[List[Optional[Tuple[int, ...]]]]:
        return [record.paths(self.num_flows) for record in self.snapshots]

    def fct_values(self) -> np.ndarray:
        """Completed flows' completion times (empty for static runs)."""
        if self.flow_fct_s is None:
            return np.empty(0)
        return self.flow_fct_s[np.isfinite(self.flow_fct_s)]

    def finite_flows(self) -> Optional[np.ndarray]:
        """(F,) which flows are finite transfers that were offered — not
        long-running (``inf``) and not cancelled before they started
        (0); ``None`` for fully static workloads."""
        offered = self.flow_offered_bits
        if offered is None:
            return None
        return np.isfinite(offered) & (offered > 0.0)

    def perf_summary(self) -> Dict[str, float]:
        """Flat performance/accounting summary (report-facing) — the
        fluid counterpart of :meth:`SimulationStats.perf_summary`.

        Worked out from the per-class records, a row of rates at a time:
        nothing here builds :attr:`flow_rates_bps`."""
        connected = np.zeros(self.num_flows, dtype=bool)
        for record in self.snapshots:
            flowing = record.eligible & (
                record.row_rates[record.row_of_cand] > 0.0)
            connected[record.candidates[flowing]] = True
        size = len(self.snapshots) * self.num_flows
        summary: Dict[str, float] = {
            "snapshots": float(len(self.times_s)),
            "flows": float(self.num_flows),
            "flows_ever_connected": float(np.count_nonzero(connected)),
            "mean_rate_bps": float(self._rates_sum() / size) if size
            else 0.0,
            "link_capacity_bps": self.link_capacity_bps,
        }
        if self.device_load_bps:
            peak = max((max(loads.values()) if loads else 0.0)
                       for loads in self.device_load_bps)
            summary["peak_utilization"] = peak / self.link_capacity_bps
        if self.flow_fct_s is not None:
            fct = self.fct_values()
            summary["flows_completed"] = float(len(fct))
            summary.update((key, value)
                           for key, value in fct_summary(fct).items()
                           if key != "fct_p90_s")
            finite = self.finite_flows()
            if finite is not None:
                summary["flows_finite"] = float(finite.sum())
                if self.duration_s > 0.0:
                    summary["offered_load_bps"] = float(
                        self.flow_offered_bits[finite].sum()
                    ) / self.duration_s
                    if self.flow_delivered_bits is not None:
                        summary["delivered_load_bps"] = float(
                            self.flow_delivered_bits[finite].sum()
                        ) / self.duration_s
        summary.update(self.perf)
        return summary

    def _rates_sum(self) -> np.float64:
        """``flow_rates_bps.sum()``, bit for bit, holding a few rows of it
        at a time.

        numpy (1.x and 2.x up to at least 2.4, the version the benchmark
        goldens are pinned on) adds a contiguous float64 array pairwise:
        a range of more than 128 values is cut at the multiple of 8 at or
        below its middle, and the halves' sums are added.  That is an
        implementation detail, not an API: cutting the flattened (T, F)
        rates the same way down to ranges of at most
        ``_SUM_BLOCK_VALUES`` values, and handing each range to numpy
        whole, adds the same values in the same order only while numpy
        keeps it.  ``tests/test_fluid.py::TestPerfSummaryEdgeCases::
        test_mean_rate_equals_the_expanded_mean`` pins the equality on
        the installed numpy.
        """
        num_flows = self.num_flows
        row = lru_cache(maxsize=2)(
            lambda t: self.snapshots[t].rates(num_flows))

        def total(start: int, count: int) -> np.float64:
            if count <= _SUM_BLOCK_VALUES:
                first = start // num_flows
                block = np.concatenate([row(t) for t in range(
                    first, (start + count - 1) // num_flows + 1)])
                start -= first * num_flows
                return np.add.reduce(block[start:start + count])
            half = count // 2 - count // 2 % 8
            return total(start, half) + total(start + half, count - half)

        return total(0, len(self.snapshots) * num_flows)

    def report(self, registry: Optional[MetricsRegistry] = None
               ) -> RunReport:
        """The unified run report of this fluid run."""
        return fluid_run_report(self, registry=registry)

    def unused_bandwidth_bps(self, flow_index: int) -> np.ndarray:
        """Paper Fig. 10's metric for one flow's path over time.

        The path's link capacity minus the utilization of the most
        congested on-path device at each snapshot; ``nan`` while the flow
        is disconnected.
        """
        series = np.full(len(self.times_s), np.nan)
        for t in range(len(self.times_s)):
            path = self.flow_paths[t][flow_index]
            if path is None:
                continue
            devices = path_devices(path, self.num_satellites)
            loads = self.device_load_bps[t]
            worst = max(loads.get(device, 0.0) for device in devices)
            series[t] = max(0.0, self.link_capacity_bps - worst)
        return series

    def isl_utilization(self, t_index: int) -> Dict[Tuple[int, int], float]:
        """Directed ISL loads at one snapshot, as a fraction of capacity.

        The input of the paper's Fig. 14/15 congestion visualizations.
        """
        loads = self.device_load_bps[t_index]
        return {
            device: load / self.link_capacity_bps
            for device, load in loads.items()
            if isinstance(device, tuple) and device[0] != "gsl"
        }


def no_flows(dtype=float):
    """Dataclass default of a per-flow array: no flows yet."""
    return field(default_factory=lambda: np.empty(0, dtype=dtype))


@dataclass
class FluidRunState:
    """Resumable mid-run state of a :class:`FluidSimulation`.

    Everything the snapshot loop carries between steps, so a run can
    stop at any snapshot boundary (a live service advancing epoch by
    epoch) and continue with bit-identical results.  Snapshot
    boundaries are the natural cut:
    the sub-event loop (intra-step arrivals/completions) is fully
    contained within one step, so no sub-event cursor survives a
    boundary — the residuals, delivered bits and FCTs *are* the cursor.

    Attributes:
        duration_s: Simulated horizon of the run.
        step_s: Snapshot granularity.
        times: (T,) snapshot times of the whole run.
        next_index: Index into ``times`` of the next unprocessed step;
            ``next_index == len(times)`` means the run is done.
        snapshots / all_loads: Per-processed-snapshot class rates and
            paths (:class:`SnapshotRecord`), and device loads.
        starts / offered_bits / residual_bits / delivered_bits / fct_s:
            (F,) per-flow workload cursors.
        demand_caps: (F,) invariant per-flow rate caps.
        flow_class: (F,) int32 id of each flow's class — flows with the
            same endpoints and demand cap, which therefore share a path
            and a max-min rate; ids count up in first-flow order (AIMD:
            every flow its own class).
        dynamic: Whether the workload has arrivals or finite sizes.
        solves: Allocations solved so far.
        frozen_table / frozen_counts: Static-baseline paths
            (``freeze_topology_at_s``), one row per flow class, as
            :meth:`~repro.routing.engine.RoutingEngine.path_table`
            returns them.
    """

    duration_s: float
    step_s: float
    times: np.ndarray
    next_index: int = 0
    snapshots: List[SnapshotRecord] = field(default_factory=list)
    all_loads: List[Dict[Hashable, float]] = field(default_factory=list)
    starts: np.ndarray = no_flows()
    offered_bits: np.ndarray = no_flows()
    residual_bits: np.ndarray = no_flows()
    delivered_bits: np.ndarray = no_flows()
    fct_s: np.ndarray = no_flows()
    demand_caps: np.ndarray = no_flows()
    flow_class: np.ndarray = no_flows(np.int32)
    dynamic: bool = False
    solves: int = 0
    frozen_table: Optional[np.ndarray] = None
    frozen_counts: Optional[np.ndarray] = None

    @property
    def done(self) -> bool:
        """Whether every snapshot step has been processed."""
        return self.next_index >= len(self.times)

    @property
    def time_s(self) -> float:
        """Simulated time reached so far (start of the next step)."""
        if self.done:
            return self.duration_s
        return float(self.times[self.next_index])


class FluidSimulation:
    """Max-min fluid traffic over the evolving shortest paths.

    Args:
        network: The LEO network.
        flows: The flows.
        link_capacity_bps: Uniform device capacity (paper: 10 Mbit/s),
            finite and positive.
        freeze_topology_at_s: If not None, routes and geometry are frozen
            at this finite time — the "static network" baseline (gray
            line of Fig. 10).
        metrics: Optional registry; when given, the run records the
            per-snapshot series ``fluid.connected_flows``,
            ``fluid.mean_rate_bps`` and ``fluid.peak_utilization``.
    """

    ENGINE = "maxmin"
    #: Allocator provenance label stamped on results (see FluidResult).
    KERNEL = "vectorized"
    #: The run-state class :meth:`start_run` instantiates.
    STATE = FluidRunState

    def __init__(self, network: LeoNetwork, flows: Sequence[FluidFlow],
                 link_capacity_bps: float = 10_000_000.0,
                 freeze_topology_at_s: Optional[float] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if not flows:
            raise ValueError("need at least one flow")
        if not 0.0 < link_capacity_bps < float("inf"):
            raise ValueError(f"capacity must be finite and positive, "
                             f"got {link_capacity_bps}")
        if freeze_topology_at_s is not None and not isfinite(
                freeze_topology_at_s):
            raise ValueError(f"freeze time must be finite, "
                             f"got {freeze_topology_at_s}")
        self.network = network
        self.flows = list(flows)
        self.link_capacity_bps = link_capacity_bps
        self.freeze_topology_at_s = freeze_topology_at_s
        self.metrics = metrics
        self._router = make_routing_engine(network)
        self._num_sats = network.num_satellites
        #: ((src_gid, dst_gid), demand cap) -> class id, in first-flow
        #: order (filled by :meth:`_classes`).
        self._class_of: Dict[Tuple[Tuple[int, int], float], int] = {}
        #: (C, 2) (src_gid, dst_gid) of every class, by class id.
        self._class_pairs = np.empty((0, 2), dtype=np.int64)
        #: Sorted destination gids of every class.
        self._destinations: List[int] = []
        #: What the previous step left for the next (see
        #: :meth:`_step_paths`); None before the first.
        self._last_step: Optional[_LastStep] = None

    @spans.timed("fluid.paths")
    def _class_walk(self, time_s: float, classes: np.ndarray,
                    previous: Optional[PathWalk]) -> PathWalk:
        """The path walk of flow classes ``classes`` at ``time_s``, one
        row per class
        (:meth:`~repro.routing.engine.RoutingEngine.path_table`, given
        ``previous``: an earlier walk of the same classes, or None).

        The router solves every known class's destination, sorted: the
        set then only changes when a flow brings a new destination, so
        consecutive snapshots repair the previous trees instead of
        solving afresh.  Each tree is independent of the others, so the
        extra rows change no bit of the ones read.
        """
        snapshot = self.network.snapshot(time_s)
        multi = self._router.route_to_many(snapshot, self._destinations)
        walk = self._router.path_table(multi, snapshot,
                                       self._class_pairs[classes], previous)
        # Nothing holds the trees now: the next update repairs in place.
        self._router._hand_back(multi)
        return walk

    def _step_paths(self, state: "FluidRunState", time_s: float,
                    candidates: np.ndarray) -> ClassPaths:
        """The step's paths: one row per class among ``candidates``, in
        first-candidate order, routed at ``time_s`` (read from the
        static baseline's table when the topology is frozen).

        Only what changed since the previous step is recomputed: its
        rows stand while the candidates are the same flows, its walk is
        the previous walk of every class it routed (the walk then
        re-walks only rows whose path can have moved), and a kept row
        keeps its node tuple.  A class the previous step did not route
        is walked afresh; a frozen class's row never moves.
        """
        last = self._last_step
        if last is not None and np.array_equal(last.step.candidates,
                                               candidates):
            candidates, row_of_cand, lead = (last.step.candidates,
                                             last.step.row_of_cand,
                                             last.step.lead)
            classes = last.step.classes
            previous_row = None  # row i is row i of the last step
        else:
            num_classes = len(self._class_pairs)
            row_of_cand, first = first_appearance_rows(
                state.flow_class[candidates], num_classes)
            lead = candidates[first]
            classes = state.flow_class[lead]
            row_in_last = np.full(num_classes, -1, dtype=np.int64)
            if last is not None:
                row_in_last[last.step.classes] = np.arange(
                    len(last.step.classes))
            previous_row = row_in_last[classes]
        walk = None
        if state.frozen_table is not None:
            table = state.frozen_table[classes]
            counts = state.frozen_counts[classes]
            kept = (np.ones(len(classes), dtype=bool) if previous_row is None
                    else previous_row >= 0)
        elif not classes.size:
            table = np.full((0, 1), UNREACHABLE, dtype=np.int64)
            counts = np.zeros(0, dtype=np.int64)
            kept = np.zeros(0, dtype=bool)
        else:
            previous = None if last is None else last.walk
            if previous is not None and previous_row is not None:
                previous = previous.take(previous_row)
            walk = self._class_walk(time_s, classes, previous)
            table, counts, kept = walk.table, walk.counts, walk.kept
        step = ClassPaths(
            candidates, row_of_cand, lead, classes, table, counts,
            path_tuples(table, counts, kept,
                        None if last is None else last.step.paths,
                        previous_row),
            (DeviceIndex(self.network.num_nodes) if last is None
             else last.step.devices))
        self._last_step = _LastStep(step, walk)
        return step

    def run(self, duration_s: float, step_s: float = 1.0) -> FluidResult:
        """Simulate ``duration_s`` at ``step_s`` granularity.

        A static workload (every flow starting at 0, no finite sizes)
        solves one allocation per snapshot, exactly as a long-running
        permutation run always has.  A dynamic workload additionally
        re-solves *within* a step at every flow arrival and predicted
        completion, integrating each finite flow's residual size through
        the sub-intervals so flows complete and leave the allocation;
        the recorded per-snapshot rates/loads are always the allocation
        at the snapshot instant.

        Composed of :meth:`start_run` → :meth:`advance` → :meth:`finish`,
        so an uninterrupted run and one advanced a step at a time (a
        live service, or its replayed checkpoint) go through the exact
        same code path (the determinism tests in
        ``tests/test_service.py`` assert bit-identical results).
        """
        state = self.start_run(duration_s, step_s)
        self.advance(state)
        return self.finish(state)

    def start_run(self, duration_s: float,
                  step_s: float = 1.0) -> FluidRunState:
        """Initialize a resumable run (no steps processed yet): an empty
        state grown to this simulation's flows by :meth:`extend_flows`."""
        times = snapshot_times(duration_s, step_s)
        state = self.STATE(float(duration_s), float(step_s), times)
        self.extend_flows(state, ())
        return state

    def extend_flows(self, state: FluidRunState,
                     flows: Sequence[FluidFlow]) -> int:
        """Add ``flows`` to the simulation and grow ``state`` to cover
        every flow it holds; returns the index of the first new flow.

        The one place the per-flow array layout lives.  The recorded
        snapshots stay as they are: a flow off a snapshot's candidates
        reads as a ``None`` path and a zero rate there — exactly what a
        from-t=0 run records for flows that have not arrived yet — so
        attaching flows to a live run at a snapshot boundary is
        bit-identical to having built the simulation with them.
        """
        self.flows.extend(flows)
        first = len(state.starts)
        new = self.flows[first:]
        starts = np.array([flow.start_s for flow in new], dtype=float)
        offered_bits = np.array([
            np.inf if flow.size_bytes is None else flow.size_bytes
            for flow in new], dtype=float) * 8.0
        # Invariant per-flow rate caps, hoisted out of the sub-event loop
        # (elastic flows capped far above any device capacity).
        demand_caps = np.minimum(
            np.array([flow.demand_bps for flow in new], dtype=float),
            _ELASTIC_DEMAND_CAPACITIES * self.link_capacity_bps)
        state.starts = np.concatenate([state.starts, starts])
        state.offered_bits = np.concatenate([state.offered_bits,
                                             offered_bits])
        state.residual_bits = np.concatenate([state.residual_bits,
                                              offered_bits])
        state.delivered_bits = np.concatenate([state.delivered_bits,
                                               np.zeros(len(new))])
        state.fct_s = np.concatenate([state.fct_s,
                                      np.full(len(new), np.nan)])
        state.demand_caps = np.concatenate([state.demand_caps, demand_caps])
        state.flow_class = np.concatenate([state.flow_class, self._classes(
            np.array([flow.src_gid for flow in new], dtype=np.int64),
            np.array([flow.dst_gid for flow in new], dtype=np.int64),
            demand_caps)])
        self._destinations = np.unique(self._class_pairs[:, 1]).tolist()
        state.dynamic = bool(state.dynamic or (starts > 0.0).any()
                             or np.isfinite(offered_bits).any())
        if self.freeze_topology_at_s is not None:
            walk = self._class_walk(self.freeze_topology_at_s,
                                    np.arange(len(self._class_pairs)), None)
            state.frozen_table, state.frozen_counts = walk.table, walk.counts
        return first

    def _classes(self, src: np.ndarray, dst: np.ndarray, caps: np.ndarray
                 ) -> np.ndarray:
        """The int32 class id of each new flow, adding its class where
        it has none yet.

        The distinct ``(src, dst, cap)`` triples, in first-flow order,
        go through ``_class_of`` one each: a known triple keeps its id,
        a new one takes the next — the ids a per-flow ``setdefault``
        would give.
        """
        if not src.size:
            return np.zeros(0, dtype=np.int32)
        low = min(src.min(), dst.min())
        span = max(src.max(), dst.max()) - low + 1
        cap_values, cap_of = np.unique(caps, return_inverse=True)
        triples, triple_of = np.unique(
            ((src - low) * span + dst - low) * len(cap_values) + cap_of,
            return_inverse=True)
        rank, leads = first_appearance_rows(triple_of, len(triples))
        class_of = self._class_of
        known = len(class_of)
        ids = np.array([class_of.setdefault(((s, d), cap), len(class_of))
                        for s, d, cap in zip(src[leads].tolist(),
                                             dst[leads].tolist(),
                                             caps[leads].tolist())],
                       dtype=np.int32)
        added = leads[ids >= known]
        self._class_pairs = np.concatenate([
            self._class_pairs, np.column_stack([src[added], dst[added]])])
        return ids[rank]

    @spans.timed("fluid.advance")
    def advance(self, state: FluidRunState,
                max_steps: Optional[int] = None) -> FluidRunState:
        """Process up to ``max_steps`` snapshot steps (all remaining by
        default); returns ``state`` for chaining.

        Each call picks up exactly where the previous one stopped, so
        ``advance(s, k)`` repeated to exhaustion is bit-identical to one
        ``advance(s)``.
        """
        stop = len(state.times)
        if max_steps is not None:
            if max_steps < 0:
                raise ValueError(f"max_steps must be >= 0, got {max_steps}")
            stop = min(stop, state.next_index + max_steps)
        faults = self.network.fault_view
        for t_index in range(state.next_index, stop):
            time_s = float(state.times[t_index])
            # Flows that could take capacity somewhere in this step:
            # already or soon started, not yet fully transferred.  Flows
            # out of play (not started, or completed) hold no path.
            candidates = np.flatnonzero(
                (state.residual_bits > 0.0)
                & (state.starts < time_s + state.step_s))
            self._step(state, time_s,
                       self._step_paths(state, time_s, candidates), faults)
            state.next_index = t_index + 1
        return state

    def finish(self, state: FluidRunState) -> FluidResult:
        """Package a fully-advanced run state as a :class:`FluidResult`."""
        if not state.done:
            raise RuntimeError(
                f"run has {len(state.times) - state.next_index} steps left; "
                f"advance() it to completion before finish()")
        dynamic = state.dynamic
        perf = {"snapshots_computed": float(len(state.times))}
        if dynamic:
            perf["allocations_solved"] = float(state.solves)
        return FluidResult(times_s=state.times,
                           num_flows=len(state.starts),
                           snapshots=state.snapshots,
                           device_load_bps=state.all_loads,
                           num_satellites=self._num_sats,
                           link_capacity_bps=self.link_capacity_bps,
                           engine=self.ENGINE,
                           kernel=self.KERNEL,
                           perf=perf,
                           duration_s=state.duration_s,
                           flow_offered_bits=(state.offered_bits if dynamic
                                              else None),
                           flow_delivered_bits=(state.delivered_bits
                                                if dynamic else None),
                           flow_fct_s=state.fct_s if dynamic else None)

    def _step(self, state: FluidRunState, time_s: float, step: ClassPaths,
              faults) -> None:
        """One snapshot step on the flat incidence representation.

        Flows of one class share a path and a max-min rate, so the
        step's flows-on-links CSR has one row per class among the
        candidates — ``step``'s rows, in first-candidate order, encoded
        straight from its path table (device codes in path order: the
        column numbering is still the oracle's link dict order over the
        flows).  It is built once; every arrival/completion inside the
        step is a row activation over that fixed matrix — each row
        weighted by its active members — not a rebuild.

        The snapshot solve runs on arrays over every candidate and is
        the one recorded, one rate per row.  A static step (no arrival,
        no finite residual) serves those rates to the step's end; a
        dynamic one hands them to its event loop, :meth:`_subevents`,
        as the first interval's.
        """
        candidates, row_of_cand, lead = (step.candidates, step.row_of_cand,
                                         step.lead)
        matrix, hop_counts = flow_link_matrix_from_paths(
            step.table, step.counts, self._num_sats, step.devices,
            lambda keys: self._device_capacities(keys, faults, time_s))
        keys = matrix.link_keys

        step_end = time_s + state.step_s
        row_demands = state.demand_caps[lead]
        has_path = (hop_counts > 0)[row_of_cand]

        # The snapshot solve, on arrays over every active candidate:
        # eligible (started, bits left) and routed.
        eligible = ((state.starts[candidates] <= time_s + _TIME_EPS_S)
                    & (state.residual_bits[candidates] > 0.0))
        active = np.flatnonzero(eligible & has_path)
        # Solve each row once, weighted by its active members, rows
        # ordered by their first *active* member so the columns keep the
        # per-flow first-appearance order.  With one member per row
        # ``rows`` is that already.
        rows = row_of_cand[active]
        members = np.bincount(rows, minlength=matrix.num_flows)
        solved, slot, copies = rows, slice(None), None
        if np.count_nonzero(members) < rows.size:
            slot, opener = first_appearance_rows(rows, members.size)
            solved = rows[opener]
            copies = members[solved]
        solved_rates = waterfill(matrix, demands=row_demands, active=solved,
                                 multiplicity=copies)
        allocated = solved_rates[slot]
        state.solves += 1
        with spans.span("fluid.loads"):
            # Flow by flow in traversal order: the bits of a load depend
            # on the order its rates were added in.
            load_arr = matrix.link_loads(allocated, rows)
            # A link is recorded iff a row with an active member crosses
            # it, carrying rate or not.
            crossed = np.zeros(matrix.num_links, dtype=bool)
            crossed[matrix.link_index[np.repeat(
                members > 0, np.diff(matrix.indptr))]] = True
            crossed = np.flatnonzero(crossed)
            loads = dict(zip(map(keys.__getitem__, crossed.tolist()),
                             load_arr[crossed].tolist()))
        row_rates = np.zeros(matrix.num_flows)
        row_rates[solved] = solved_rates
        self._record_snapshot(state, time_s, step, row_rates, eligible,
                              loads, active_count=len(active))
        if state.dynamic:
            self._subevents(state, step, matrix, has_path, row_demands,
                            active, allocated, time_s, step_end)
            return
        with spans.span("fluid.integrate"):
            # No arrival and no finite residual: the snapshot rates hold
            # to the step's end.
            state.delivered_bits[candidates[active]] += (
                allocated * (step_end - time_s))

    @spans.timed("fluid.subevents")
    def _subevents(self, state: FluidRunState, step: ClassPaths,
                   matrix: FlowLinkMatrix, has_path: np.ndarray,
                   row_demands: np.ndarray, active: np.ndarray,
                   allocated: np.ndarray, tau: float,
                   step_end: float) -> None:
        """A dynamic step's event loop, from the snapshot instant ``tau``
        to ``step_end``: the snapshot solve's ``allocated`` rates of the
        ``active`` candidates serve the first interval; every later
        event — an arrival or a predicted completion — admits the
        arrivals due and re-solves.

        Driven by events: the active set is kept rather than recomputed
        (a flow joins when it arrives, leaves when its residual reaches
        0 — the only times either changes within a step), and the
        re-solve, next event and integration run on Python scalars over
        the active flows alone.  Python floats are IEEE doubles and
        every update is the same elementwise operation the arrays made,
        so the outcome is bit-identical to re-solving over all
        candidates at every event.
        """
        candidates, row_of_cand = step.candidates, step.row_of_cand
        starts, residual_bits = state.starts, state.residual_bits
        delivered_bits, fct_s = state.delivered_bits, state.fct_s
        # The step's arrivals by start, ties in candidate order.  Every
        # candidate starts before ``step_end``; path-less ones stay in
        # the list, since their arrival splits the interval all the same.
        starts_c = starts[candidates]
        later = np.flatnonzero(starts_c > tau + _TIME_EPS_S)
        later = later[np.argsort(starts_c[later], kind="stable")]
        arrival_s = starts_c[later].tolist()
        arrival_pos = later.tolist()
        cand = candidates.tolist()
        row_of = row_of_cand.tolist()
        path_of = has_path.tolist()
        # Valid caps (``FluidFlow`` checks each, the snapshot solve the
        # rows): the re-solves pass them on unchecked.
        cap_of = row_demands.tolist()
        # The kept active set: candidate positions in candidate order.
        kept = active.tolist()
        rates = allocated.tolist()
        arrived = 0
        while True:
            flows = [cand[pos] for pos in kept]
            next_tau = (arrival_s[arrived] if arrived < len(arrival_s)
                        else step_end)
            residuals = [residual_bits.item(flow) for flow in flows]
            for res, rate in zip(residuals, rates):
                if rate > 0.0 and isfinite(res):
                    wait = res / rate
                    done = tau + (wait if wait > _TIME_EPS_S
                                  else _TIME_EPS_S)
                    if done < next_tau:
                        next_tau = done
            dt = next_tau - tau
            if dt > 0.0 and kept:
                left = []
                for pos, flow, res, rate in zip(kept, flows, residuals,
                                                rates):
                    if rate > 0.0:
                        served = rate * dt
                        if res < served:
                            served = res
                        delivered_bits[flow] = (
                            delivered_bits.item(flow) + served)
                        if isfinite(res):
                            res -= served
                            if res <= _RESIDUAL_EPS_BITS:
                                residual_bits[flow] = 0.0
                                fct_s[flow] = next_tau - starts.item(flow)
                                continue
                            residual_bits[flow] = res
                    left.append(pos)
                kept = left
            tau = next_tau
            if tau >= step_end - _TIME_EPS_S:
                return
            while (arrived < len(arrival_s)
                   and arrival_s[arrived] <= tau + _TIME_EPS_S):
                pos = arrival_pos[arrived]
                if path_of[pos] and residual_bits.item(cand[pos]) > 0.0:
                    insort(kept, pos)
                arrived += 1
            rows = [row_of[pos] for pos in kept]
            rates = []
            if kept:
                # Row -> active members, in first-active order.
                copies = dict.fromkeys(rows, 0)
                for row in rows:
                    copies[row] += 1
                solved = list(copies)
                rate_of = dict(zip(solved, waterfill_lists(
                    matrix, solved, [cap_of[row] for row in solved],
                    None if len(solved) == len(rows)
                    else list(copies.values()))))
                rates = [rate_of[row] for row in rows]
            state.solves += 1

    def _device_capacities(self, keys: Sequence[Hashable], faults,
                           time_s: float) -> np.ndarray:
        """The devices' capacities at ``time_s`` under the fault schedule:
        cut/outaged devices are zero-capacity (max-min flows over them
        — frozen-topology mode — get rate 0, AIMD backlogs overflow and
        on-path flows halve); lossy ones shrink to the expected goodput."""
        capacities = np.full(len(keys), self.link_capacity_bps, dtype=float)
        if faults is not None:
            capacities *= faults.capacity_factors(keys, self._num_sats,
                                                  time_s)
        return capacities

    def _record_snapshot(self, state: FluidRunState, time_s: float,
                         step: ClassPaths, row_rates: np.ndarray,
                         eligible: np.ndarray, loads: Dict[Hashable, float],
                         active_count: int) -> None:
        """Append one snapshot to the run history and to the metric
        series: ``row_rates`` (one per row of ``step``) and which of its
        candidates take them (``eligible``).

        The candidate set, their rows and the eligible mask are kept as
        the previous snapshot's objects while they are equal to them, so
        a static workload holds them once.
        """
        candidates = step.candidates
        if state.snapshots:
            last = state.snapshots[-1]
            if (candidates is last.candidates
                    and np.array_equal(eligible, last.eligible)):
                eligible = last.eligible
        state.snapshots.append(SnapshotRecord(
            candidates, step.row_of_cand, eligible, row_rates, step.paths))
        state.all_loads.append(loads)
        registry = self.metrics
        if registry is None:
            return
        rates_row = state.snapshots[-1].rates(len(state.starts))
        connected = int((rates_row > 0.0).sum())
        registry.series("fluid.connected_flows").append(time_s, connected)
        registry.series("fluid.mean_rate_bps").append(
            time_s, float(rates_row.mean()) if rates_row.size else 0.0)
        peak = max(loads.values()) if loads else 0.0
        registry.series("fluid.peak_utilization").append(
            time_s, peak / self.link_capacity_bps)
        if state.dynamic:
            registry.series("traffic.active_flows").append(
                time_s, float(active_count))
