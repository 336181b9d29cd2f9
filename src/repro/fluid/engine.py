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

import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import spans
from ..obs.metrics import MetricsRegistry
from ..obs.report import RunReport, fct_summary, fluid_run_report
from ..routing.engine import RoutingEngine
from ..topology.dynamic_state import snapshot_times
from ..topology.network import LeoNetwork, TopologySnapshot
from .vectorized import FlowLinkMatrix, waterfill

__all__ = ["FluidFlow", "FluidResult", "FluidRunState", "FluidSimulation",
           "path_devices", "flatten_path_devices", "decode_device",
           "first_appearance_columns", "flow_link_matrix_from_paths"]

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


def flatten_path_devices(paths: Sequence[Optional[Sequence[int]]],
                         num_satellites: int, num_nodes: int
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`path_devices` over many paths at once.

    Encodes every transmitting device as one int64 code — ``a*N + b``
    for the directed ISL ``(a, b)``, ``N*N + a`` for the shared GSL
    device of node ``a`` (``N = num_nodes``) — and returns
    ``(codes, hop_counts)``: the concatenated per-hop device codes in
    path order, plus each path's hop count (0 for ``None`` paths).
    Decode with :func:`decode_device`.
    """
    num_paths = len(paths)
    lens = np.fromiter((len(p) if p is not None else 0 for p in paths),
                       dtype=np.int64, count=num_paths)
    total = int(lens.sum())
    hop_counts = np.maximum(lens - 1, 0)
    if total == 0:
        return np.empty(0, dtype=np.int64), hop_counts
    flat = np.fromiter(
        chain.from_iterable(p for p in paths if p is not None),
        dtype=np.int64, count=total)
    ends = np.cumsum(lens[lens > 0])
    keep_a = np.ones(total, dtype=bool)
    keep_a[ends - 1] = False          # drop each path's last node
    keep_b = np.ones(total, dtype=bool)
    keep_b[ends[:-1]] = False         # drop each path's first node
    keep_b[0] = False
    src = flat[keep_a]
    dst = flat[keep_b]
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


def first_appearance_columns(codes: np.ndarray
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """Number the distinct device codes in first-appearance order.

    Returns ``(columns, column_codes)``: each entry's column, and the
    code each column stands for — the order a dict keyed by device
    would have after inserting ``codes`` one by one.
    """
    if not codes.size:
        return codes, codes
    uniq, first_pos, inverse = np.unique(
        codes, return_index=True, return_inverse=True)
    order = np.argsort(first_pos, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size, dtype=np.int64)
    return rank[inverse.reshape(-1)], uniq[order]


def first_appearance_rows(ids: np.ndarray, num_ids: int
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`first_appearance_columns` for small dense ids, sort-free.

    ``ids`` lie in ``[0, num_ids)`` (flow classes, matrix rows), so one
    scatter-min over a ``num_ids`` table finds every id's first position
    in O(len(ids)) — this runs over every candidate flow each step.

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


def flow_link_matrix_from_paths(
        paths: Sequence[Optional[Sequence[int]]], num_satellites: int,
        num_nodes: int, capacities_of
        ) -> Tuple["FlowLinkMatrix", np.ndarray]:
    """Build one snapshot's flows-on-links CSR from node paths.

    Device codes are flattened in path order and columns numbered by
    :func:`first_appearance_columns` — exactly the oracle's link dict
    insertion order, so :func:`repro.fluid.vectorized.waterfill` over
    the matrix reproduces the reference allocator
    (``tests/_fluid_oracle.py``) bit-for-bit.  A ``None`` path becomes
    an empty row.

    Args:
        paths: Per-flow node paths (``None`` for disconnected flows).
        num_satellites: Node-numbering split point.
        num_nodes: Total node count (satellites + ground stations).
        capacities_of: Callable mapping the list of device keys (one per
            matrix column) to their capacities (bps), all at once.

    Returns:
        ``(matrix, hop_counts)`` — the incidence matrix and the (F,)
        per-flow device count (0 marks disconnected flows).
    """
    codes, hop_counts = flatten_path_devices(paths, num_satellites,
                                             num_nodes)
    indptr = np.zeros(len(paths) + 1, dtype=np.int64)
    np.cumsum(hop_counts, out=indptr[1:])
    link_index, step_codes = first_appearance_columns(codes)
    keys = [decode_device(code, num_nodes) for code in step_codes]
    matrix = FlowLinkMatrix(keys, capacities_of(keys), indptr, link_index)
    return matrix, hop_counts


@dataclass
class FluidResult:
    """Output of a fluid simulation.

    Attributes:
        times_s: (T,) snapshot times.
        flow_rates_bps: (T, F) allocated rate of each flow over time;
            zero while a flow's endpoints are disconnected.
        flow_paths: ``flow_paths[t][f]`` node-id path or None.
        device_load_bps: per snapshot, mapping device-key -> allocated load.
        num_satellites: Node-numbering split point (satellites below it).
        link_capacity_bps: The uniform device capacity of the run.
        engine: Which engine produced the result ("maxmin" or "aimd").
        kernel: Constant provenance label of the max-min engine's
            allocator ("vectorized"; "" for AIMD), kept so run reports
            stay byte-identical.
        perf: Wall-clock accounting of the run (wall_time_s,
            snapshots_computed), filled by the engines.
        duration_s: Simulated horizon of the run.
        flow_offered_bits: (F,) per-flow offered volume — ``inf`` for
            long-running flows; ``None`` for fully static workloads.
        flow_delivered_bits: (F,) bits each flow actually transferred
            over the run; ``None`` for fully static workloads.
        flow_fct_s: (F,) flow completion time (completion − start);
            ``nan`` for flows that never completed; ``None`` for fully
            static workloads.
    """

    times_s: np.ndarray
    flow_rates_bps: np.ndarray
    flow_paths: List[List[Optional[Tuple[int, ...]]]]
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

    def fct_values(self) -> np.ndarray:
        """Completed flows' completion times (empty for static runs)."""
        if self.flow_fct_s is None:
            return np.empty(0)
        return self.flow_fct_s[np.isfinite(self.flow_fct_s)]

    def perf_summary(self) -> Dict[str, float]:
        """Flat performance/accounting summary (report-facing) — the
        fluid counterpart of :meth:`SimulationStats.perf_summary`."""
        num_snapshots = len(self.times_s)
        rates = self.flow_rates_bps
        connected = (rates > 0.0).any(axis=0).sum() if rates.size else 0
        summary: Dict[str, float] = {
            "snapshots": float(num_snapshots),
            "flows": float(rates.shape[1]) if rates.ndim == 2 else 0.0,
            "flows_ever_connected": float(connected),
            "mean_rate_bps": float(rates.mean()) if rates.size else 0.0,
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
            if self.flow_offered_bits is not None:
                finite = np.isfinite(self.flow_offered_bits)
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
        wall = self.perf.get("wall_time_s", 0.0)
        if wall > 0.0:
            summary["snapshots_per_wall_s"] = num_snapshots / wall
        return summary

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

    Everything the snapshot loop carries between steps, in picklable
    form, so a run can stop at any snapshot boundary, be checkpointed
    by :mod:`repro.service`, and continue in another process with
    bit-identical results.  Snapshot boundaries are the natural cut:
    the sub-event loop (intra-step arrivals/completions) is fully
    contained within one step, so no sub-event cursor survives a
    boundary — the residuals, delivered bits and FCTs *are* the cursor.

    Attributes:
        duration_s: Simulated horizon of the run.
        step_s: Snapshot granularity.
        times: (T,) snapshot times of the whole run.
        next_index: Index into ``times`` of the next unprocessed step;
            ``next_index == len(times)`` means the run is done.
        rates: (T, F) allocated rates (rows >= ``next_index`` unset).
        all_paths / all_loads: Per-processed-snapshot paths and loads.
        starts / offered_bits / residual_bits / delivered_bits / fct_s:
            (F,) per-flow workload cursors.
        demand_caps: (F,) invariant per-flow rate caps.
        flow_class: (F,) int32 id of each flow's class — flows with the
            same endpoints and demand cap, which therefore share a path
            and a max-min rate; ids count up in first-flow order (four
            bytes per flow in a checkpoint).
        dynamic: Whether the workload has arrivals or finite sizes.
        solves: Allocations solved so far.
        frozen_paths: (F,) object array of static-baseline paths
            (``freeze_topology_at_s``).
        wall_time_s: Wall-clock seconds accumulated across ``advance``
            calls (survives checkpoints; perf-only, excluded from
            parity comparisons).
    """

    duration_s: float
    step_s: float
    times: np.ndarray
    rates: np.ndarray
    next_index: int = 0
    all_paths: List[List[Optional[Tuple[int, ...]]]] = field(
        default_factory=list)
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
    frozen_paths: Optional[np.ndarray] = None
    wall_time_s: float = 0.0

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
        flows: The long-running flows.
        link_capacity_bps: Uniform device capacity (paper: 10 Mbit/s).
        freeze_topology_at_s: If not None, routes and geometry are frozen
            at this time — the "static network" baseline (gray line of
            Fig. 10).
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
                 capacity_overrides: Optional[
                     Dict[Hashable, float]] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if not flows:
            raise ValueError("need at least one flow")
        if link_capacity_bps <= 0.0:
            raise ValueError("capacity must be positive")
        self.network = network
        self.flows = list(flows)
        self.link_capacity_bps = link_capacity_bps
        self.freeze_topology_at_s = freeze_topology_at_s
        #: Per-device capacity overrides (paper §7's link heterogeneity);
        #: keys follow :func:`path_devices` — ``(a, b)`` for directed
        #: ISLs, ``("gsl", node)`` for GSL devices.
        self.capacity_overrides = dict(capacity_overrides or {})
        for capacity in self.capacity_overrides.values():
            if capacity <= 0.0:
                raise ValueError("override capacities must be positive")
        self.metrics = metrics
        self._engine = RoutingEngine(network)
        self._num_sats = network.num_satellites
        #: ((src_gid, dst_gid), demand cap) -> class id, in first-flow
        #: order (filled by :meth:`extend_flows`).
        self._class_of: Dict[Tuple[Tuple[int, int], float], int] = {}

    def _paths_at(self, state: "FluidRunState", snapshot: TopologySnapshot,
                  indices: Optional[np.ndarray] = None) -> np.ndarray:
        """(F,) object array of the flows' node-tuple paths at
        ``snapshot``; ``None`` while disconnected.  Only the classes of
        the flows in ``indices`` (default: all) are looked up.

        One batched Dijkstra covers every destination tree and one
        batched walk extracts a path per flow *class* present — gravity
        workloads put thousands of flows on the same few city pairs —
        which a single gather then hands to the member flows.
        """
        flow_class = state.flow_class
        classes = list(self._class_of)
        present = np.flatnonzero(np.bincount(
            flow_class if indices is None else flow_class[indices],
            minlength=len(classes)))
        node_paths = self._engine.paths_many(
            snapshot, [classes[c][0] for c in present.tolist()])
        class_paths = np.full(len(classes), None, dtype=object)
        class_paths[present] = np.fromiter(
            (None if path is None else tuple(path) for path in node_paths),
            dtype=object, count=present.size)
        return class_paths[flow_class]

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
        so an uninterrupted run and a checkpointed-and-resumed one go
        through the exact same code path (the determinism tests in
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
        state = self.STATE(float(duration_s), float(step_s), times,
                           rates=np.zeros((len(times), 0)))
        self.extend_flows(state, ())
        return state

    def extend_flows(self, state: FluidRunState,
                     flows: Sequence[FluidFlow]) -> int:
        """Add ``flows`` to the simulation and grow ``state`` to cover
        every flow it holds; returns the index of the first new flow.

        The one place the per-flow array layout lives.  History rows
        gain ``None`` paths and zero rates — exactly what a from-t=0 run
        records for flows that have not arrived yet — so attaching flows
        to a live run at a snapshot boundary is bit-identical to having
        built the simulation with them.
        """
        self.flows.extend(flows)
        first = len(state.starts)
        new = self.flows[first:]
        starts = np.array([flow.start_s for flow in new])
        offered_bits = np.array([
            flow.size_bytes * 8.0 if flow.size_bytes is not None else np.inf
            for flow in new])
        # Invariant per-flow rate caps, hoisted out of the sub-event loop
        # (elastic flows capped far above any device capacity).
        demand_caps = np.minimum(
            np.array([flow.demand_bps for flow in new]),
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
        class_of = self._class_of
        state.flow_class = np.concatenate([state.flow_class, np.array(
            [class_of.setdefault(((flow.src_gid, flow.dst_gid), cap),
                                 len(class_of))
             for flow, cap in zip(new, demand_caps.tolist())],
            dtype=np.int32)])
        rates = np.zeros((len(state.times), len(self.flows)))
        rates[:, :first] = state.rates
        state.rates = rates
        for row in state.all_paths:
            row.extend([None] * len(new))
        state.dynamic = bool(state.dynamic or (starts > 0.0).any()
                             or np.isfinite(offered_bits).any())
        if self.freeze_topology_at_s is not None:
            state.frozen_paths = self._paths_at(
                state, self.network.snapshot(self.freeze_topology_at_s))
        return first

    def advance(self, state: FluidRunState,
                max_steps: Optional[int] = None) -> FluidRunState:
        """Process up to ``max_steps`` snapshot steps (all remaining by
        default); returns ``state`` for chaining.

        Each call picks up exactly where the previous one stopped, so
        ``advance(s, k)`` repeated to exhaustion is bit-identical to one
        ``advance(s)`` — and a ``state`` pickled between calls resumes
        identically in another process.
        """
        wall_start = time.perf_counter()
        stop = len(state.times)
        if max_steps is not None:
            if max_steps < 0:
                raise ValueError(f"max_steps must be >= 0, got {max_steps}")
            stop = min(stop, state.next_index + max_steps)
        faults = self.network.fault_view
        profiler = spans.ACTIVE
        run_span = profiler.begin("fluid.run") if profiler.enabled else -1
        frozen_paths = state.frozen_paths
        for t_index in range(state.next_index, stop):
            time_s = float(state.times[t_index])
            # Flows that could take capacity somewhere in this step:
            # already or soon started, not yet fully transferred.
            candidates = np.flatnonzero(
                (state.residual_bits > 0.0)
                & (state.starts < time_s + state.step_s))
            routed = frozen_paths
            if routed is None:
                span = (profiler.begin("fluid.paths")
                        if profiler.enabled else -1)
                snapshot = self.network.snapshot(time_s)
                routed = self._paths_at(state, snapshot, candidates)
                if span != -1:
                    profiler.end(span)
            # Flows out of play (not started, or completed) hold no path.
            paths = np.full(len(routed), None, dtype=object)
            paths[candidates] = routed[candidates]
            self._step(state, t_index, time_s, paths.tolist(), candidates,
                       faults)
            state.next_index = t_index + 1
        if run_span != -1:
            profiler.end(run_span)
        state.wall_time_s += time.perf_counter() - wall_start
        return state

    def finish(self, state: FluidRunState) -> FluidResult:
        """Package a fully-advanced run state as a :class:`FluidResult`."""
        if not state.done:
            raise RuntimeError(
                f"run has {len(state.times) - state.next_index} steps left; "
                f"advance() it to completion before finish()")
        dynamic = state.dynamic
        perf = {"wall_time_s": state.wall_time_s,
                "snapshots_computed": float(len(state.times))}
        if dynamic and state.solves:  # AIMD solves no allocation
            perf["allocations_solved"] = float(state.solves)
        return FluidResult(times_s=state.times,
                           flow_rates_bps=state.rates,
                           flow_paths=state.all_paths,
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

    def _step(self, state: FluidRunState, t_index: int, time_s: float,
              paths: List[Optional[Tuple[int, ...]]],
              candidates: np.ndarray, faults) -> None:
        """One snapshot step on the flat incidence representation.

        Flows of one class share a path and a max-min rate, so the
        step's flows-on-links CSR has one row per class among the
        candidates, in first-candidate order (int-encoded device codes
        in path order: the column numbering is still the oracle's link
        dict order over the flows).  It is built once; every
        arrival/completion inside the step is a row activation over that
        fixed matrix — each row weighted by its active members — not a
        rebuild.
        """
        profiler = spans.ACTIVE
        row_of_cand, first = first_appearance_rows(
            state.flow_class[candidates], len(self._class_of))
        lead = candidates[first]  # each row's first candidate
        build_span = (profiler.begin("fluid.matrix_build")
                      if profiler.enabled else -1)
        matrix, hop_counts = flow_link_matrix_from_paths(
            [paths[i] for i in lead.tolist()], self._num_sats,
            self.network.num_nodes,
            lambda keys: self._device_capacities(keys, faults, time_s))
        if build_span != -1:
            profiler.end(build_span)
        keys = matrix.link_keys

        starts, residual_bits = state.starts, state.residual_bits
        step_end = time_s + state.step_s
        starts_c = starts[candidates]
        row_demands = state.demand_caps[lead]
        has_path = (hop_counts > 0)[row_of_cand]
        loop_span = (profiler.begin("fluid.subevents")
                     if profiler.enabled else -1)
        tau = time_s
        recorded = False
        while True:
            active = np.flatnonzero((starts_c <= tau + _TIME_EPS_S)
                                    & (residual_bits[candidates] > 0.0)
                                    & has_path)
            solve_span = (profiler.begin("fluid.waterfill")
                          if profiler.enabled else -1)
            # Solve each row once, weighted by its active members, rows
            # ordered by their first *active* member so the columns keep
            # the per-flow first-appearance order.  With one member per
            # row (the common small solve) ``rows`` is that already.
            rows = row_of_cand[active]
            members = np.bincount(rows, minlength=matrix.num_flows)
            solved, slot, copies = rows, slice(None), None
            if np.count_nonzero(members) < rows.size:
                slot, opener = first_appearance_rows(rows, members.size)
                solved = rows[opener]
                copies = members[solved]
            allocated = waterfill(matrix, demands=row_demands, active=solved,
                                  multiplicity=copies)[slot]
            if solve_span != -1:
                profiler.end(solve_span)
            state.solves += 1
            global_active = candidates[active]
            if not recorded:
                # Flow by flow in traversal order: the bits of a load
                # depend on the order its rates were added in.
                load_arr = matrix.link_loads(allocated, rows)
                # A link is recorded iff a row with an active member
                # crosses it, carrying rate or not.
                crossed = np.zeros(matrix.num_links, dtype=bool)
                crossed[matrix.link_index[np.repeat(
                    members > 0, np.diff(matrix.indptr))]] = True
                loads = {keys[j]: float(load_arr[j])
                         for j in np.flatnonzero(crossed)}
                state.rates[t_index, global_active] = allocated
                self._record_snapshot(state, t_index, time_s, paths, loads,
                                      active_count=len(active))
                recorded = True
            next_tau = step_end
            pending = starts_c[(starts_c > tau + _TIME_EPS_S)
                               & (starts_c < next_tau)]
            if pending.size:
                next_tau = float(pending.min())
            res_act = residual_bits[global_active]
            finishing = np.isfinite(res_act) & (allocated > 0.0)
            if finishing.any():
                done = tau + np.maximum(
                    res_act[finishing] / allocated[finishing], _TIME_EPS_S)
                earliest = float(done.min())
                if earliest < next_tau:
                    next_tau = earliest
            dt = next_tau - tau
            if dt > 0.0 and active.size:
                positive = allocated > 0.0
                g_pos = global_active[positive]
                served = np.minimum(allocated[positive] * dt,
                                    residual_bits[g_pos])
                state.delivered_bits[g_pos] += served
                finite = np.isfinite(residual_bits[g_pos])
                g_fin = g_pos[finite]
                residual_bits[g_fin] -= served[finite]
                completed = residual_bits[g_fin] <= _RESIDUAL_EPS_BITS
                g_done = g_fin[completed]
                residual_bits[g_done] = 0.0
                state.fct_s[g_done] = next_tau - starts[g_done]
            tau = next_tau
            if tau >= step_end - _TIME_EPS_S:
                break
        if loop_span != -1:
            profiler.end(loop_span)

    def _device_capacities(self, keys: Sequence[Hashable], faults,
                           time_s: float) -> np.ndarray:
        """The devices' capacities at ``time_s`` under the fault schedule:
        cut/outaged devices are zero-capacity (max-min flows over them
        — frozen-topology mode — get rate 0, AIMD backlogs overflow and
        on-path flows halve); lossy ones shrink to the expected goodput."""
        overrides, default = self.capacity_overrides, self.link_capacity_bps
        capacities = np.array([overrides.get(key, default) for key in keys],
                              dtype=float)
        if faults is not None:
            capacities *= faults.capacity_factors(keys, self._num_sats,
                                                  time_s)
        return capacities

    def _record_snapshot(self, state: FluidRunState, t_index: int,
                         time_s: float, paths: list,
                         loads: Dict[Hashable, float],
                         active_count: int) -> None:
        """Append one snapshot (``state.rates[t_index]`` already set) to
        the run history and to the metric series."""
        state.all_paths.append(list(paths))
        state.all_loads.append(loads)
        registry = self.metrics
        if registry is None:
            return
        rates_row = state.rates[t_index]
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
