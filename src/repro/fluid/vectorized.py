"""Vectorized max-min fairness over a flat flows-on-links incidence.

Progressive filling over dicts and sets (the reference allocator kept
as a test oracle, ``tests/_fluid_oracle.py``) costs O(events x flows)
Python work per solve, which caps the traffic subsystem at a few thousand
concurrent flows.  This module holds the million-flow representation:

* :class:`FlowLinkMatrix` stores which links each flow traverses as a CSR
  incidence matrix.  Entries are kept *per traversal* in path order, so a
  loop path crossing a link twice carries an integer multiplicity of 2 —
  by construction the kernel can never allocate more than capacity on a
  repeated link (the bug the set-based allocator had).
* :func:`waterfill` runs progressive filling over flat arrays: per-link
  fill rates (traversal-weighted flow counts) and residual capacities are
  float64 vectors, each freezing event is one ``argmin`` over live links,
  and demand caps are consumed through one pre-sorted order.

The kernel is an exact replica of the oracle, not an approximation: link
columns are numbered in first-appearance order (the oracle's dict
insertion order), ``argmin`` breaks ties toward the first column exactly
like the oracle's strict ``<`` scan, and every floating-point update uses
the same operation sequence.  On identical inputs the two return
bit-identical rates — ``make bench-fluid-scale`` asserts exactly that
before timing anything.

Array calls cost ~100 µs of numpy overhead per solve however little
there is to solve, and a live service solves thousands of two-row
problems per epoch.  :func:`waterfill` therefore has a second kernel for
solves of at most :data:`SMALL_SOLVE_ENTRIES` rows and traversal entries:
the same float64 operations in the same order on Python floats and
lists (5-10x cheaper at 1-16 rows).  It picks by the solve's size alone;
``results/fluid_small_solves.txt`` holds the measured crossover the
constant is set from (DESIGN.md "Small solves").
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FlowLinkMatrix",
    "waterfill",
    "max_min_fair_allocation",
]

#: Largest solve — rows, and traversal entries over those rows — that
#: :func:`waterfill` runs on Python scalars instead of arrays.  Measured
#: (``make bench-fluid-scale``): the scalar kernel is >= 1.5x faster
#: here, level at 512-1024 entries, and >= 1.5x slower at 2048 — its worst
#: case is freezing events x live links, so the bound sits below the
#: crossover.
SMALL_SOLVE_ENTRIES = 256

_INF = float("inf")
_UNCONSTRAINED = ("some flows are unconstrained (infinite demand and no "
                  "saturating link)")


class FlowLinkMatrix:
    """Flows-on-links incidence in CSR form, one entry per traversal.

    Args:
        link_keys: Link key of every column, in column order.
        capacity_bps: (L,) per-link capacities.
        indptr: (F+1,) CSR row pointers into ``link_index``.
        link_index: (nnz,) column id of each traversal, row-major in path
            order.  Repeated ids within a row encode traversal
            multiplicity.
    """

    def __init__(self, link_keys: Sequence[Hashable],
                 capacity_bps: np.ndarray, indptr: np.ndarray,
                 link_index: np.ndarray) -> None:
        self.link_keys: List[Hashable] = list(link_keys)
        self.capacity_bps = np.asarray(capacity_bps, dtype=float)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.link_index = np.asarray(link_index, dtype=np.int64)
        if self.capacity_bps.shape != (len(self.link_keys),):
            raise ValueError("capacity_bps must have one entry per link")
        if (self.capacity_bps < 0.0).any():
            bad = int(np.flatnonzero(self.capacity_bps < 0.0)[0])
            raise ValueError(
                f"negative capacity on link {self.link_keys[bad]!r}")
        if np.isnan(self.capacity_bps).any():
            bad = int(np.flatnonzero(np.isnan(self.capacity_bps))[0])
            raise ValueError(
                f"NaN capacity on link {self.link_keys[bad]!r}")
        if self.indptr.ndim != 1 or self.indptr.size == 0 \
                or self.indptr[0] != 0 \
                or (np.diff(self.indptr) < 0).any() \
                or self.indptr[-1] != self.link_index.size:
            raise ValueError("malformed CSR row pointers")
        if self.link_index.size and (
                (self.link_index < 0).any()
                or (self.link_index >= len(self.link_keys)).any()):
            raise ValueError("link index out of range")
        #: The scalar kernel's view (see :meth:`_as_lists`), built on the
        #: first small solve; the arrays above are read-only from here on.
        self._lists: Optional[Tuple[List[List[int]], List[float]]] = None

    @property
    def num_flows(self) -> int:
        return self.indptr.size - 1

    @property
    def num_links(self) -> int:
        return len(self.link_keys)

    @property
    def nnz(self) -> int:
        """Total traversal count (repeated links counted per crossing)."""
        return self.link_index.size

    @classmethod
    def from_paths(cls, link_capacity: Dict[Hashable, float],
                   flow_links: Sequence[Sequence[Hashable]]
                   ) -> "FlowLinkMatrix":
        """Build from the oracle's inputs (link-key dict + per-flow paths).

        Columns are numbered in first-appearance order over the flows'
        traversal sequences — exactly the oracle's link dict insertion
        order, which makes the kernel's tie-breaking identical.
        """
        keys: List[Hashable] = []
        index: Dict[Hashable, int] = {}
        cols: List[int] = []
        indptr = [0]
        for flow_index, links in enumerate(flow_links):
            for link in links:
                j = index.get(link)
                if j is None:
                    if link not in link_capacity:
                        raise ValueError(
                            f"flow {flow_index} uses unknown link {link!r}")
                    j = len(keys)
                    index[link] = j
                    keys.append(link)
                cols.append(j)
            indptr.append(len(cols))
        capacities = np.array([float(link_capacity[key]) for key in keys])
        return cls(keys, capacities,
                   np.asarray(indptr, dtype=np.int64),
                   np.asarray(cols, dtype=np.int64))

    def link_loads(self, rates: np.ndarray,
                   rows: Optional[np.ndarray] = None) -> np.ndarray:
        """(L,) per-link consumed bandwidth ``sum(rate * multiplicity)``.

        ``rates`` is aligned with ``rows`` when given (else with all
        rows).  ``rows`` may repeat — one entry per flow when several
        flows share a row.  Additions happen entry by entry in traversal
        order, matching the oracle-path accounting bit for bit.
        """
        loads = np.zeros(self.num_links)
        if rows is None:
            rows = np.arange(self.num_flows)
        cols, _, entry_rows = self._gather(np.asarray(rows, dtype=np.int64))
        np.add.at(loads, cols, np.asarray(rates, dtype=float)[entry_rows])
        return loads

    def _as_lists(self) -> Tuple[List[List[int]], List[float]]:
        """``(row_columns, capacities)`` as Python lists of ints and
        floats — what :func:`waterfill`'s scalar kernel indexes.

        Converted once per matrix, on the first small solve: a matrix
        that only ever sees large solves never pays for it, and a step's
        hundreds of small ones share one conversion.
        """
        if self._lists is None:
            flat = self.link_index.tolist()
            ptr = self.indptr.tolist()
            self._lists = ([flat[a:b] for a, b in zip(ptr, ptr[1:])],
                           self.capacity_bps.tolist())
        return self._lists

    def _gather(self, rows: np.ndarray):
        """Concatenated traversal entries of ``rows``.

        Returns ``(cols, out_ptr, entry_rows)``: column ids in row-major
        path order, (len(rows)+1,) pointers into them, and each entry's
        local row position.
        """
        counts = self.indptr[rows + 1] - self.indptr[rows]
        out_ptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=out_ptr[1:])
        total = int(out_ptr[-1])
        if total == 0:
            return (np.empty(0, dtype=np.int64), out_ptr,
                    np.empty(0, dtype=np.int64))
        gather = (np.repeat(self.indptr[rows] - out_ptr[:-1], counts)
                  + np.arange(total, dtype=np.int64))
        entry_rows = np.repeat(np.arange(rows.size, dtype=np.int64), counts)
        return self.link_index[gather], out_ptr, entry_rows


def waterfill(matrix: FlowLinkMatrix,
              demands: Optional[Sequence[float]] = None,
              active: Optional[np.ndarray] = None,
              multiplicity: Optional[np.ndarray] = None) -> np.ndarray:
    """Batched progressive filling over a :class:`FlowLinkMatrix`.

    Args:
        matrix: The incidence (capacities + traversals).
        demands: Optional per-row rate caps aligned with the matrix rows
            (all rows, even when ``active`` restricts the solve).
        active: Optional distinct row indices to allocate, in any order;
            other rows take no capacity.  Links are numbered as they
            first appear along ``active``, which decides ties between
            equally loaded bottlenecks.  ``None`` solves every row.
        multiplicity: Optional positive integer counts aligned with
            ``active``: row ``i`` stands for that many identical flows
            (same links, same cap), each of which gets the row's rate.

    Returns:
        Per-flow rates aligned with ``active`` (or with all rows when
        ``None``) — bit-identical to running the pure-Python oracle with
        every row repeated ``multiplicity`` times in place.

    Two kernels compute the same IEEE operations in the same order: a
    solve of at most :data:`SMALL_SOLVE_ENTRIES` rows and traversal
    entries runs on Python floats and lists, anything larger on arrays.
    The choice depends on the solve's size alone and cannot show in the
    rates.
    """
    total_flows = matrix.num_flows
    if active is None:
        act = np.arange(total_flows, dtype=np.int64)
    else:
        act = np.asarray(active, dtype=np.int64)
    n = act.size
    if n == 0:
        return np.zeros(0)

    if demands is None:
        dem = np.full(n, np.inf)
    else:
        dem = np.asarray(demands, dtype=float)
        if dem.shape[0] != total_flows:
            raise ValueError("demands length must match flow count")
        # ``not (x >= 0)`` also rejects NaN, which ``x < 0`` lets through.
        if not (dem >= 0.0).all():
            raise ValueError("demands must be non-negative")
        dem = dem[act]

    if n <= SMALL_SOLVE_ENTRIES:
        row_columns = matrix._as_lists()[0]
        if sum(len(row_columns[row])
               for row in act.tolist()) <= SMALL_SOLVE_ENTRIES:
            return _waterfill_scalars(matrix, dem, act, multiplicity)
    return _waterfill_arrays(matrix, dem, act, multiplicity)


def _waterfill_scalars(matrix: FlowLinkMatrix, dem: np.ndarray,
                       act: np.ndarray,
                       multiplicity: Optional[np.ndarray]) -> np.ndarray:
    """:func:`waterfill`'s kernel for small solves, on Python scalars.

    ``dem`` is the validated (n,) cap of each row of ``act``.  Mirrors
    :func:`_waterfill_arrays` operation for operation — links numbered
    as they first appear along ``act``, the strict-``<`` scan keeping
    the first minimum share like ``argmin``, one stable demand order,
    ``max(residual - increment * weight, 0)`` per live link — so every
    share and residual goes through the same float64 roundings.  Weights
    are integer-valued, so the order rows are frozen in within one event
    cannot change them.
    """
    row_columns, capacity = matrix._as_lists()
    rows = act.tolist()
    caps = dem.tolist()
    n = len(rows)
    copies = ([1.0] * n if multiplicity is None
              else [float(m) for m in np.asarray(multiplicity).tolist()])
    rates = [0.0] * n
    frozen = [False] * n
    unfrozen = n

    local: Dict[int, int] = {}  # matrix column -> link of this solve
    residual: List[float] = []
    weight: List[float] = []
    members: List[List[int]] = []  # per link, its rows per traversal
    row_links: List[List[int]] = []
    for i, row in enumerate(rows):
        links = []
        for column in row_columns[row]:
            link = local.get(column)
            if link is None:
                link = local[column] = len(residual)
                residual.append(capacity[column])
                weight.append(0.0)
                members.append([])
            weight[link] += copies[i]
            members[link].append(i)
            links.append(link)
        row_links.append(links)
        if not links:
            # Limited only by demand (no capacity-constrained links).
            if caps[i] == _INF:
                raise ValueError(
                    f"flow {i} has no links and infinite demand")
            rates[i] = caps[i]
            frozen[i] = True
            unfrozen -= 1

    demand_order = sorted(range(n), key=caps.__getitem__)
    pointer = 0
    live = list(range(len(residual)))
    level = 0.0
    while unfrozen:
        live = [link for link in live if weight[link] > 0.0]
        best = _INF
        bottleneck = -1
        for link in live:
            share = level + residual[link] / weight[link]
            if share < best:
                best = share
                bottleneck = link
        while pointer < n and frozen[demand_order[pointer]]:
            pointer += 1
        capped = caps[demand_order[pointer]] if pointer < n else _INF
        if capped < best:
            best = capped
            bottleneck = -1

        if best == _INF:
            raise ValueError(_UNCONSTRAINED)

        increment = best - level
        for link in live:
            left = residual[link] - increment * weight[link]
            residual[link] = left if left > 0.0 else 0.0

        newly = []
        if bottleneck >= 0:
            for i in members[bottleneck]:
                if not frozen[i]:
                    rates[i] = best if best < caps[i] else caps[i]
                    frozen[i] = True
                    newly.append(i)
        while pointer < n:
            i = demand_order[pointer]
            if not frozen[i]:
                if caps[i] > best:
                    break
                rates[i] = caps[i]
                frozen[i] = True
                newly.append(i)
            pointer += 1
        unfrozen -= len(newly)
        for i in newly:
            for link in row_links[i]:
                weight[link] -= copies[i]
        level = best
    return np.array(rates)


def _waterfill_arrays(matrix: FlowLinkMatrix, dem: np.ndarray,
                      act: np.ndarray,
                      multiplicity: Optional[np.ndarray]) -> np.ndarray:
    """:func:`waterfill`'s kernel for large solves, on flat arrays.

    ``dem`` is the validated (n,) cap of each row of ``act``.
    """
    n = act.size
    rates = np.zeros(n)

    # Active traversal entries, compacted to first-appearance column
    # order over the active rows (== the oracle's dict order restricted
    # to these flows).
    cols, out_ptr, _ = matrix._gather(act)
    counts = np.diff(out_ptr)
    if _in_first_appearance_order(cols):
        # Already numbered 0, 1, 2, ... as they first appear (a solve of
        # all rows in matrix order): the renumbering is the identity.
        lcol = cols
        num_links = int(cols.max(initial=-1)) + 1
        residual = matrix.capacity_bps[:num_links].copy()
    else:
        uniq, first_pos, inverse = np.unique(
            cols, return_index=True, return_inverse=True)
        order = np.argsort(first_pos, kind="stable")
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = np.arange(order.size, dtype=np.int64)
        lcol = rank[inverse.reshape(-1)]
        num_links = order.size
        residual = matrix.capacity_bps[uniq[order]].copy()

    # Per-link fill weight: traversal count of unfrozen flows — an
    # integer-valued float64, so adding m once is adding 1.0 m times.
    entry_copies = (1.0 if multiplicity is None else np.repeat(
        np.asarray(multiplicity, dtype=float), counts))
    weight = np.zeros(num_links)
    np.add.at(weight, lcol, entry_copies)
    # Per-link flow groups (for freezing a bottleneck's flows).
    grp_order = np.argsort(lcol, kind="stable")
    grp_rows = np.repeat(np.arange(n, dtype=np.int64), counts)[grp_order]
    grp_ptr = np.zeros(num_links + 1, dtype=np.int64)
    if num_links:
        np.cumsum(np.bincount(lcol, minlength=num_links), out=grp_ptr[1:])

    frozen = np.zeros(n, dtype=bool)
    # Flows limited only by demand (no capacity-constrained links).
    nolink = np.flatnonzero(counts == 0)
    if nolink.size:
        finite = np.isfinite(dem[nolink])
        if not finite.all():
            bad = int(nolink[np.flatnonzero(~finite)[0]])
            raise ValueError(
                f"flow {bad} has no links and infinite demand")
        rates[nolink] = dem[nolink]
        frozen[nolink] = True

    demand_order = np.argsort(dem, kind="stable")
    pointer = 0
    unfrozen = int(n - frozen.sum())
    live = np.arange(num_links, dtype=np.int64)
    level = 0.0
    while unfrozen:
        live = live[weight[live] > 0.0]
        if live.size:
            shares = level + residual[live] / weight[live]
            k = int(np.argmin(shares))
            best = float(shares[k])
            bottleneck = int(live[k])
        else:
            best = np.inf
            bottleneck = -1
        while pointer < n and frozen[demand_order[pointer]]:
            pointer += 1
        capped = dem[demand_order[pointer]] if pointer < n else np.inf
        if capped < best:
            best = float(capped)
            bottleneck = -1

        if not np.isfinite(best):
            raise ValueError(_UNCONSTRAINED)

        increment = best - level
        if live.size:
            residual[live] = np.maximum(
                residual[live] - increment * weight[live], 0.0)

        newly: List[np.ndarray] = []
        if bottleneck >= 0:
            group = grp_rows[grp_ptr[bottleneck]:grp_ptr[bottleneck + 1]]
            group = group[~frozen[group]]
            if group.size:
                group = np.unique(group)
                rates[group] = np.minimum(best, dem[group])
                frozen[group] = True
                unfrozen -= int(group.size)
                newly.append(group)
        while pointer < n:
            flow = demand_order[pointer]
            if frozen[flow]:
                pointer += 1
                continue
            if dem[flow] <= best:
                rates[flow] = dem[flow]
                frozen[flow] = True
                unfrozen -= 1
                newly.append(np.array([flow], dtype=np.int64))
                pointer += 1
            else:
                break
        if newly:
            rows = np.concatenate(newly)
            widths = counts[rows]
            total = int(widths.sum())
            if total:
                prefix = np.zeros(rows.size, dtype=np.int64)
                np.cumsum(widths[:-1], out=prefix[1:])
                gather = (np.repeat(out_ptr[rows] - prefix, widths)
                          + np.arange(total, dtype=np.int64))
                np.subtract.at(weight, lcol[gather],
                               1.0 if multiplicity is None
                               else entry_copies[gather])
        level = best
    return rates


def _in_first_appearance_order(cols: np.ndarray) -> bool:
    """Whether column ids already count 0, 1, 2, ... as they first
    appear: the first is 0 and the running maximum never steps by more
    than 1 (every id below it has then appeared).  O(len(cols))."""
    if not cols.size:
        return True
    if cols[0] != 0:
        return False
    return bool((np.diff(np.maximum.accumulate(cols)) <= 1).all())


def max_min_fair_allocation(
        link_capacity: Dict[Hashable, float],
        flow_links: Sequence[Sequence[Hashable]],
        demands: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Max-min fair rates of flows given as per-traversal link lists.

    A flow listing the same link more than once (a loop path) consumes
    capacity once per traversal.  A flow with no links is only limited
    by its demand.

    Args:
        link_capacity: Capacity of every link (any hashable link key).
        flow_links: For each flow, the links it traverses, one entry per
            traversal.
        demands: Optional per-flow rate caps; ``None`` means every flow
            is elastic (infinite demand).

    Returns:
        (F,) array of allocated rates.

    Raises:
        ValueError: On negative capacities/demands, links missing from
            ``link_capacity``, or flows nothing constrains.
    """
    num_flows = len(flow_links)
    if num_flows == 0:
        return np.zeros(0)
    for link, capacity in link_capacity.items():
        if capacity < 0.0:
            raise ValueError(f"negative capacity on link {link!r}")
        if capacity != capacity:
            raise ValueError(f"NaN capacity on link {link!r}")
    if demands is not None and len(demands) != num_flows:
        raise ValueError("demands length must match flow count")
    matrix = FlowLinkMatrix.from_paths(link_capacity, flow_links)
    return waterfill(matrix, demands=demands)
