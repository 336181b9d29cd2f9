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
  float64 vectors, each freezing event is a handful of whole-array calls
  (one ``argmin`` over every link), and demand caps are consumed through
  one pre-sorted order.

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
constant is set from (DESIGN.md "Small solves").  :func:`waterfill_lists`
is the same choice for a caller that holds its solve as Python lists
and checked it once: it skips the checks and the numpy round trips.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import spans

__all__ = [
    "FlowLinkMatrix",
    "waterfill",
    "waterfill_lists",
    "max_min_fair_allocation",
]

#: Largest solve — rows, and traversal entries over those rows — that
#: :func:`waterfill` runs on Python scalars instead of arrays.  Measured
#: (``make bench-fluid-scale``): the scalar kernel is >= 1.38x faster
#: here on every row source, still ahead at 192 entries, loses on some
#: at 256, and is >= 1.9x slower at 1024 (8x the bound).
SMALL_SOLVE_ENTRIES = 128

#: Flows per block of :meth:`FlowLinkMatrix.link_loads`, whose memory
#: is then bounded by one block's traversal entries, not by the flows'.
LOAD_BLOCK_FLOWS = 16_384

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
        order, matching the oracle-path accounting bit for bit: blocks of
        :data:`LOAD_BLOCK_FLOWS` flows, in flow order, each gather their
        own entries and add them sequentially onto the one ``loads``.

        Raises:
            ValueError: If ``rates`` is not one value per flow.
        """
        rates = np.asarray(rates, dtype=float)
        rows = None if rows is None else np.asarray(rows, dtype=np.int64)
        num = self.num_flows if rows is None else rows.size
        if rates.shape != (num,):
            raise ValueError(f"{rates.size} rates for {num} flows")
        loads = np.zeros(self.num_links)
        for start in range(0, num, LOAD_BLOCK_FLOWS):
            stop = min(start + LOAD_BLOCK_FLOWS, num)
            cols, _, entry_rows = self._gather(
                np.arange(start, stop) if rows is None else rows[start:stop])
            np.add.at(loads, cols, rates[start:stop][entry_rows])
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
        gather = (np.repeat(self.indptr[rows] - out_ptr[:-1], counts)
                  + np.arange(total, dtype=np.int64))
        entry_rows = np.repeat(np.arange(rows.size, dtype=np.int64), counts)
        return self.link_index[gather], out_ptr, entry_rows


@spans.timed("fluid.waterfill")
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
            Any other length or count is a ``ValueError``.

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
    if multiplicity is not None:
        multiplicity = np.asarray(multiplicity, dtype=float)
        if multiplicity.shape != (n,) or not (
                np.isfinite(multiplicity) & (multiplicity >= 1.0)
                & (np.floor(multiplicity) == multiplicity)).all():
            raise ValueError("multiplicity must be one finite positive "
                             "integer count per active row")
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

    if _is_small(matrix, act):
        row_columns, capacity = matrix._as_lists()
        return np.array(_waterfill_scalars(
            row_columns, capacity, act.tolist(), dem.tolist(),
            None if multiplicity is None else multiplicity.tolist()))
    return _waterfill_arrays(matrix, dem, act, multiplicity)


@spans.timed("fluid.waterfill")
def waterfill_lists(matrix: FlowLinkMatrix, rows: List[int],
                    caps: List[float],
                    copies: Optional[List[int]]) -> List[float]:
    """:func:`waterfill` for a caller that re-solves one matrix many
    times and checked its inputs once (the fluid step's sub-events).

    ``rows`` are distinct row indices, ``caps`` their demand caps
    (non-negative, not NaN) and ``copies`` their positive integer
    multiplicities, or ``None`` for one flow each; all aligned with
    ``rows``.  The same kernels and size rule as :func:`waterfill`, the
    same rates, as a list; a small solve touches no numpy.
    """
    if _is_small(matrix, rows):
        row_columns, capacity = matrix._as_lists()
        return _waterfill_scalars(row_columns, capacity, rows, caps, copies)
    return _waterfill_arrays(
        matrix, np.array(caps, dtype=float), np.array(rows, dtype=np.int64),
        None if copies is None else np.array(copies, dtype=float)).tolist()


def _is_small(matrix: FlowLinkMatrix, rows: Sequence[int]) -> bool:
    """Whether a solve of ``rows`` runs on the scalar kernel: at most
    :data:`SMALL_SOLVE_ENTRIES` rows and traversal entries over them.
    The row count is tested first, so a large solve never builds the
    matrix's list view."""
    if len(rows) > SMALL_SOLVE_ENTRIES:
        return False
    row_columns = matrix._as_lists()[0]
    return sum(len(row_columns[row]) for row in rows) <= SMALL_SOLVE_ENTRIES


def _waterfill_scalars(row_columns: List[List[int]], capacity: List[float],
                       rows: List[int], caps: List[float],
                       copies: Optional[List[float]]) -> List[float]:
    """The kernel for small solves, on Python lists and floats.

    ``row_columns`` and ``capacity`` are a matrix's list view
    (:meth:`FlowLinkMatrix._as_lists`), ``caps`` and ``copies`` the
    checked caps and multiplicities of ``rows`` (``None``: one each);
    returns the rates aligned with ``rows``.  Mirrors
    :func:`_waterfill_arrays` operation for operation — links numbered
    as they first appear along ``rows``, the strict-``<`` scan keeping
    the first minimum share like ``argmin``, one stable demand order,
    ``max(residual - increment * weight, 0)`` per live link — so every
    share and residual goes through the same float64 roundings.  Weights
    are integer-valued, so the order rows are frozen in within one event
    cannot change them (an integer count adds to a float weight exactly
    as its float does).
    """
    n = len(rows)
    if copies is None:
        copies = [1.0] * n
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
    return rates


def _waterfill_arrays(matrix: FlowLinkMatrix, dem: np.ndarray,
                      act: np.ndarray,
                      multiplicity: Optional[np.ndarray]) -> np.ndarray:
    """:func:`waterfill`'s kernel for large solves, on flat arrays.

    ``dem`` is the validated (n,) cap of each row of ``act``.  A link
    whose weight reaches 0 gets residual +inf, so every event runs over
    all links bit-identically (DESIGN.md "Batched waterfilling").
    """
    n = act.size
    rates = np.zeros(n)

    # Active traversal entries, compacted to first-appearance column
    # order over the active rows (== the oracle's dict order restricted
    # to these flows).
    cols, out_ptr, entry_rows = matrix._gather(act)
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
    entry_copies = (None if multiplicity is None
                    else np.repeat(multiplicity, counts))
    weight = np.bincount(lcol, entry_copies, num_links).astype(float)
    # Per-link row groups: an LSD radix sort of the column ids, 16 bits a
    # pass (a stable uint16 sort counts).  Rows ascend within a group, so
    # a row crossing a link twice is adjacent to itself and kept once.
    by_link = np.argsort(lcol.astype(np.uint16), kind="stable")
    for shift in range(16, int(num_links - 1).bit_length(), 16):
        by_link = by_link[np.argsort(
            (lcol[by_link] >> shift).astype(np.uint16), kind="stable")]
    grp_links = lcol[by_link]
    grp_rows = entry_rows[by_link]
    once = np.ones(grp_rows.size, dtype=bool)
    once[1:] = ((grp_rows[1:] != grp_rows[:-1])
                | (grp_links[1:] != grp_links[:-1]))
    grp_rows = grp_rows[once]
    grp_ptr = np.searchsorted(grp_links[once], np.arange(num_links + 1))

    frozen = np.zeros(n, dtype=bool)
    # Flows limited only by demand (no capacity-constrained links).
    nolink = np.flatnonzero(counts == 0)
    unbounded = nolink[dem[nolink] == _INF]
    if unbounded.size:
        raise ValueError(
            f"flow {unbounded[0]} has no links and infinite demand")
    rates[nolink] = dem[nolink]
    frozen[nolink] = True

    # Rows by cap.  Every row before ``pointer`` is frozen, so the cap
    # under it is a lower bound: walk only when that cap could bind.
    by_cap = np.argsort(dem, kind="stable")
    cap_rows = by_cap.tolist()
    caps = dem[by_cap].tolist()
    pointer = 0
    unfrozen = n - nolink.size
    level = 0.0
    shares = np.empty(num_links)
    drained = np.empty(num_links)
    while unfrozen:
        np.divide(residual, weight, out=shares)
        np.add(shares, level, out=shares)
        bottleneck = int(shares.argmin())
        best = shares.item(bottleneck)
        if pointer < n and caps[pointer] < best:
            while frozen[cap_rows[pointer]]:
                pointer += 1
            if caps[pointer] < best:
                best = caps[pointer]
                bottleneck = -1

        if best == _INF:
            raise ValueError(_UNCONSTRAINED)

        np.multiply(weight, best - level, out=drained)
        np.subtract(residual, drained, out=residual)
        np.maximum(residual, 0.0, out=residual)

        # The bottleneck's rows, and the rows capped at ``best`` or below.
        rows = (grp_rows[grp_ptr[bottleneck]:grp_ptr[bottleneck + 1]]
                if bottleneck >= 0 else grp_rows[:0])
        end = bisect_right(caps, best, pointer)
        if end > pointer:
            rows = np.unique(np.concatenate((rows, by_cap[pointer:end])))
            pointer = end
        rows = rows[~frozen[rows]]
        rates[rows] = np.minimum(best, dem[rows])
        frozen[rows] = True
        unfrozen -= rows.size
        # The frozen rows' traversal entries: entry k of the j-th row
        # sits at out_ptr[row] + k, and at ends[j] - widths[j] + k here.
        widths = counts[rows]
        ends = widths.cumsum()
        gather = ((out_ptr[rows + 1] - ends).repeat(widths)
                  + np.arange(ends[-1], dtype=np.int64))
        copies = None if entry_copies is None else entry_copies[gather]
        weight -= np.bincount(lcol[gather], copies, num_links)
        residual[weight == 0.0] = _INF
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
