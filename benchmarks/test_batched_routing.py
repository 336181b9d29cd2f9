"""Micro-benchmark: batched forwarding updates vs the per-destination loop.

Paper §3.1/Fig. 2 make forwarding-state computation the scalability
bottleneck: one shortest-path tree per destination per 100 ms of simulated
time.  The batched path (``RoutingEngine.route_to_many``) builds the
transit CSR once per snapshot and computes every destination tree with a
single multi-index Dijkstra; this bench pits it against the pre-batching
algorithm (rebuild the graph and call Dijkstra once per destination) on a
10-destination forwarding update and checks both the speedup (>= 2x) and
bit-identical routing state.  Both sides derive next hops by the
product's documented rule, the smallest-id tight in-neighbour; scipy's
own predecessor is whichever tight neighbour its heap settled first, so
it is only checked for being tight.
"""

import time

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.routing.engine import UNREACHABLE, RoutingEngine

from _common import scaled, write_result

#: Destination count of one forwarding update (acceptance: 10).
NUM_DESTINATIONS = 10
ROUNDS = scaled(5, 20)


def _route_per_destination(network, snapshot, dst_gid):
    """The pre-batching algorithm: full graph rebuild + one Dijkstra,
    then this one tree's next hops by the smallest-id-tight-edge rule."""
    rows = [snapshot.isl_pairs[:, 0]]
    cols = [snapshot.isl_pairs[:, 1]]
    data = [snapshot.isl_lengths_m]
    relay_gids = [station.gid for station in network.ground_stations
                  if station.is_relay]
    relay_nodes, relay_sats, relay_lengths = snapshot.gsl_edge_arrays(
        relay_gids)
    if len(relay_nodes):
        rows.append(relay_nodes)
        cols.append(relay_sats)
        data.append(relay_lengths)
    dst_node = snapshot.gs_node_id(dst_gid)
    edges = snapshot.gsl_edges[dst_gid]
    if edges.is_connected and dst_gid not in relay_gids:
        rows.append(np.full(len(edges.satellite_ids), dst_node))
        cols.append(edges.satellite_ids)
        data.append(edges.lengths_m)
    rows = np.concatenate(rows).astype(np.int64)
    cols = np.concatenate(cols).astype(np.int64)
    data = np.concatenate(data).astype(np.float64)
    num_nodes = network.num_nodes
    graph = csr_matrix((data, (rows, cols)), shape=(num_nodes, num_nodes))
    distances = dijkstra(graph, directed=False, indices=dst_node)
    # Every link both ways: u is a next hop of v iff u -> v is tight.
    u = np.concatenate([rows, cols])
    v = np.concatenate([cols, rows])
    tight = distances[u] + np.concatenate([data, data]) == distances[v]
    tight &= np.isfinite(distances[v])
    next_hop = np.full(num_nodes, num_nodes, dtype=np.int64)
    np.minimum.at(next_hop, v[tight], u[tight])
    next_hop[next_hop == num_nodes] = UNREACHABLE
    return distances, next_hop, graph


def _assert_scipy_predecessors_tight(graph, dst_node, distances, next_hop):
    """scipy's predecessor of ``v`` is whichever neighbour its heap
    settled first: a tight edge (``dist[u] + w(u, v) == dist[v]``
    exactly), on exactly the nodes that have a canonical next hop."""
    _, predecessors = dijkstra(graph, directed=False, indices=dst_node,
                               return_predecessors=True)
    nodes = np.flatnonzero(predecessors >= 0)
    np.testing.assert_array_equal(nodes,
                                  np.flatnonzero(next_hop != UNREACHABLE))
    via = predecessors[nodes]
    weights = graph.maximum(graph.T).tocsr()  # both directions
    np.testing.assert_array_equal(
        distances[via] + np.asarray(weights[via, nodes]).ravel(),
        distances[nodes])


def test_batched_vs_per_destination(kuiper, benchmark):
    network = kuiper.network
    snapshot = network.snapshot(0.0)
    destinations = list(range(NUM_DESTINATIONS))

    # Correctness first: the batched trees must be identical to the
    # pre-batching per-destination ones.
    engine = RoutingEngine(network)
    multi = engine.route_to_many(snapshot, destinations)
    for dst_gid in destinations:
        ref_dist, ref_hop, graph = _route_per_destination(
            network, snapshot, dst_gid)
        batched = multi.routing_for(dst_gid)
        np.testing.assert_array_equal(batched.distance_m, ref_dist)
        np.testing.assert_array_equal(batched.next_hop, ref_hop)
        _assert_scipy_predecessors_tight(graph, batched.dst_node, ref_dist,
                                         batched.next_hop)

    def per_destination_update():
        for dst_gid in destinations:
            _route_per_destination(network, snapshot, dst_gid)

    def batched_update():
        # Fresh engine per round: include the transit build, exactly as
        # the first (and only) routing call of a forwarding update does.
        RoutingEngine(network).route_to_many(snapshot, destinations)

    def measure(update):
        best = float("inf")
        for _ in range(ROUNDS):
            start = time.perf_counter()
            update()
            best = min(best, time.perf_counter() - start)
        return best

    results = {}

    def sweep():
        results["loop_s"] = measure(per_destination_update)
        results["batched_s"] = measure(batched_update)
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    speedup = results["loop_s"] / results["batched_s"]
    rows = [
        f"# {NUM_DESTINATIONS}-destination forwarding update, Kuiper K1 + "
        f"100 cities, best of {ROUNDS}",
        f"per-destination loop: {results['loop_s'] * 1e3:8.3f} ms",
        f"batched route_to_many: {results['batched_s'] * 1e3:8.3f} ms",
        f"speedup: {speedup:.2f}x",
    ]
    write_result("batched_routing_speedup", rows)
    assert speedup >= 2.0, f"batched path only {speedup:.2f}x faster"
