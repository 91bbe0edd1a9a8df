"""Linear Deterministic Greedy (LDG) streaming partitioner.

Stanton & Kliot's LDG heuristic (KDD 2012): stream vertices in some order and
place each on the partition holding most of its already-placed neighbours,
damped by a load penalty ``(1 - |P_k| / C)`` with capacity
``C = n_vertices / n_parts * (1 + slack)``. One streaming pass gives edge
cuts far below hash partitioning at near-perfect balance — a reasonable
single-machine stand-in for ParHIP [34], which the paper uses offline.

A BFS vertex order (default) substantially improves locality over the natural
id order because neighbours tend to be placed while their cluster is still
"open".

Both scalar loops — the BFS order and the placement stream — run in the
native kernel library (:mod:`repro.native`), reading the graph's CSR arrays
in place; only the seeded restart permutation is drawn in NumPy. The Python
loops below are their oracles and the fallback when no C compiler is
available; the scores use the same float64 operations in the same order, so
both place every vertex identically.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .. import native
from ..graph.graph import Graph
from ..graph.partition import PartitionedGraph

__all__ = ["ldg_partition", "bfs_order"]


def bfs_order(graph: Graph, seed: int = 0) -> np.ndarray:
    """A BFS visitation order over all vertices (restarting per component).

    Deterministic for a given graph and seed; the seed picks the restart
    vertex preference (vertices are tried in a seeded shuffle order).
    """
    n = graph.n_vertices
    offsets, targets, _ = graph.csr
    starts = np.random.default_rng(seed).permutation(n).astype(np.int64)
    dll = native.lib()
    if dll is None:
        return _bfs_order_python(offsets, targets, starts)
    order = np.empty(n, dtype=np.int64)
    a = native.addr
    placed = dll.bfs_order(n, a(offsets), a(targets), a(starts), a(order))
    if placed < 0:
        raise MemoryError("native bfs_order could not allocate")
    assert placed == n
    return order


def _bfs_order_python(offsets, targets, starts) -> np.ndarray:
    """The Python oracle for the native ``bfs_order`` (and its fallback)."""
    n = starts.size
    seen = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    for s in starts:
        if seen[s]:
            continue
        seen[s] = True
        dq = deque([int(s)])
        while dq:
            x = dq.popleft()
            order[pos] = x
            pos += 1
            for t in targets[offsets[x] : offsets[x + 1]]:
                if not seen[t]:
                    seen[t] = True
                    dq.append(int(t))
    assert pos == n
    return order


def ldg_partition(
    graph: Graph,
    n_parts: int,
    slack: float = 0.05,
    order: np.ndarray | str = "bfs",
    seed: int = 0,
) -> PartitionedGraph:
    """Partition vertices with the LDG streaming heuristic.

    Parameters
    ----------
    graph:
        Input graph.
    n_parts:
        Number of partitions.
    slack:
        Capacity slack fraction; partitions hold at most
        ``ceil(n/n_parts * (1+slack))`` vertices.
    order:
        ``"bfs"`` (default), ``"natural"``, ``"random"``, or an explicit
        vertex-order array.
    seed:
        Seed for the BFS/random order.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    n = graph.n_vertices
    if isinstance(order, str):
        if order == "bfs":
            order_arr = bfs_order(graph, seed=seed)
        elif order == "natural":
            order_arr = np.arange(n, dtype=np.int64)
        elif order == "random":
            order_arr = np.random.default_rng(seed).permutation(n).astype(np.int64)
        else:
            raise ValueError(f"unknown order {order!r}")
    else:
        order_arr = np.asarray(order, dtype=np.int64)
        if sorted(order_arr.tolist()) != list(range(n)):
            raise ValueError("order must be a permutation of all vertices")

    capacity = int(np.ceil(n / n_parts * (1.0 + slack))) if n else 0
    part = np.full(n, -1, dtype=np.int64)
    load = np.zeros(n_parts, dtype=np.int64)
    offsets, targets, _ = graph.csr
    order_arr = np.ascontiguousarray(order_arr)
    dll = native.lib()
    if dll is None:
        _ldg_place_python(offsets, targets, order_arr, capacity, part, load)
    else:
        a = native.addr
        if dll.ldg_partition(n, n_parts, capacity, a(offsets), a(targets),
                             a(order_arr), a(part), a(load)) < 0:
            raise MemoryError("native ldg_partition could not allocate")
    return PartitionedGraph(graph, part, n_parts)


def _ldg_place_python(offsets, targets, order_arr, capacity, part, load) -> None:
    """The Python oracle for the native LDG placement loop (and its
    fallback): fills ``part`` and ``load`` in place."""
    n_parts = load.size
    for v in order_arr:
        neigh = targets[offsets[v] : offsets[v + 1]]
        placed = part[neigh]
        scores = np.zeros(n_parts, dtype=np.float64)
        if placed.size:
            counted = placed[placed >= 0]
            if counted.size:
                scores += np.bincount(counted, minlength=n_parts)
        scores *= 1.0 - load / capacity if capacity else 0.0
        scores[load >= capacity] = -np.inf
        best = int(np.argmax(scores))
        # argmax of all -inf (shouldn't happen given slack>=0) -> least loaded
        if not np.isfinite(scores[best]):
            best = int(np.argmin(load))
        part[v] = best
        load[best] += 1
