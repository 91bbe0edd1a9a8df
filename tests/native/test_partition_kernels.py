"""Native BFS order and LDG placement vs their Python oracles."""

from __future__ import annotations

import numpy as np
import pytest

from repro import native
from repro.generate.eulerize import eulerian_rmat
from repro.generate.synthetic import grid_city, random_eulerian
from repro.graph.graph import Graph
from repro.partitioning.ldg import bfs_order, ldg_partition
from tests.helpers import python_kernels

pytestmark = pytest.mark.skipif(
    native.lib() is None, reason="native kernel library unavailable")

GRAPHS = {
    "rmat11": lambda: eulerian_rmat(11, seed=4)[0],
    "grid": lambda: grid_city(9, 7),
    "rand": lambda: random_eulerian(80, 6, 20, seed=2),
    # Isolated vertices, self loops and parallel edges.
    "odd": lambda: Graph.from_edges(
        7, [(0, 0), (1, 2), (2, 1), (1, 2), (2, 1), (5, 5)]),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("seed", [0, 3])
def test_bfs_order_identical(name, seed):
    g = GRAPHS[name]()
    fast = bfs_order(g, seed=seed)
    with python_kernels():
        slow = bfs_order(g, seed=seed)
    assert fast.dtype == slow.dtype == np.int64
    assert np.array_equal(fast, slow)


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("n_parts", [1, 3, 8])
@pytest.mark.parametrize("order", ["bfs", "natural", "random"])
def test_ldg_partition_identical(name, n_parts, order):
    g = GRAPHS[name]()
    fast = ldg_partition(g, n_parts, order=order, seed=1)
    with python_kernels():
        slow = ldg_partition(g, n_parts, order=order, seed=1)
    assert np.array_equal(fast.part_of, slow.part_of)


def test_ldg_zero_slack_identical():
    """Tight capacity exercises the full-partition (-inf score) branch."""
    g = grid_city(6, 6)
    fast = ldg_partition(g, 5, slack=0.0, seed=2)
    with python_kernels():
        slow = ldg_partition(g, 5, slack=0.0, seed=2)
    assert np.array_equal(fast.part_of, slow.part_of)
