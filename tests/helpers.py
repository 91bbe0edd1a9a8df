"""Shared, importable test helpers (no fixtures — those live in conftest.py).

Kept separate from ``conftest.py`` because pytest injects conftests outside
the normal import system; parametrizing tests with suite data requires a
plainly importable module (``from tests.helpers import make_eulerian_suite``).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro import native
from repro.generate.synthetic import (
    cycle_graph,
    grid_city,
    paper_figure1_graph,
    random_eulerian,
    ring_of_cliques,
)
from repro.graph.graph import Graph

__all__ = ["make_eulerian_suite", "python_kernels"]


def make_eulerian_suite() -> list[tuple[str, Graph]]:
    """A named collection of connected Eulerian graphs for end-to-end tests."""
    suite = [
        ("fig1", paper_figure1_graph()[0]),
        ("triangle", Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])),
        ("cycle12", cycle_graph(12)),
        ("grid6", grid_city(6, 6)),
        ("cliques", ring_of_cliques(3, 5)),
    ]
    for seed in range(4):
        suite.append((f"rand{seed}", random_eulerian(50, 4, 16, seed=seed)))
    return suite


@contextmanager
def python_kernels():
    """Make the native kernel library report "unavailable" for the body,
    so every native-capable stage runs its Python oracle."""
    saved = dict(native._state)
    native._state.update(loaded=True, lib=None, path=None,
                         error="disabled for this test")
    try:
        yield
    finally:
        native._state.clear()
        native._state.update(saved)
