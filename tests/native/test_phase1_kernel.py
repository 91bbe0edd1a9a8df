"""Native Phase-1 kernel vs the Python oracle: identical walks, identical
fragments, identical invariant violations.

The oracle (``phase1._walk_python``) is the executable specification; the
kernel (``run_phase1`` in ``repro/native/kernels.c``) must reproduce it on
every input — self loops, parallel edges, coarse OB-pair rows, boundary
vertices with no local edge, disconnected live graphs (anchored cycles),
in both dense and sparse vertex-id modes.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import native
from repro.core import phase1
from repro.core.pathmap import FragmentBatch, make_fid
from repro.core.phase1 import (
    EDGE_COARSE,
    EDGE_RAW,
    edge_table,
    remote_deg_table,
    run_phase1,
)
from repro.errors import InvariantViolation
from tests.helpers import python_kernels

pytestmark = pytest.mark.skipif(
    native.lib() is None, reason="native kernel library unavailable")

#: Known coarse fragments the generated rows may reference: fid -> edges.
_KNOWN = {make_fid(0, 9, i): 3 + i for i in range(4)}


@st.composite
def live_graphs(draw):
    """A random live local graph whose every vertex has even total degree."""
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=40,
    ))
    # Closed walks keep every degree even, so few vertices are boundary
    # and the internal-cycle stage (mergeInto, nested splices) does the work.
    for _ in range(draw(st.integers(0, 6))):
        walk = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
        pairs.extend(zip(walk, walk[1:] + walk[:1]))
    rows = []
    for eid, (u, v) in enumerate(pairs):
        if draw(st.integers(0, 4)) == 0:  # a coarse OB-pair edge
            rows.append((u, v, EDGE_COARSE, draw(st.sampled_from(sorted(_KNOWN)))))
        else:
            rows.append((u, v, EDGE_RAW, eid))
    deg = np.zeros(n, dtype=np.int64)
    for u, v, _, _ in rows:
        deg[u] += 1
        deg[v] += 1
    rdeg = {}
    for v in range(n):
        if deg[v] % 2:
            rdeg[v] = draw(st.sampled_from([1, 3]))
        elif draw(st.integers(0, 7)) == 0:
            rdeg[v] = 2
    # Sparse ids: a huge offset defeats the dense (id = index) layout.
    shift = draw(st.sampled_from([0, 0, 10**12]))
    edges = np.array(rows, dtype=np.int64).reshape(-1, 4)
    edges[:, :2] += shift
    rdeg = {v + shift: d for v, d in rdeg.items()}
    return edges, rdeg


def _run(edges, rdeg, validate=True):
    batch = FragmentBatch(5, 2, known_edges=_KNOWN)
    pm, stats = run_phase1(5, 2, edges, rdeg, batch, validate=validate)
    frags = [(f.fid, f.kind, f.level, f.pid, f.src, f.dst, f.n_edges,
              f.items.tobytes()) for f in batch.fragments]
    return (pm.ob_paths.tobytes(), pm.ob_path_edges.tobytes(),
            pm.anchored_cycles.tobytes(), pm.n_merged_cycles, pm.n_trivial,
            stats, frags)


def _walks(edges, rdeg, validate=True):
    t = phase1._build_walk_tables(edge_table(edges), remote_deg_table(rdeg))
    return (phase1._walk_native(t, validate, 5, 2),
            phase1._walk_python(t, validate, 5, 2))


_SETTINGS = settings(max_examples=300, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(live_graphs())
def test_native_matches_oracle(graph):
    edges, rdeg = graph
    fast = _run(edges, rdeg)
    with python_kernels():
        slow = _run(edges, rdeg)
    assert fast == slow
    a, b = _walks(edges, rdeg)
    for name in ("enc", "dst", "kinds", "srcs", "dsts", "lens"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@_SETTINGS
@given(live_graphs(), st.data())
def test_native_reports_the_oracles_violations(graph, data):
    """Break parity (drop remote degrees) and compare what each raises."""
    edges, rdeg = graph
    if not rdeg:
        return
    victims = data.draw(st.sets(st.sampled_from(sorted(rdeg)), min_size=1))
    broken = {v: d for v, d in rdeg.items() if v not in victims}
    outcomes = []
    for ctx in (nullcontext, python_kernels):
        with ctx():
            try:
                outcomes.append(("ok", _run(edges, broken)))
            except InvariantViolation as exc:
                outcomes.append(("raised", str(exc)))
    assert outcomes[0] == outcomes[1]
    # Without validation both walkers still agree on whatever they emit.
    a, b = _walks(edges, broken, validate=False)
    for name in ("enc", "dst", "kinds", "srcs", "dsts", "lens"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_lemma1_violation_message_matches():
    # The path from OB 0 ends at 1: odd local degree but no remote edge.
    edges = [(0, 1, EDGE_RAW, 0), (2, 3, EDGE_RAW, 1)]
    rdeg = {0: 1, 2: 1}
    messages = []
    for ctx in (nullcontext, python_kernels):
        with ctx(), pytest.raises(InvariantViolation) as info:
            run_phase1(0, 0, edges, rdeg, FragmentBatch(0, 0), validate=True)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "Lemma 1 violated" in messages[0]


def test_empty_live_graph():
    for ctx in (nullcontext, python_kernels):
        with ctx():
            pm, stats = run_phase1(0, 0, [], {4: 2}, FragmentBatch(0, 0),
                                   validate=True)
            assert stats.n_trivial == 1 and pm.ob_paths.shape == (0, 3)
