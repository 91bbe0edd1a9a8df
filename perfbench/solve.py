"""Workload ``solve-rmat500k``: the library call on fresh large graphs.

Each timed ``find_euler_circuit(g, n_parts=8)`` runs with library
defaults (ldg partitioner, serial executor) on an eulerized R-MAT the
process has never solved (scale 17, average degree 8, ~519k edges), so no
per-graph cache can hit. Graph generation and the circuit check run
outside the timed region. Graphs are generated by a short-lived child
process and loaded from a file, so the solver's peak memory is the
solves' alone. One untimed solve of another fresh graph of the same size
runs before the timed ones.

Run as a script, this module is one set-up sample (interpreter start,
import, and a warm-up solve on a small graph), or with
``generate <seed> <path>`` writes one benchmark graph.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time

import numpy as np
from repro.core import find_euler_circuit
from repro.generate.eulerize import eulerian_rmat
from repro.graph.io import load_npz, save_npz

from layers import PIPELINE_POINTS, Tracer, layer_metrics
from measure import (
    child_env, make_workdir, mean_ms, median_ms, remove_workdir, vm_hwm_mb,
)

SCALE = 17
AVG_DEGREE = 8.0
N_PARTS = 8
WARM_SCALE = 10
#: Graph index of the untimed full-size solve that precedes the timed
#: ones; timed graphs use indices 0, 1, ... The first full-size solve in a
#: process grows its heap and page tables and ran ~10% slower than the
#: rest on every run, so timing it added spread, not signal.
FULL_WARM_INDEX = 999
SETUP_REPEATS = 5
#: Solves per run never drop below this, whatever ``--seconds`` says.
MIN_SOLVES = 4
#: Peak memory is read after this many solves. The Phase-1 walk-table
#: cache keeps filling over the first few solves, so a read at the end
#: would grow with the number of solves a run fits in.
RSS_AFTER = MIN_SOLVES
#: Setup + BSP engine + Phase 3 must cover the solve wall within this share.
COVERAGE_TOLERANCE = 0.05


def check_circuit(graph, circuit) -> bool:
    """Independent check: every edge once, consecutive steps share an
    endpoint, and the walk closes."""
    m = graph.n_edges
    eids = np.asarray(circuit.edge_ids, dtype=np.int64)
    verts = np.asarray(circuit.vertices, dtype=np.int64)
    if eids.shape != (m,) or verts.shape != (m + 1,):
        return False
    if m == 0:
        return True
    if eids.min() < 0 or eids.max() >= m:
        return False
    if not np.all(np.bincount(eids, minlength=m) == 1):
        return False
    u = np.asarray(graph.edge_u)[eids]
    v = np.asarray(graph.edge_v)[eids]
    a, b = verts[:-1], verts[1:]
    steps_ok = ((u == a) & (v == b)) | ((u == b) & (v == a))
    return bool(np.all(steps_ok) and verts[0] == verts[-1])


def _setup_sample() -> float:
    """One set-up in a fresh interpreter, graph generation excluded."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True,
        env=child_env(), timeout=120, check=True,
    )
    wall = time.monotonic() - t0
    return wall - float(out.stdout.split()[-1])


def _warm_up() -> float:
    """A checked solve of a small graph; returns its generation seconds."""
    t0 = time.monotonic()
    graph, _ = eulerian_rmat(WARM_SCALE, avg_degree=AVG_DEGREE, seed=1)
    gen = time.monotonic() - t0
    result = find_euler_circuit(graph, n_parts=N_PARTS)
    if not check_circuit(graph, result.circuit):
        raise RuntimeError("warm-up circuit failed the check")
    return gen


def _fresh_graph(seed: int, workdir):
    """A never-solved benchmark graph, built in a child process."""
    path = workdir / f"graph-{seed}.npz"
    subprocess.run([sys.executable, __file__, "generate", str(seed), str(path)],
                   env=child_env(), timeout=120, check=True)
    graph, _ = load_npz(path)
    path.unlink()
    return graph


def run(seed: int, seconds: float, trace: bool) -> dict:
    workdir = make_workdir("solve")
    try:
        return _run(seed, seconds, trace, workdir)
    finally:
        remove_workdir(workdir)


def _run(seed: int, seconds: float, trace: bool, workdir) -> dict:
    setups = [_setup_sample() for _ in range(SETUP_REPEATS)]
    _warm_up()
    graph = _fresh_graph(seed * 1000 + FULL_WARM_INDEX, workdir)
    if not check_circuit(graph, find_euler_circuit(graph, n_parts=N_PARTS).circuit):
        raise RuntimeError("full-size warm-up circuit failed the check")
    del graph
    gc.collect()

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(PIPELINE_POINTS)

    walls = {False: [], True: []}
    peak_rss = None
    failed = 0
    spent = 0.0
    i = 0
    while spent < seconds or i < MIN_SOLVES:
        graph = _fresh_graph(seed * 1000 + i, workdir)
        # A traced run alternates untraced and traced solves, so the
        # tracing overhead is read off the same run.
        traced = trace and i % 2 == 1
        if tracer is not None:
            tracer.enabled = traced
        t0 = time.monotonic()
        result = find_euler_circuit(graph, n_parts=N_PARTS)
        wall = time.monotonic() - t0
        if tracer is not None:
            tracer.enabled = False
        spent += wall
        i += 1
        if check_circuit(graph, result.circuit):
            walls[traced].append(wall)
        else:
            failed += 1
        del result, graph
        gc.collect()
        if i == RSS_AFTER:
            peak_rss = vm_hwm_mb()

    out = {"attempted": i, "failed": failed, "correct": failed == 0,
           "passed": i - failed,
           "diag": {"solve_walls_ms": [round(1000.0 * w, 1) for w in walls[False]]}}
    plain = walls[False]
    if plain:
        out["e2e"] = {
            "setup_s": (statistics.median(setups), "s"),
            "op_mean_ms": (mean_ms(plain), "ms"),
            "peak_rss_mb": (peak_rss, "MiB"),
        }
        out["tail"] = {"op_p50_ms": (median_ms(plain), "ms")}
    if tracer is not None:
        traced_walls = walls[True]
        layers = layer_metrics(tracer.spans, traced_walls)
        layers["trace.overhead"] = (
            statistics.fmean(traced_walls) / statistics.fmean(plain) - 1.0
            if traced_walls and plain else 0.0)
        coverage = layers["pipeline.stage_coverage"]
        if abs(1.0 - coverage) > COVERAGE_TOLERANCE:
            out["correct"] = False
            out["diag"]["note"] = (f"stage coverage {coverage:.3f} outside "
                                   f"1 +/- {COVERAGE_TOLERANCE}")
        out["layers"] = layers
    return out


if __name__ == "__main__":
    if sys.argv[1:2] == ["generate"]:
        graph, _ = eulerian_rmat(SCALE, avg_degree=AVG_DEGREE, seed=int(sys.argv[2]))
        save_npz(graph, sys.argv[3], compressed=False)
    else:
        print(_warm_up())
