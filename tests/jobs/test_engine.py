"""Job engine: concurrent-vs-serial parity, artifacts, failure, cancellation.

The load-bearing suite is the parity block: N scenario jobs submitted
concurrently through the engine (catalog hits, shared pool, dispatcher
interleaving) must produce **bit-identical** walks and metrics to the same
N jobs run serially via :func:`repro.scenarios.run_scenario` — under every
executor backend configuration.
"""

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import JobCancelledError, JobFailedError
from repro.generate.eulerize import largest_component, open_path_variant
from repro.generate.rmat import rmat_graph
from repro.generate.synthetic import disjoint_union, grid_city, random_eulerian
from repro.jobs import CANCELLED, DONE, FAILED, GraphCatalog, JobEngine
from repro.pipeline import RunConfig
from repro.scenarios import run_scenario
from repro.scenarios.base import Scenario, SubProblem, register_scenario
from repro.bsp.executors import SharedPool


def scenario_workloads():
    """One small graph per scenario, all four registered scenarios."""
    eul = random_eulerian(60, 5, 16, seed=2)
    return [
        ("circuit", eul),
        ("path", open_path_variant(grid_city(6, 6))),
        ("components", disjoint_union(grid_city(5, 5), random_eulerian(30, 3, 10, seed=3))),
        ("postman", largest_component(rmat_graph(7, avg_degree=3.0, seed=6))[0]),
    ]


def assert_same_result(serial, engine_result):
    assert len(serial.circuits) == len(engine_result.circuits)
    for a, b in zip(serial.circuits, engine_result.circuits):
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.edge_ids, b.edge_ids)
    assert serial.metrics == engine_result.metrics


# One configuration per executor backend, plus the two shared-pool kinds
# (the process pool is the expensive one; keep its job count small).
BACKEND_CONFIGS = [
    pytest.param(None, {"executor": "serial"}, id="serial"),
    pytest.param(None, {"executor": "thread", "workers": 2}, id="thread"),
    pytest.param(None, {"executor": "process", "workers": 2}, id="process"),
    pytest.param(("thread", 4), {}, id="shared-thread-pool"),
    pytest.param(("process", 2), {}, id="shared-process-pool"),
]


@pytest.mark.parametrize("pool_spec,cfg_kwargs", BACKEND_CONFIGS)
def test_concurrent_jobs_match_serial_runs(tmp_path, pool_spec, cfg_kwargs):
    config = RunConfig(n_parts=4, seed=0, verify=True, **cfg_kwargs)
    workloads = scenario_workloads()
    serial = {
        name: run_scenario(g, name, config) for name, g in workloads
    }
    pool_kind, pool_workers = pool_spec if pool_spec else (None, 0)
    with JobEngine(
        GraphCatalog(tmp_path / "cat"),
        dispatchers=3,
        pool_kind=pool_kind,
        pool_workers=pool_workers or 1,
    ) as engine:
        handles = [
            (name, engine.submit(name, graph=g, config=config))
            for name, g in workloads
            for _ in range(2)  # repeats exercise the warm-catalog path
        ]
        for name, handle in handles:
            assert_same_result(serial[name], handle.result(timeout=120))
    # Every repeat after the first partition hit the catalog.
    assert engine.catalog.stats["partition_hits"] >= len(workloads)


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6))
def test_property_concurrent_circuit_parity(tmp_path_factory, seed, n_parts):
    """Random Eulerian graphs: engine results == serial results, always."""
    g = random_eulerian(40, 4, 12, seed=seed)
    config = RunConfig(n_parts=n_parts, seed=0)
    serial = run_scenario(g, "circuit", config)
    root = tmp_path_factory.mktemp("jobs-prop")
    with JobEngine(
        GraphCatalog(root), dispatchers=2, pool_kind="thread", pool_workers=2,
    ) as engine:
        handles = [engine.submit("circuit", graph=g, config=config)
                   for _ in range(3)]
        for h in handles:
            assert_same_result(serial, h.result(timeout=60))


def test_durable_artifact_schema_v5(tmp_path, grid8):
    with JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                   artifact_dir=tmp_path / "arts") as engine:
        handle = engine.submit(
            "circuit", graph=grid8, config=RunConfig(n_parts=4, verify=True),
            priority=3, name="grid8",
        )
        handle.result(timeout=60)
        job = engine.job(handle.job_id)
    doc = json.loads((tmp_path / "arts" / f"{job.id}.json").read_text())
    assert doc["schema_version"] == 6
    assert doc["artifact"] == "job"
    assert doc["job"]["state"] == DONE and doc["job"]["priority"] == 3
    assert doc["timings"]["queue_latency_seconds"] >= 0.0
    passes = [p["pass"] for p in doc["pass_history"]]
    assert passes[:3] == ["load_graph", "derived_artifacts", "run_scenario"]
    nested = doc["scenario_result"]
    assert nested["artifact"] == "scenario" and nested["scenario"] == "circuit"
    assert nested["sub_runs"][0]["run"]["circuit"]["verified"]


def test_failed_job_raises_and_records(tmp_path):
    # A non-Eulerian connected graph: the circuit scenario must fail.
    from repro.graph.graph import Graph

    bad = Graph.from_edges(3, [(0, 1), (1, 2)])
    with JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                   artifact_dir=tmp_path / "arts") as engine:
        handle = engine.submit("circuit", graph=bad, config=RunConfig(n_parts=2))
        with pytest.raises(JobFailedError, match="odd degree|Eulerian"):
            handle.result(timeout=60)
        job = engine.job(handle.job_id)
        assert job.state == FAILED
    doc = json.loads((tmp_path / "arts" / f"{job.id}.json").read_text())
    assert doc["job"]["error"]
    assert doc["scenario_result"] is None
    # The dispatcher survived the failure: the engine still runs jobs.


def test_dispatcher_survives_failure(tmp_path, grid8):
    from repro.graph.graph import Graph

    bad = Graph.from_edges(3, [(0, 1), (1, 2)])
    with JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1) as engine:
        failing = engine.submit("circuit", graph=bad, config=RunConfig(n_parts=2))
        ok = engine.submit("circuit", graph=grid8, config=RunConfig(n_parts=4))
        with pytest.raises(JobFailedError):
            failing.result(timeout=60)
        assert ok.result(timeout=60).circuit.n_edges == grid8.n_edges


class _BlockingScenario(Scenario):
    """Occupies a dispatcher until released (deterministic cancellation)."""

    name = "test-blocking"

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()

    def reduce(self, graph, config):
        self.entered.set()
        assert self.release.wait(60), "test never released the blocker"
        return []

    def postprocess(self, graph, config, subs, contexts):
        return [], {}


def test_cancel_queued_job_deterministically(tmp_path, grid8, triangle):
    blocker = _BlockingScenario()
    register_scenario(blocker)
    try:
        with JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1) as engine:
            blocking = engine.submit("test-blocking", graph=triangle)
            assert blocker.entered.wait(30)  # the lone dispatcher is busy
            victim = engine.submit("circuit", graph=grid8,
                                   config=RunConfig(n_parts=4))
            assert engine.cancel(victim.job_id) is True
            assert engine.job(victim.job_id).state == CANCELLED
            with pytest.raises(JobCancelledError):
                victim.result(timeout=10)
            # Running jobs are cancelled cooperatively: the request is
            # accepted now and lands at the next safe point.
            assert engine.cancel(blocking.job_id) is True
            blocker.release.set()
            with pytest.raises(JobCancelledError):
                blocking.result(timeout=60)
            assert engine.job(blocking.job_id).state == CANCELLED
    finally:
        from repro.scenarios.base import SCENARIOS

        SCENARIOS.pop("test-blocking", None)


def test_submit_validates_graph_arguments(tmp_path, grid8):
    with JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1) as engine:
        with pytest.raises(ValueError):
            engine.submit("circuit")
        with pytest.raises(ValueError):
            engine.submit("circuit", graph=grid8, graph_key="abc")
        with pytest.raises(KeyError):
            engine.submit("circuit", graph_key="not-a-key")
        key = engine.catalog.put(grid8)
        handle = engine.submit("circuit", graph_key=key,
                               config=RunConfig(n_parts=4))
        assert handle.result(timeout=60).circuit.n_edges == grid8.n_edges


def test_keep_results_bounds_resident_memory(tmp_path, grid8):
    with JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                   artifact_dir=tmp_path / "arts",
                   keep_results=2) as engine:
        handles = [engine.submit("circuit", graph=grid8,
                                 config=RunConfig(n_parts=4))
                   for _ in range(5)]
        for h in handles:
            h.wait(60)
        jobs = sorted(engine.jobs(), key=lambda j: j.id)
    # Only the newest two keep their in-memory result; all have artifacts.
    assert [j.result is not None for j in jobs] == [False] * 3 + [True] * 2
    assert all(j.artifact_path for j in jobs)
    # The trimmed jobs' durable artifacts still carry the full document.
    doc = json.loads((tmp_path / "arts" / f"{jobs[0].id}.json").read_text())
    assert doc["scenario_result"]["scenario"] == "circuit"


def test_queued_jobs_pin_graphs_against_eviction(tmp_path, grid8):
    small = grid_city(5, 5)
    cat = GraphCatalog(tmp_path / "probe")
    cat.put(grid8)
    per_graph = cat.disk_bytes()

    blocker = _BlockingScenario()
    register_scenario(blocker)
    try:
        catalog = GraphCatalog(tmp_path / "cat",
                               size_budget_bytes=int(1.2 * per_graph))
        with JobEngine(catalog, dispatchers=1) as engine:
            blocking = engine.submit("test-blocking", graph=small)
            assert blocker.entered.wait(30)
            queued = engine.submit("circuit", graph=grid8,
                                   config=RunConfig(n_parts=4))
            # Inserting more graphs busts the budget, but the queued job's
            # graph is pinned and must survive.
            for i in range(3):
                catalog.put(grid_city(6 + i, 7))
            blocker.release.set()
            blocking.result(timeout=60)
            assert queued.result(timeout=60).circuit.n_edges == grid8.n_edges
    finally:
        from repro.scenarios.base import SCENARIOS

        SCENARIOS.pop("test-blocking", None)


def test_job_records_actual_executor(tmp_path, grid8):
    with JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=1,
                   pool_kind="thread", pool_workers=2) as engine:
        h = engine.submit("circuit", graph=grid8, config=RunConfig(n_parts=4))
        h.result(timeout=60)
        job = engine.job(h.job_id)
    assert job.executor == "shared-thread"  # post-injection, not "serial"
    assert job.summary()["executor"] == "shared-thread"


def test_externally_owned_pool_survives_engine(tmp_path, grid8):
    with SharedPool("thread", 2) as pool:
        with JobEngine(GraphCatalog(tmp_path / "a"), dispatchers=1,
                       pool=pool) as engine:
            engine.submit("circuit", graph=grid8,
                          config=RunConfig(n_parts=4)).result(timeout=60)
        assert not pool.closed  # the engine must not close a borrowed pool
        with JobEngine(GraphCatalog(tmp_path / "b"), dispatchers=1,
                       pool=pool) as engine:
            engine.submit("circuit", graph=grid8,
                          config=RunConfig(n_parts=4)).result(timeout=60)
    assert pool.closed
