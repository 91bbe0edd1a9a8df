"""Executor parity: serial, thread and process backends are interchangeable.

The contract the executor layer advertises: the *outcome* of a BSP run —
circuit, fragment store, per-level census — is identical under every
backend; only wall-clock interleaving and serialization cost differ.

Representation parity rides on the same contract: ``golden_dataplane.json``
pins the circuits and fragment censuses the *seed* tuple-based data plane
produced (regenerate with ``make_golden_dataplane.py`` — see its docstring
for when that is legitimate), and every backend of the columnar data plane
must reproduce them bit for bit.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bsp import EXECUTORS, BSPEngine, ComputeResult, make_executor
from repro.core import find_euler_circuit, verify_circuit
from repro.errors import UnknownExecutorError
from repro.generate.eulerize import eulerian_rmat
from repro.generate.synthetic import grid_city, random_eulerian
from repro.jobs.remote import WorkerHost
from tests.helpers import python_kernels

BACKENDS = sorted(EXECUTORS)  # process, remote, serial, thread

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden_dataplane.json").read_text()
)


@pytest.fixture(scope="module")
def remote_hosts(tmp_path_factory):
    """Two loopback worker hosts, so ``remote`` joins the parity matrix."""
    hosts = [
        WorkerHost(tmp_path_factory.mktemp(f"host{i}")).start()
        for i in range(2)
    ]
    yield [h.address for h in hosts]
    for h in hosts:
        h.close()


def _run(g, backend, remote_hosts, **kw):
    hosts = remote_hosts if backend == "remote" else None
    return find_euler_circuit(g, executor=backend, hosts=hosts, **kw)


def _fragment_census(store):
    return sorted(
        (f.fid, f.kind, f.level, f.pid, f.src, f.dst, f.n_edges)
        for f in store.all_fragments()
    )


@pytest.fixture(scope="module")
def graphs():
    return {
        "grid": grid_city(6, 6),
        "rand": random_eulerian(60, n_walks=5, walk_len=18, seed=1),
    }


@pytest.mark.parametrize("name", ["grid", "rand"])
def test_same_circuit_and_census_on_every_backend(graphs, name, remote_hosts):
    g = graphs[name]
    results = {
        backend: _run(
            g, backend, remote_hosts, n_parts=4, seed=0, engine_workers=3,
            validate=True,
        )
        for backend in BACKENDS
    }
    base = results["serial"]
    verify_circuit(g, base.circuit)
    for backend, res in results.items():
        assert np.array_equal(base.circuit.vertices, res.circuit.vertices), backend
        assert np.array_equal(base.circuit.edge_ids, res.circuit.edge_ids), backend
        assert _fragment_census(base.store) == _fragment_census(res.store), backend


@pytest.mark.parametrize("strategy", ["eager", "proposed"])
def test_process_backend_matches_serial_per_strategy(graphs, strategy):
    g = graphs["grid"]
    a = find_euler_circuit(g, n_parts=8, seed=2, strategy=strategy)
    b = find_euler_circuit(
        g, n_parts=8, seed=2, strategy=strategy, executor="process",
        engine_workers=2,
    )
    assert np.array_equal(a.circuit.vertices, b.circuit.vertices)
    assert _fragment_census(a.store) == _fragment_census(b.store)
    # The per-level census the Fig. 9 table reads is also identical.
    assert a.report.census_rows() == b.report.census_rows()


def test_census_identical_across_backends(graphs, remote_hosts):
    g = graphs["rand"]
    rows = {
        backend: _run(
            g, backend, remote_hosts, n_parts=4, seed=0, engine_workers=2
        ).report.census_rows()
        for backend in BACKENDS
    }
    assert (
        rows["serial"] == rows["thread"] == rows["process"] == rows["remote"]
    )


def test_unknown_executor_rejected(graphs):
    with pytest.raises(ValueError, match="unknown executor"):
        find_euler_circuit(graphs["grid"], executor="spark")


def test_unknown_executor_error_is_typed_and_lists_backends():
    with pytest.raises(UnknownExecutorError) as exc_info:
        make_executor("spark")
    err = exc_info.value
    assert isinstance(err, ValueError)
    assert err.name == "spark"
    assert err.choices == sorted(EXECUTORS)
    for backend in EXECUTORS:
        assert backend in str(err)


def test_make_executor_defaults():
    assert make_executor(None, 1).name == "serial"
    assert make_executor(None, 4).name == "thread"
    assert make_executor("process", 2).name == "process"


@pytest.fixture(scope="module")
def golden_graphs():
    return {
        "grid8": grid_city(8, 8),
        "rmat10": eulerian_rmat(10, avg_degree=4.0, seed=5)[0],
    }


@pytest.mark.parametrize("case", sorted(GOLDEN["cases"]))
@pytest.mark.parametrize("backend", BACKENDS)
def test_columnar_path_matches_seed_goldens(
    golden_graphs, case, backend, remote_hosts
):
    """Bit-identical circuits and fragment censuses vs the recorded seed
    (tuple-representation) outputs, on every executor backend."""
    gname, cname = case.split("/")
    strategy = cname.rsplit("-", 1)[0]
    g = golden_graphs[gname]
    res = _run(
        g, backend, remote_hosts, n_parts=4, seed=0, strategy=strategy,
        engine_workers=2, validate=True, verify=True,
    )
    _assert_matches_golden(res, case)


@pytest.mark.parametrize("case", sorted(GOLDEN["cases"]))
def test_python_kernels_match_seed_goldens(golden_graphs, case):
    """With the native kernel library unavailable, the Python oracles
    (Phase-1 walk, LDG partitioner) alone reproduce the seed goldens."""
    gname, cname = case.split("/")
    with python_kernels():
        res = find_euler_circuit(
            golden_graphs[gname], n_parts=4, seed=0,
            strategy=cname.rsplit("-", 1)[0], validate=True, verify=True,
        )
    _assert_matches_golden(res, case)


def _assert_matches_golden(res, case):
    ref = GOLDEN["cases"][case]
    census = sorted(
        (f.fid, f.kind, f.level, f.pid, f.src, f.dst, f.n_edges)
        for f in res.store.all_fragments()
    )
    circuit_sha = hashlib.sha256(
        res.circuit.vertices.tobytes() + b"|" + res.circuit.edge_ids.tobytes()
    ).hexdigest()
    assert res.circuit.edge_ids.size == ref["n_circuit_edges"]
    assert len(census) == ref["n_fragments"]
    assert res.circuit.vertices[:8].tolist() == ref["first_vertices"]
    assert circuit_sha == ref["circuit_sha256"], f"{case} circuit diverged"
    census_sha = hashlib.sha256(repr(census).encode()).hexdigest()
    assert census_sha == ref["census_sha256"], f"{case} census diverged"


class Doubler:
    """Module-level so the process backend can pickle it."""

    def __call__(self, pid, state, msgs, rec, step):
        n = (state or 0) + sum(msgs) if msgs else (state or 0) + pid + 1
        return ComputeResult(state=n, halt=n >= 6)


def test_generic_program_on_process_backend():
    """The engine itself (not just the Euler pipeline) runs out of process:
    a picklable accumulator program produces the same states."""
    serial, _ = BSPEngine(executor="serial").run({0: 0, 1: 0}, Doubler())
    procs, _ = BSPEngine(max_workers=2, executor="process").run({0: 0, 1: 0}, Doubler())
    assert serial == procs


class EchoState:
    """Module-level so the remote host can unpickle it; ships the (big)
    state straight back as the result."""

    def __call__(self, pid, state, msgs, rec, step):
        return ComputeResult(state=state, halt=True)


def test_remote_frames_larger_than_socket_buffers_do_not_deadlock(tmp_path):
    """Regression: the remote executor pipelines a burst of task frames
    down one socket per host. Sending the whole burst before reading any
    reply deadlocks once frames outgrow the kernel socket buffers — the
    host blocks sending reply 1 to a peer still blocked sending task 2.
    Replies must be drained concurrently with the send pump."""
    import threading

    from repro.bsp.executors import RemoteExecutor

    big = np.arange(1 << 21, dtype=np.int64)  # 16 MiB per state, each way
    with WorkerHost(tmp_path / "h") as host:
        ex = RemoteExecutor([host.address])
        try:
            ex.start(EchoState())
            tasks = [(pid, {"arr": big + pid}, [], 0) for pid in range(3)]
            done: dict = {}

            def run():
                done["out"] = ex.run_superstep(tasks)

            t = threading.Thread(target=run, daemon=True)
            t.start()
            t.join(timeout=120)
            assert not t.is_alive(), "remote superstep deadlocked"
            out = sorted(done["out"])
            assert [pid for pid, _, _ in out] == [0, 1, 2]
            for pid, _, res in out:
                np.testing.assert_array_equal(res.state["arr"], big + pid)
        finally:
            ex.close()
