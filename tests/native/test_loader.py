"""The kernel library's build, load, fallback and reporting contract."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.bench.report_io import context_to_dict
from repro.core import find_euler_circuit
from repro.generate.eulerize import eulerian_rmat
from repro.generate.synthetic import grid_city, random_eulerian
from repro.jobs import JobEngine
from repro.obs import MetricsRegistry, parse_prometheus_text
from tests.helpers import python_kernels

ROOT = Path(__file__).resolve().parents[2]

needs_native = pytest.mark.skipif(
    native.lib() is None, reason="native kernel library unavailable")


def test_two_processes_racing_the_first_build_both_load(tmp_path):
    """Concurrent first builds into an empty cache: each process compiles
    to a private temp file and renames it in, so both load a complete
    library and no temp file is left behind."""
    if native.lib() is None:
        pytest.skip("no C compiler here")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=str(ROOT / "src"))
    code = (
        "import json\n"
        "from repro import native\n"
        "from repro.partitioning.ldg import ldg_partition\n"
        "from repro.generate.synthetic import grid_city\n"
        "pg = ldg_partition(grid_city(5, 5), 3)\n"
        "print(json.dumps({**native.status(),"
        " 'parts': pg.part_of.tolist()}))\n"
    )
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for _ in range(2)]
    results = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        results.append(json.loads(out))
    for res in results:
        assert res["available"], res["error"]
        assert Path(res["path"]).is_relative_to(tmp_path)
    assert results[0]["path"] == results[1]["path"]
    assert results[0]["parts"] == results[1]["parts"]
    built = sorted(p.name for p in Path(results[0]["path"]).parent.iterdir())
    assert built == [Path(results[0]["path"]).name]


def test_unavailable_library_reports_python():
    with python_kernels():
        assert native.lib() is None
        assert native.kernel_impls() == {"phase1": "python",
                                         "partition": "python"}
        assert not native.status()["available"]


@needs_native
@pytest.mark.parametrize("partitioner", ["ldg", "hash", "bfs"])
@pytest.mark.parametrize("n_parts", [1, 3, 8])
def test_native_and_python_circuits_identical(partitioner, n_parts):
    graphs = [eulerian_rmat(10, seed=3)[0],
              random_eulerian(60, n_walks=5, walk_len=18, seed=1)]
    for g in graphs:
        fast = find_euler_circuit(g, n_parts=n_parts, partitioner=partitioner,
                                  validate=True)
        with python_kernels():
            slow = find_euler_circuit(g, n_parts=n_parts,
                                      partitioner=partitioner, validate=True)
        assert np.array_equal(fast.circuit.vertices, slow.circuit.vertices)
        assert np.array_equal(fast.circuit.edge_ids, slow.circuit.edge_ids)


def test_run_artifact_records_kernels():
    g = grid_city(5, 5)
    d = context_to_dict(find_euler_circuit(g, n_parts=2).context)
    assert d["kernels"] == native.kernel_impls()
    with python_kernels():
        d = context_to_dict(find_euler_circuit(g, n_parts=2).context)
    assert d["kernels"] == {"phase1": "python", "partition": "python"}


_SAMPLE = re.compile(
    r'^repro_kernel_info\{stage="(\w+)",impl="(\w+)"\} (\S+)$', re.M)


def _kernel_samples(page: str) -> dict[tuple[str, str], float]:
    assert "repro_kernel_info" in parse_prometheus_text(page)
    return {(stage, impl): float(value)
            for stage, impl, value in _SAMPLE.findall(page)}


def test_metrics_page_exports_kernel_info(tmp_path):
    with JobEngine(tmp_path / "a", metrics=MetricsRegistry()) as engine:
        samples = _kernel_samples(engine.render_metrics())
    impl = native.kernel_impls()["phase1"]
    other = "python" if impl == "native" else "native"
    for stage in ("phase1", "partition"):
        assert samples[(stage, impl)] == 1
        assert samples[(stage, other)] == 0
    with python_kernels():
        with JobEngine(tmp_path / "b", metrics=MetricsRegistry()) as engine:
            samples = _kernel_samples(engine.render_metrics())
    assert samples[("phase1", "python")] == 1
    assert samples[("partition", "native")] == 0
