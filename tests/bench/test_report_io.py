"""Tests for JSON persistence of reports and experiment rows."""

import json

import pytest

from repro.bench.report_io import load_rows, report_to_dict, save_report, save_rows
from repro.core import find_euler_circuit
from repro.generate.synthetic import grid_city


@pytest.fixture(scope="module")
def report():
    return find_euler_circuit(grid_city(8, 8), n_parts=4).report


def test_report_to_dict_structure(report):
    d = report_to_dict(report)
    assert d["config"]["n_parts"] == 4
    assert d["totals"]["n_supersteps"] == 3
    assert d["state_by_level"][0]["level"] == 0
    assert isinstance(d["stage_dag"], str)
    assert len(d["merge_tree"]) == 2  # two merge levels for 4 partitions


def test_report_json_serializable(report):
    text = json.dumps(report_to_dict(report), default=float)
    back = json.loads(text)
    assert back["config"]["strategy"] == "eager"


def test_save_report_roundtrip(tmp_path, report):
    path = save_report(report, tmp_path / "nested" / "run.json")
    assert path.exists()
    back = json.loads(path.read_text())
    assert back["totals"]["compute_seconds"] >= 0


def test_save_and_load_rows(tmp_path):
    rows = [{"Graph": "G20k/P2", "Cut %": 22.5}, {"Graph": "G30k/P3", "Cut %": 30.1}]
    path = save_rows(rows, tmp_path / "table1.json")
    assert load_rows(path) == rows


def test_saves_are_atomic_and_leave_no_temp_litter(tmp_path, report):
    target = tmp_path / "deep" / "missing" / "dirs" / "run.json"
    save_report(report, target)  # parents created on demand
    assert sorted(p.name for p in target.parent.iterdir()) == ["run.json"]
    # Overwrite keeps a parseable file at every instant (replace, not
    # truncate+write): after the call the new content is fully there.
    save_report(report, target)
    assert json.loads(target.read_text())["totals"]["n_supersteps"] == 3


def test_job_artifact_wraps_scenario_artifact(tmp_path, grid8):
    from repro.bench.report_io import SCHEMA_VERSION, job_to_dict, save_job
    from repro.jobs.queue import DONE, Job
    from repro.pipeline import RunConfig
    from repro.scenarios import run_scenario

    config = RunConfig(n_parts=4)
    job = Job(id="job-000042", scenario="circuit", graph_key="abc123",
              config=config, priority=2)
    job.state = DONE
    job.started_at = job.submitted_at + 0.5
    job.finished_at = job.started_at + 1.0
    job.result = run_scenario(grid8, "circuit", config)
    job.record_pass("run_scenario", 1.0, executor="serial")

    doc = job_to_dict(job)
    assert doc["schema_version"] == SCHEMA_VERSION == 6
    assert doc["artifact"] == "job"
    assert doc["job"]["id"] == "job-000042" and doc["job"]["priority"] == 2
    assert doc["timings"]["queue_latency_seconds"] == pytest.approx(0.5)
    assert doc["timings"]["run_seconds"] == pytest.approx(1.0)
    assert doc["pass_history"][0]["pass"] == "run_scenario"
    assert doc["scenario_result"]["artifact"] == "scenario"

    path = save_job(job, tmp_path / "arts" / "job-000042.json")
    assert json.loads(path.read_text())["job"]["state"] == "DONE"
