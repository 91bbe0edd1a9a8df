"""Serve API: full HTTP round-trips against an in-process server."""

import threading

import pytest

from repro.generate.synthetic import grid_city
from repro.graph.io import save_edge_list
from repro.jobs import GraphCatalog, JobEngine
from repro.jobs.client import JobClient, JobClientError
from repro.jobs.server import config_from_dict, make_server
from repro.pipeline import RunConfig


@pytest.fixture
def served(tmp_path):
    """A live engine + server on an ephemeral port, torn down after."""
    engine = JobEngine(GraphCatalog(tmp_path / "cat"), dispatchers=2,
                       artifact_dir=tmp_path / "arts")
    server = make_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    try:
        yield engine, JobClient(f"http://{host}:{port}")
    finally:
        server.shutdown()
        server.server_close()
        engine.close()


def test_health_and_empty_jobs(served):
    _, client = served
    health = client.health()
    assert health["status"] == "ok"
    assert health["jobs"]["QUEUED"] == 0
    assert client.jobs() == []


def test_submit_poll_result_cycle(served, tmp_path):
    _, client = served
    g = grid_city(6, 6)
    path = tmp_path / "g.el"
    save_edge_list(g, path)

    up = client.put_graph(path=str(path), name="city")
    assert up["graph_key"]
    sub = client.submit("circuit", graph_key=up["graph_key"],
                        config={"n_parts": 4, "verify": True})
    final = client.wait(sub["job_id"], timeout=60)
    assert final["state"] == "DONE"
    assert final["queue_latency_seconds"] >= 0.0

    doc = client.result(sub["job_id"])
    assert doc["artifact"] == "job" and doc["schema_version"] == 6
    nested = doc["scenario_result"]
    assert nested["scenario"] == "circuit"
    assert nested["sub_runs"][0]["run"]["circuit"]["verified"]

    cat = client.catalog()
    assert cat["entries"][0]["name"] == "city"
    assert cat["disk_bytes"] > 0


def test_inline_graph_submission(served):
    _, client = served
    up = client.put_graph(edges=[[0, 1], [1, 2], [2, 0]], name="triangle")
    job = client.submit("circuit", graph_key=up["graph_key"],
                        config={"n_parts": 2})
    assert client.wait(job["job_id"], timeout=60)["state"] == "DONE"


def test_result_of_unknown_job_is_404(served):
    _, client = served
    with pytest.raises(JobClientError) as exc:
        client.result("job-999999")
    assert exc.value.status == 404


def test_error_statuses(served):
    _, client = served
    with pytest.raises(JobClientError) as exc:
        client.status("job-999999")
    assert exc.value.status == 404
    with pytest.raises(JobClientError) as exc:
        client.submit("not-a-scenario", graph_key="ff00")
    assert exc.value.status in (400, 404)
    with pytest.raises(JobClientError) as exc:
        client._request("GET", "/no/such/route")
    assert exc.value.status == 404
    with pytest.raises(JobClientError) as exc:
        client._request("POST", "/jobs", {"scenario": "circuit"})  # no graph
    assert exc.value.status == 400


def test_cancel_endpoint(served):
    _, client = served
    up = client.put_graph(edges=[[0, 1], [1, 2], [2, 0]])
    job = client.submit("circuit", graph_key=up["graph_key"],
                        config={"n_parts": 2})
    client.wait(job["job_id"], timeout=60)
    # Terminal jobs refuse cancellation but the endpoint stays 200.
    out = client.cancel(job["job_id"])
    assert out["cancelled"] is False and out["state"] == "DONE"


def test_config_from_dict_round_trip():
    cfg = config_from_dict({"n_parts": 8, "partitioner": "hash",
                            "seed": 7, "verify": True, "workers": 2,
                            "executor": "thread"})
    assert cfg == RunConfig(n_parts=8, partitioner="hash", seed=7,
                            verify=True, workers=2, executor="thread")
    with pytest.raises(ValueError):
        config_from_dict({"spill_dir": "/tmp"})  # server-owned field
    with pytest.raises(ValueError):
        config_from_dict({"bogus": 1})
    # bool("false") is True — string booleans must be rejected, not flipped.
    with pytest.raises(ValueError, match="JSON boolean"):
        config_from_dict({"verify": "false"})
    with pytest.raises(ValueError, match="JSON boolean"):
        config_from_dict({"validate": 1})
