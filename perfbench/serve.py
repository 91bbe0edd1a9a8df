"""Workload ``serve-watch``: ``repro-euler serve`` over HTTP.

The server always runs as its own child process with the ``serve``
defaults (thread front end, two thread dispatchers, thread pool, journal
and artifacts on), on an ephemeral port and a fresh catalog directory
inside the checkout. The generator drives it through ``JobClient`` in
a closed loop: the one client waits for a result before its next request.

Any HTTP error (429 and 503 included) or timeout fails the operation; no
request is retried. Every server lifecycle ends with a SIGTERM drain.
"""

from __future__ import annotations

import http.client
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np
from repro.deltas import GraphDelta
from repro.generate.eulerize import eulerian_rmat
from repro.graph.io import save_npz
from repro.jobs.client import JobClient, JobClientError

from layers import CLIENT_POINTS, Tracer, in_window, layer_metrics, load_spans
from measure import (
    HERE, ROOT, child_env, make_workdir, mean_ms, median_ms, percentile_ms,
    remove_workdir, shm_segments, vm_hwm_mb,
)

AVG_DEGREE = 8.0
REQUEST_TIMEOUT_S = 30.0
JOB_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
SETUP_REPEATS = 5
TERMINAL = ("DONE", "FAILED", "CANCELLED")
#: What fails an operation. Nothing is retried.
CLIENT_ERRORS = (JobClientError, TimeoutError, OSError, http.client.HTTPException)

# serve-watch: one medium graph, one client, 1-edge detours.
WATCH_SCALE = 13
WATCH_CONFIG = {"n_parts": 16, "verify": True}
#: A tenth of the mutation median or less (mutations take 240-310 ms on a
#: 2-core host).
WATCH_POLL_S = 0.02
#: The server keeps every head version and its last 64 results, so its
#: peak memory grows with the number of mutations a run fits in. Reading
#: it after a fixed count keeps the metric independent of host speed.
WATCH_RSS_AFTER = 32

_LISTEN = re.compile(r"listening on (http://\S+)")


class ServerChild:
    """One ``repro-euler serve`` child: start, readiness, peak RSS, drain."""

    def __init__(self, workdir, tag: str, spans_path=None):
        serve_args = ["--port", "0", "--cache-root", str(workdir / f"catalog-{tag}")]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve", *serve_args]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   str(spans_path), *serve_args]
        self.url = None
        self.output: list[str] = []
        self._ready = threading.Event()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line)
            match = _LISTEN.search(line)
            if match and self.url is None:
                self.url = match.group(1)
                self._ready.set()
        self._ready.set()  # exited before listening: wake the waiter

    def wait_ready(self, timeout: float = 60.0) -> str:
        self._ready.wait(timeout)
        if self.url is None:
            raise RuntimeError("server never listened:\n" + "".join(self.output))
        return self.url

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> int:
        """SIGTERM drain; returns the exit status (killed on a stuck drain)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = -signal.SIGKILL
        self._reader.join(timeout=10)
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=10)


class _Lifecycles:
    """Set-up times, exit statuses and leaked segments across a run's servers."""

    def __init__(self):
        self.setups: list[float] = []
        self.exit_codes: list[int] = []
        self.leaked: set[str] = set()
        self._shm_before = shm_segments()

    def start(self, workdir, tag, spans_path, prepare):
        """Start a server and run ``prepare(client)``; the set-up is timed."""
        t0 = time.monotonic()
        server = ServerChild(workdir, tag, spans_path)
        try:
            client = JobClient(server.wait_ready(), timeout=REQUEST_TIMEOUT_S)
            state = prepare(client)
        except BaseException:
            server.kill()
            raise
        self.setups.append(time.monotonic() - t0)
        return server, client, state

    def stop(self, server: ServerChild) -> None:
        self.exit_codes.append(server.stop())
        self.leaked |= shm_segments() - self._shm_before

    @property
    def clean(self) -> bool:
        return not self.leaked and all(code == 0 for code in self.exit_codes)

    def diag(self) -> dict:
        return {"server_exit_codes": self.exit_codes,
                "bsp.shm.leaked_segments": len(self.leaked)}


def _await(client, job_id: str, poll_s: float) -> None:
    """Poll at a fixed interval until the job is terminal."""
    deadline = time.monotonic() + JOB_TIMEOUT_S
    while True:
        time.sleep(poll_s)
        if client.status(job_id)["state"] in TERMINAL:
            return
        if time.monotonic() > deadline:
            raise TimeoutError(f"{job_id} not terminal after {JOB_TIMEOUT_S}s")


def _result_ok(doc: dict, n_edges: int) -> bool:
    """DONE, verified by the server, and covering the generator's graph."""
    result = doc.get("scenario_result")
    if doc.get("job", {}).get("state") != "DONE" or not result:
        return False
    circuits = result["circuits"]
    return (all(sub["run"]["circuit"]["verified"] for sub in result["sub_runs"])
            and all(c["is_closed"] for c in circuits)
            and sum(c["n_edges"] for c in circuits) == n_edges)


def _repair_counts(doc: dict) -> tuple[int, int]:
    """(replayed, recomputed) Phase-1 nodes from the emission's repair row."""
    for row in doc.get("pass_history", ()):
        if row.get("pass") == "repair":
            return int(row.get("hits", 0)), int(row.get("misses", 0))
    return 0, 0


def _saved_graph(scale: int, seed: int, path):
    graph, _ = eulerian_rmat(scale, avg_degree=AVG_DEGREE, seed=seed)
    save_npz(graph, path)
    return graph, path


@dataclass
class Window:
    """One measured stretch of closed-loop operations."""

    records: list  # (wall seconds, completed, passed the check) per operation
    start: float
    end: float = 0.0
    repair: tuple = (0, 0)  # (replayed, recomputed) Phase-1 nodes
    rss_mb: float | None = None  # server peak memory, when read mid-window


# -- serve-watch ------------------------------------------------------------

class WatchWorkload:
    """One client streaming seeded 1-edge detours at a watched graph."""

    poll_s = WATCH_POLL_S

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.base, self.path = _saved_graph(WATCH_SCALE, seed, workdir / "watch.npz")
        # The capture emission's detour: identical on every set-up.
        self.first = self._detour(self.base, np.random.default_rng([seed, 0]))

    @staticmethod
    def _detour(graph, rng):
        """Delete one seeded edge (u, v) and route it u-w-v via a new w.

        Returns the PATCH body parts and the delta they describe.
        """
        eid = int(rng.integers(graph.n_edges))
        u, v = graph.endpoints(eid)
        w = graph.n_vertices
        insert = [(int(u), w), (w, int(v))]
        delta = GraphDelta.from_edits(
            graph, insert=np.array(insert, dtype=np.int64),
            delete_eids=np.array([eid], dtype=np.int64))
        return insert, eid, delta

    @staticmethod
    def _mutate(client, key, watch_id, detour):
        """PATCH one detour and await the watch's emission; (new key, doc)."""
        insert, eid, _ = detour
        out = client.mutate(key, insert=insert, delete_eids=[eid])
        job_id = out["watches"][watch_id]["job_id"]
        _await(client, job_id, WATCH_POLL_S)
        return out["graph_key"], client.result(job_id)

    def prepare(self, client):
        """Register, create the watch, await its capture emission."""
        key = client.put_graph(path=str(self.path))["graph_key"]
        watch_id = client.create_watch(key, "circuit", config=WATCH_CONFIG)["id"]
        key, doc = self._mutate(client, key, watch_id, self.first)
        if not _result_ok(doc, self.base.n_edges + 1):
            raise RuntimeError("capture emission failed its check")
        return key, watch_id

    def measure(self, client, state, seconds, rng_stream: int, server) -> Window:
        key, watch_id = state
        head = self.first[2].apply(self.base)
        rng = np.random.default_rng([self.seed, 1, rng_stream])
        window = Window([], time.monotonic())
        deadline = window.start + seconds
        replayed = recomputed = 0
        while time.monotonic() < deadline:
            detour = self._detour(head, rng)
            t0 = time.monotonic()
            try:
                key, doc = self._mutate(client, key, watch_id, detour)
            except CLIENT_ERRORS:
                window.records.append((time.monotonic() - t0, False, False))
                break  # the server's head is unknown now; end the stream
            wall = time.monotonic() - t0
            # The server applied the delta: track the head it now holds.
            head = detour[2].apply(head)
            hits, misses = _repair_counts(doc)
            replayed += hits
            recomputed += misses
            window.records.append((wall, True, _result_ok(doc, head.n_edges)))
            if len(window.records) == WATCH_RSS_AFTER:
                window.rss_mb = server.peak_rss_mb()
        window.end = time.monotonic()
        window.repair = (replayed, recomputed)
        return window


# -- run assembly -----------------------------------------------------------

def _passed(window: Window) -> list[float]:
    return [wall for wall, ok, correct in window.records if ok and correct]


def _counts(*windows: Window) -> dict:
    records = [r for w in windows for r in w.records]
    return {
        "attempted": len(records),
        "failed": sum(1 for _, ok, _ in records if not ok),
        "wrong": sum(1 for _, ok, correct in records if ok and not correct),
    }


def run(seed: int, seconds: float, trace: bool) -> dict:
    workdir = make_workdir("serve-watch")
    try:
        workload = WatchWorkload(seed, workdir)
        runner = _traced if trace else _untraced
        return runner(workload, workdir, seconds)
    finally:
        remove_workdir(workdir)


def _untraced(workload, workdir, seconds) -> dict:
    """Set up several times (median reported), measure on the last server."""
    life = _Lifecycles()
    for k in range(SETUP_REPEATS - 1):
        life.stop(life.start(workdir, f"s{k}", None, workload.prepare)[0])
    server, client, state = life.start(workdir, "main", None, workload.prepare)
    try:
        window = workload.measure(client, state, seconds, 0, server)
        rss = window.rss_mb if window.rss_mb is not None else server.peak_rss_mb()
    finally:
        life.stop(server)
    counts = _counts(window)
    walls = _passed(window)
    out = {"attempted": counts["attempted"], "failed": counts["failed"],
           "passed": len(walls), "correct": counts["wrong"] == 0 and life.clean,
           "diag": life.diag()}
    if walls:
        out["e2e"] = {
            "setup_s": (statistics.median(life.setups), "s"),
            "op_mean_ms": (mean_ms(walls), "ms"),
            "peak_rss_mb": (rss, "MiB"),
        }
        # The poll interval must stay a small part of what it measures.
        out["diag"]["poll_over_p50"] = 1000.0 * workload.poll_s / median_ms(walls)
        out["tail"] = {"op_p50_ms": (median_ms(walls), "ms")}
        p90 = percentile_ms(walls, 0.90)
        if p90 is not None:
            out["tail"]["op_p90_ms"] = (p90, "ms")
    return out


def _traced(workload, workdir, seconds) -> dict:
    """Half the seconds on a plain server, half on a traced one.

    The plain half gives the untraced main metric the tracing overhead is
    read against; only the traced half feeds the per-layer metrics.
    """
    life = _Lifecycles()
    half = seconds / 2.0
    server, client, state = life.start(workdir, "plain", None, workload.prepare)
    try:
        plain = workload.measure(client, state, half, 0, server)
    finally:
        life.stop(server)

    spans_path = workdir / "spans.json"
    server, client, state = life.start(workdir, "traced", spans_path,
                                       workload.prepare)
    tracer = Tracer()
    tracer.install(CLIENT_POINTS)
    try:
        traced = workload.measure(client, state, half, 1, server)
    finally:
        tracer.enabled = False
        life.stop(server)

    spans = in_window(load_spans(spans_path), traced.start, traced.end) + tracer.spans
    plain_walls, traced_walls = _passed(plain), _passed(traced)
    layers = layer_metrics(spans, traced_walls, traced.repair)
    layers["trace.overhead"] = (
        statistics.fmean(traced_walls) / statistics.fmean(plain_walls) - 1.0
        if plain_walls and traced_walls else 0.0)
    counts = _counts(plain, traced)
    return {"attempted": counts["attempted"], "failed": counts["failed"],
            "correct": counts["wrong"] == 0 and life.clean,
            "layers": layers, "diag": life.diag()}
