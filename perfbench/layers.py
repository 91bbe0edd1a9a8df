"""Outside-in layer tracing for the benchmark.

The program is never edited. A traced run replaces selected functions of
each layer with wrappers that record one span per call: name, start, end,
span id, parent id and one small attribute. Spans stay in memory and are
written out when the run ends; every per-layer metric is computed from
them afterwards.

Functions the caller imported by name are wrapped where the caller binds
them (``repro.pipeline.program.run_phase1``,
``repro.jobs.engine.run_scenario``), not where they are defined.

Parent links follow the calling thread. ``BSPEngine.run`` also hands its
span id to the compute function it runs, so Phase-1 and merge spans
recorded on the shared thread pool's workers still name their engine.
That binding covers the in-process backends (serial and thread), which
are the defaults the workloads run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time

#: (span name, module, class or None, attribute) for the run pipeline.
PIPELINE_POINTS = (
    ("partitioning", "repro.pipeline.setup", None, "partition_graph"),
    ("pipeline.setup", "repro.pipeline.setup", "Setup", "run"),
    ("core.phase1", "repro.pipeline.program", None, "run_phase1"),
    ("core.merging", "repro.pipeline.program", None, "merge_states"),
    ("bsp.engine", "repro.bsp.engine", "BSPEngine", "run"),
    ("pipeline.reconstruct", "repro.pipeline.reconstruct", "Reconstruct", "run"),
)

#: The server's layers on top of the pipeline.
SERVER_POINTS = PIPELINE_POINTS + (
    ("scenarios.run", "repro.jobs.engine", None, "run_scenario"),
    ("jobs.server.handle", "repro.jobs.server", "JobApi", "handle"),
    ("jobs.queue.submit", "repro.jobs.queue", "JobQueue", "submit"),
    ("jobs.queue.pop", "repro.jobs.queue", "JobQueue", "pop"),
    ("jobs.journal.append", "repro.jobs.journal", "JobJournal", "append"),
    ("bench.report_io.save_job", "repro.bench.report_io", None, "save_job"),
    ("jobs.catalog.get", "repro.jobs.catalog", "GraphCatalog", "get"),
    ("jobs.catalog.derived_for", "repro.jobs.catalog", "GraphCatalog", "derived_for"),
    ("jobs.catalog.mutate", "repro.jobs.catalog", "GraphCatalog", "mutate"),
    ("deltas.repair.advance", "repro.deltas.repair", "RepairSession", "advance"),
)

#: The generator's side of the HTTP API.
CLIENT_POINTS = (
    ("jobs.client.status", "repro.jobs.client", "JobClient", "status"),
    ("jobs.client.result", "repro.jobs.client", "JobClient", "result"),
    ("jobs.client.patch", "repro.jobs.client", "JobClient", "mutate"),
)


def _job_id(job):
    return None if job is None else job.id


#: The one attribute a span keeps, by span name: ``fn(args, result)``.
_ATTRS = {
    "core.phase1": lambda args, res: int(args[1]),  # run_phase1(pid, level, ...)
    "bsp.engine": lambda args, res: len(res[1].superstep_wall),
    "jobs.queue.submit": lambda args, res: args[1].id,
    "jobs.queue.pop": lambda args, res: _job_id(res),
    "deltas.repair.advance": lambda args, res: len(res.get("dirty_parts") or ()),
}

#: Server layers whose root spans are per-job overhead: everything the
#: server adds around the pipeline except the scenario run itself and
#: queue pops, which block while the queue is empty.
_OVERHEAD_ROOTS = frozenset(
    name for name, *_ in SERVER_POINTS[len(PIPELINE_POINTS):]
) - {"scenarios.run", "jobs.queue.pop"}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    ``enabled`` switches recording off without unwrapping, so one process
    can time traced and untraced operations side by side.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self, points) -> None:
        for name, module, owner, attr in points:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            setattr(target, attr, self._wrap(name, getattr(target, attr)))

    def _wrap(self, name, original):
        tracer = self
        attr_of = _ATTRS.get(name)
        binds_compute = name == "bsp.engine"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else getattr(tracer._local, "bound", None)
            sid = next(tracer._ids)
            if binds_compute:
                args = args[:2] + (tracer._bind(args[2], sid),) + args[3:]
            stack.append(sid)
            start = time.monotonic()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
            attr = None if attr_of is None else attr_of(args, result)
            tracer.spans.append((name, start, end, sid, parent, attr))
            return result

        return wrapper

    def _bind(self, compute, sid):
        """Run ``compute`` with ``sid`` as the parent of spans it opens."""
        local = self._local

        def bound(*args, **kwargs):
            previous = getattr(local, "bound", None)
            local.bound = sid
            try:
                return compute(*args, **kwargs)
            finally:
                local.bound = previous

        return bound

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def load_spans(path) -> list[tuple]:
    with open(path) as fh:
        return [tuple(s) for s in json.load(fh)]


def in_window(spans, start: float, end: float) -> list[tuple]:
    return [s for s in spans if start <= s[1] <= end]


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _p50_ms(values) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


#: Every per-layer metric with its unit, in report order. A workload that
#: never calls a layer reads 0 for it.
PER_LAYER = (
    ("partitioning.busy_s", "s"),
    ("pipeline.setup.busy_s", "s"),
    ("core.phase1.busy_s", "s"),
    ("core.phase1.calls", "count"),
    ("core.phase1.share", "ratio"),
    ("core.phase1.level0.max_s", "s"),
    ("core.phase1.level1.max_s", "s"),
    ("core.phase1.level2.max_s", "s"),
    ("core.phase1.level3.max_s", "s"),
    ("core.phase1.critical_path_s", "s"),
    ("core.phase1.amdahl_bound", "ratio"),
    ("core.merging.busy_s", "s"),
    ("bsp.engine.self_s", "s"),
    ("bsp.engine.supersteps", "count"),
    ("pipeline.reconstruct.busy_s", "s"),
    ("pipeline.stage_coverage", "ratio"),
    ("scenarios.run_s", "s"),
    ("jobs.client.status_ms", "ms"),
    ("jobs.client.result_ms", "ms"),
    ("jobs.client.patch_ms", "ms"),
    ("jobs.client.polls_per_job", "count"),
    ("jobs.server.handle_s", "s"),
    ("jobs.server.requests", "count"),
    ("jobs.server.outside_scenario_s", "s"),
    ("jobs.queue.wait_ms", "ms"),
    ("jobs.journal.append_s", "s"),
    ("jobs.journal.appends", "count"),
    ("bench.report_io.save_job_s", "s"),
    ("jobs.catalog.get_s", "s"),
    ("jobs.catalog.derived_for_s", "s"),
    ("jobs.catalog.mutate_s", "s"),
    ("deltas.repair.advance_s", "s"),
    ("deltas.repair.dirty_parts", "count"),
    ("deltas.repair.repair_share", "ratio"),
    ("trace.overhead", "ratio"),
)

#: Merge levels reported one by one (rmat500k at 8 parts has four).
_LEVELS = 4


def layer_metrics(spans, op_walls, repair_hits=(0, 0)) -> dict[str, float]:
    """Per-operation layer metrics from the spans of one measured window.

    ``spans`` holds program-side and generator-side spans together;
    ``op_walls`` the wall seconds of each operation the window completed;
    ``repair_hits`` the (replayed, recomputed) Phase-1 node counts the
    emissions' repair reports carried. Busy times count a layer once when
    it re-enters itself (a catalog rebuild recursing through a delta
    chain).
    """
    n = max(1, len(op_walls))
    by_id = {s[3]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)

    def nested_in_same(s) -> bool:
        parent = by_id.get(s[4])
        while parent is not None:
            if parent[0] == s[0]:
                return True
            parent = by_id.get(parent[4])
        return False

    tops: dict[str, list] = {}
    for s in spans:
        if not nested_in_same(s):
            tops.setdefault(s[0], []).append(s)

    def total(name) -> float:
        return sum(s[2] - s[1] for s in tops.get(name, ()))

    def count(name) -> int:
        return len(tops.get(name, ()))

    def durations(name) -> list[float]:
        return [s[2] - s[1] for s in tops.get(name, ())]

    # Phase 1 grouped by engine run and merge level: the slowest partition
    # per level is that level's share of the critical path.
    level_max = [0.0] * _LEVELS
    critical = 0.0
    engine_self = 0.0
    for engine in tops.get("bsp.engine", ()):
        kids = children.get(engine[3], ())
        per_level: dict[int, float] = {}
        for k in kids:
            if k[0] == "core.phase1" and k[5] is not None:
                per_level[k[5]] = max(per_level.get(k[5], 0.0), k[2] - k[1])
        for level, longest in per_level.items():
            if level < _LEVELS:
                level_max[level] += longest
        critical += sum(per_level.values())
        clipped = [(max(k[1], engine[1]), min(k[2], engine[2])) for k in kids]
        engine_self += (engine[2] - engine[1]) - _union_length(
            [(a, b) for a, b in clipped if b > a])

    phase1 = total("core.phase1")
    run_wall = total("scenarios.run") or sum(op_walls)
    stages = total("pipeline.setup") + total("bsp.engine") + total("pipeline.reconstruct")
    amdahl_den = run_wall - phase1 + critical

    queue_in = {s[5]: s[2] for s in tops.get("jobs.queue.submit", ())}
    queue_wait = [s[2] - queue_in[s[5]] for s in tops.get("jobs.queue.pop", ())
                  if s[5] in queue_in]

    outside = sum(s[2] - s[1] for s in spans
                  if s[0] in _OVERHEAD_ROOTS and s[4] not in by_id)

    replayed, recomputed = repair_hits
    out = {
        "partitioning.busy_s": total("partitioning") / n,
        "pipeline.setup.busy_s": total("pipeline.setup") / n,
        "core.phase1.busy_s": phase1 / n,
        "core.phase1.calls": count("core.phase1") / n,
        "core.phase1.share": phase1 / sum(op_walls) if op_walls else 0.0,
        "core.phase1.critical_path_s": critical / n,
        "core.phase1.amdahl_bound": run_wall / amdahl_den if amdahl_den > 0 else 0.0,
        "core.merging.busy_s": total("core.merging") / n,
        "bsp.engine.self_s": engine_self / n,
        "bsp.engine.supersteps": sum(s[5] or 0 for s in tops.get("bsp.engine", ())) / n,
        "pipeline.reconstruct.busy_s": total("pipeline.reconstruct") / n,
        "pipeline.stage_coverage": stages / run_wall if run_wall > 0 else 0.0,
        "scenarios.run_s": total("scenarios.run") / n,
        "jobs.client.status_ms": _p50_ms(durations("jobs.client.status")),
        "jobs.client.result_ms": _p50_ms(durations("jobs.client.result")),
        "jobs.client.patch_ms": _p50_ms(durations("jobs.client.patch")),
        "jobs.client.polls_per_job": count("jobs.client.status") / n,
        "jobs.server.handle_s": total("jobs.server.handle") / n,
        "jobs.server.requests": count("jobs.server.handle") / n,
        "jobs.server.outside_scenario_s": outside / n,
        "jobs.queue.wait_ms": _p50_ms(queue_wait),
        "jobs.journal.append_s": total("jobs.journal.append") / n,
        "jobs.journal.appends": count("jobs.journal.append") / n,
        "bench.report_io.save_job_s": total("bench.report_io.save_job") / n,
        "jobs.catalog.get_s": total("jobs.catalog.get") / n,
        "jobs.catalog.derived_for_s": total("jobs.catalog.derived_for") / n,
        "jobs.catalog.mutate_s": total("jobs.catalog.mutate") / n,
        "deltas.repair.advance_s": total("deltas.repair.advance") / n,
        "deltas.repair.dirty_parts": (statistics.mean(s[5] for s in tops["deltas.repair.advance"])
                                      if tops.get("deltas.repair.advance") else 0.0),
        "deltas.repair.repair_share": (replayed / (replayed + recomputed)
                                       if replayed + recomputed else 0.0),
    }
    for level in range(_LEVELS):
        out[f"core.phase1.level{level}.max_s"] = level_max[level] / n
    return out
