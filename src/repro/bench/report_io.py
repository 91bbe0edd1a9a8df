"""Persist execution reports and experiment rows as JSON.

The benchmark harness prints its artifacts; downstream analysis (plotting,
regression tracking across commits) wants them on disk. This module flattens
an :class:`~repro.pipeline.context.ExecutionReport` — or the full
:class:`~repro.pipeline.context.RunContext` pipeline artifact — into plain
JSON-serializable dicts and round-trips experiment row lists. Every artifact
is stamped with the pipeline's ``schema_version`` so readers can detect
layout changes across commits.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from .. import native
from ..graph.io import atomic_write
from ..pipeline.context import SCHEMA_VERSION, ExecutionReport, RunContext

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..jobs.queue import Job
    from ..scenarios.base import ScenarioResult

__all__ = [
    "SCHEMA_VERSION",
    "report_to_dict",
    "context_to_dict",
    "scenario_to_dict",
    "job_to_dict",
    "save_report",
    "save_context",
    "save_scenario",
    "save_job",
    "load_job",
    "load_job_summary",
    "save_rows",
    "load_rows",
]


def _write_json(payload, path) -> Path:
    """Serialize ``payload`` to ``path`` atomically, creating parent dirs.

    Every artifact writer routes through here so a crashed job can never
    leave a truncated report under a valid name (temp file + ``os.replace``
    in the destination directory).
    """
    path = Path(path)
    with atomic_write(path, suffix=".json") as fh:
        fh.write(json.dumps(payload, indent=2, default=float).encode())
    return path


def report_to_dict(report: ExecutionReport) -> dict:
    """Flatten a report into JSON-serializable primitives.

    Captures the run configuration, the Fig. 5 headline times, and the full
    per-level series (Fig. 6 splits, Fig. 7 points, Fig. 8 state, Fig. 9
    census) plus the merge tree and stage DAG.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "n_parts": report.n_parts,
            "strategy": report.strategy,
            "partitioner": report.partitioner,
            "matching": report.matching,
        },
        "totals": {
            "n_supersteps": report.n_supersteps,
            "total_seconds": report.total_seconds,
            "compute_seconds": report.compute_seconds,
            "setup_seconds": report.setup_seconds,
            "phase3_seconds": report.phase3_seconds,
        },
        "time_split_rows": report.time_split_rows(),
        "phase1_points": report.phase1_points(),
        "state_by_level": report.state_by_level(),
        "census_rows": report.census_rows(),
        "deferred_resident_longs": list(report.deferred_resident_longs),
        "merge_tree": [
            [
                {"child": m.child, "parent": m.parent, "weight": m.weight}
                for m in level
            ]
            for level in report.tree.levels
        ],
        "stage_dag": report.stage_dag(),
    }


def context_to_dict(ctx: RunContext) -> dict:
    """Flatten the full pipeline artifact (config + stage products).

    Supersets :func:`report_to_dict` with the resolved execution config
    (executor backend, workers, seed), the input-graph summary, and the
    fragment-store census — the audit trail of a staged run.
    """
    out = report_to_dict(ctx.report)
    out["artifact"] = "run"
    out["config"].update(
        {
            "requested_parts": ctx.config.n_parts,
            "seed": ctx.config.seed,
            "executor": ctx.config.executor_name,
            "workers": ctx.config.workers,
            "validate": ctx.config.validate,
            "verify": ctx.config.verify,
        }
    )
    out["graph"] = {"n_vertices": ctx.n_vertices, "n_edges": ctx.n_edges}
    # Which implementation of each native-capable stage this process runs.
    out["kernels"] = native.kernel_impls()
    out["circuit"] = {
        "n_edges": int(ctx.circuit.n_edges) if ctx.circuit is not None else 0,
        "verified": ctx.verified,
    }
    store = ctx.store
    if store is not None:
        frags = store.all_fragments()
        out["fragments"] = {
            "n_fragments": len(frags),
            "n_paths": sum(1 for f in frags if f.kind == "path"),
            "n_cycles": sum(1 for f in frags if f.kind == "cycle"),
            # Resident columnar footprint: packed ItemArray rows still in
            # memory (spilled bodies excluded) — the data-plane analogue of
            # the paper's "persist ... to conserve memory" bookkeeping.
            "n_item_rows": sum(
                int(f.items.shape[0]) for f in frags if f.items is not None
            ),
        }
    return out


def scenario_to_dict(result: "ScenarioResult") -> dict:
    """Flatten a scenario run (walks + metrics + one run artifact per sub-run).

    The ``sub_runs`` entries are full :func:`context_to_dict` artifacts
    wrapped with the sub-run key and budget, so a scenario artifact audits
    exactly like a batch of run artifacts.
    """
    cfg = result.config
    return {
        "schema_version": SCHEMA_VERSION,
        "artifact": "scenario",
        "scenario": result.scenario,
        "config": {
            "requested_parts": cfg.n_parts,
            "partitioner": cfg.partitioner,
            "strategy": cfg.strategy,
            "matching": cfg.matching,
            "seed": cfg.seed,
            "executor": cfg.executor_name,
            "workers": cfg.workers,
            "validate": cfg.validate,
            "verify": cfg.verify,
        },
        "metrics": {k: result.metrics[k] for k in sorted(result.metrics)},
        "n_parts_allocated": result.n_parts_allocated,
        "circuits": [
            {
                "n_edges": int(c.n_edges),
                "is_closed": bool(c.is_closed),
                "start": int(c.start),
            }
            for c in result.circuits
        ],
        "sub_runs": [
            {
                "key": sub.key,
                "n_parts": sub.n_parts,
                "run": context_to_dict(sub.context),
            }
            for sub in result.sub_runs
        ],
    }


def job_to_dict(job: "Job") -> dict:
    """Flatten one orchestrated job (metadata + timings + pass history).

    The schema-v5 ``"job"`` artifact: job identity and state, the queue/run
    timing split, the engine's pass history, and — for finished jobs — the
    nested scenario artifact, so one file audits the complete request from
    submission to walks.
    """
    out = {
        "schema_version": SCHEMA_VERSION,
        "artifact": "job",
        "job": job.summary(),
        "timings": {
            "queue_latency_seconds": job.queue_latency_seconds,
            # Alias under the /metrics family name, so artifact consumers
            # and Prometheus dashboards key on the same term.
            "queue_delay_seconds": job.queue_latency_seconds,
            "run_seconds": job.run_seconds,
        },
        "pass_history": list(job.passes),
    }
    out["scenario_result"] = (
        scenario_to_dict(job.result) if job.result is not None else None
    )
    return out


def save_report(report: ExecutionReport, path) -> Path:
    """Write the flattened report to ``path`` (atomic, creating parents)."""
    return _write_json(report_to_dict(report), path)


def save_context(ctx: RunContext, path) -> Path:
    """Write the flattened pipeline artifact to ``path`` (atomic)."""
    return _write_json(context_to_dict(ctx), path)


def save_scenario(result: "ScenarioResult", path) -> Path:
    """Write the flattened scenario artifact to ``path`` (atomic)."""
    return _write_json(scenario_to_dict(result), path)


def save_job(job: "Job", path) -> Path:
    """Write the flattened job artifact to ``path`` (atomic)."""
    return _write_json(job_to_dict(job), path)


def load_job(path) -> dict | None:
    """Read one durable ``"job"`` artifact; ``None`` if absent or unreadable.

    Tolerant by design: the registry-eviction fallback path must degrade
    to "unknown job", never crash serving, when an artifact was deleted or
    half-written by an external actor (the writers themselves are atomic).
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("artifact") != "job":
        return None
    return doc


def load_job_summary(artifact_dir, job_id: str) -> dict | None:
    """The status row of a job from the durable per-job artifact index.

    This is how a bounded registry still answers ``GET /jobs/<id>`` for
    any job ever run: evicted terminal jobs resolve
    ``<artifact_dir>/<job_id>.json`` and return its ``job`` section
    (exactly the :meth:`~repro.jobs.queue.Job.summary` shape). ``None``
    when no readable artifact exists.
    """
    if artifact_dir is None:
        return None
    doc = load_job(Path(artifact_dir) / f"{job_id}.json")
    if doc is None:
        return None
    job = doc.get("job")
    return job if isinstance(job, dict) else None


def save_rows(rows: list[dict], path) -> Path:
    """Write experiment rows (e.g. a Table-1 regeneration) as JSON (atomic)."""
    return _write_json(rows, path)


def load_rows(path) -> list[dict]:
    """Read rows previously written by :func:`save_rows`."""
    return json.loads(Path(path).read_text())
