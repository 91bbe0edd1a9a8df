"""Job engine: dispatcher threads multiplexing jobs over one shared pool.

The engine is the long-lived heart of the serving stack. It owns three
things the per-request path rebuilt on every call:

* the **graph catalog** — so a job's graph and its partition map load from
  cache instead of being re-parsed and re-partitioned;
* one **shared executor pool** (:class:`~repro.bsp.executors.SharedPool`) —
  handed to every pipeline run through ``RunConfig.pool``, so supersteps
  execute on persistent workers instead of a per-run pool;
* the **dispatcher threads** — each pops the highest-priority job, hydrates
  its config with catalog artifacts and the pool, runs the scenario, and
  writes the durable per-job artifact JSON (schema v5) with the full pass
  history.

Concurrent jobs produce bit-identical results to serial
:func:`~repro.scenarios.base.run_scenario` calls: the pipeline's outcome is
executor-independent by the engine's commit contract, and every cached
artifact is validated against the run before use.

Hardened for sustained load: the registry is bounded (``retention``, with
a durable artifact-index fallback for evicted jobs' status), submissions
are bounded (``max_queued`` → :class:`~repro.errors.QueueFullError`), and
RUNNING jobs stop cooperatively — each job carries a
:class:`~repro.pipeline.cancel.CancelToken` (cancel flag + optional
deadline) checked at superstep and sub-run boundaries, so
:meth:`JobEngine.cancel` reaches mid-run jobs on every backend.

Fault tolerance (the crash-safety layer on top):

* **journal** — with a :class:`~repro.jobs.journal.JobJournal` attached,
  every submission is fsync'd to an append-only WAL *before it is
  acknowledged*, and every transition after it; :meth:`recover` (run
  automatically at construction) replays the journal plus the durable
  artifacts and re-enqueues whatever a crash interrupted, so ``kill -9``
  loses zero acknowledged submissions;
* **retries** — transient failures (:class:`~repro.errors.TransientJobError`:
  killed/hung workers, broken pools, shm attach trouble) re-dispatch with
  exponential backoff and deterministic jitter, up to the job's
  ``max_retries``; permanent job errors never retry;
* **supervision** — the forked worker pool heartbeats, hang-kills and
  respawns its workers under a budgeted circuit breaker; while the breaker
  is open the engine *degrades* process-mode jobs to in-process execution
  instead of feeding a crash loop;
* **drain** — :meth:`drain` stops intake (HTTP 503 at the front ends),
  lets running jobs finish inside a deadline, then checkpoints the journal
  so still-queued jobs survive to the next start.

Dynamic graphs (see :mod:`repro.deltas` and ``PATCH /graphs/<key>``):
:meth:`mutate_graph` applies a :class:`~repro.deltas.GraphDelta` through
the catalog's delta-chain store, and :meth:`add_watch` pins a (graph,
scenario) pair so every mutation re-emits an incrementally repaired
result as an ordinary job. Watch lifecycle records ride the same journal
(``watch_created``/``watch_advanced``/``watch_deleted``) and survive
restarts — recovery re-pins each watch to its last journaled graph head.
"""

from __future__ import annotations

import itertools
import random
import re
import threading
import time
import traceback
import uuid
from collections import deque
from dataclasses import replace
from pathlib import Path

from .. import native
from ..bsp import shm
from ..bsp import transport as frame
from ..bsp.executors import SharedPool
from ..deltas import GraphDelta, RepairSession
from ..errors import (
    EngineDrainingError,
    JobError,
    RunCancelledError,
    TransientJobError,
)
from ..faults import FaultPlan
from ..obs import (
    REQUIRED_FAMILIES,
    MetricsRegistry,
    SpanRecorder,
    get_registry,
    use_registry,
    use_trace,
)
from ..pipeline.cancel import CancelToken
from ..pipeline.context import RunConfig
from ..scenarios.base import run_scenario
from . import supervise
from .catalog import GraphCatalog
from .dispatch import ForkedWorkerPool
from .remote import RemoteHostPool
from .journal import (
    JobJournal,
    TERMINAL_EVENTS,
    config_from_dict,
    reduce_records,
    reduce_watches,
)
from .queue import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobQueue,
    JobResult,
)

__all__ = ["JobEngine"]

#: Exception class names (stdlib executor breakage) treated as transient.
_TRANSIENT_CLASS_NAMES = frozenset(
    {"BrokenProcessPool", "BrokenThreadPool", "BrokenExecutor"}
)


def _is_transient(exc: BaseException) -> bool:
    """Whether a failure is infrastructure (retryable), not the job's fault."""
    if isinstance(exc, TransientJobError):
        return True
    if isinstance(exc, (EOFError, BrokenPipeError)):
        return True
    return type(exc).__name__ in _TRANSIENT_CLASS_NAMES


class JobEngine:
    """Thread-based scheduler running scenario jobs over shared resources.

    Parameters
    ----------
    catalog:
        The :class:`~repro.jobs.catalog.GraphCatalog` (or a path-like cache
        root, from which one is built).
    dispatchers:
        Number of dispatcher threads — how many jobs run concurrently.
    dispatcher:
        ``"thread"`` (default) runs jobs on the dispatcher threads over the
        shared pool; ``"process"`` pre-forks one worker process per
        dispatcher (:class:`~repro.jobs.dispatch.ForkedWorkerPool`) and
        each thread drives its own worker through a pipe — jobs then run
        on separate cores, with graphs attached from shared memory and
        cancellation delivered through a shared flag array. In process
        mode no pool is injected (``pool_kind`` is ignored): each worker
        picks its backend from the job's own config. ``"remote"`` is the
        coordinator mode: jobs dispatch over the registered ``hosts``
        (:class:`~repro.jobs.remote.RemoteHostPool`) with content-hash
        placement, host-side catalog provisioning, and the same
        transient-retry/circuit-breaker supervision — a dead or hung host
        cools down, its jobs re-dispatch elsewhere, and with every host
        down the engine degrades to in-process execution.
    hosts:
        Worker host addresses for ``dispatcher="remote"`` — a
        ``"host:port,host:port"`` string or a list of ``(host, port)``
        pairs. Required in remote mode, ignored otherwise.
    host_cooldown:
        Seconds a dead/hung remote host stays out of scheduling before
        the coordinator tries it again.
    pool:
        An externally-owned :class:`SharedPool`, or ``None`` to have the
        engine build (and own) one from ``pool_kind``/``pool_workers``.
        ``pool_kind=None`` disables pool injection (each run picks its own
        backend from its config — the cold per-request behavior).
    artifact_dir:
        Where per-job durable artifact JSONs are written (``None`` disables
        them).
    keep_results:
        How many terminal jobs keep their in-memory
        :class:`~repro.scenarios.base.ScenarioResult`. ``None`` (default)
        keeps all — right for batches and tests, wrong for a server: under
        sustained traffic every finished job would pin its full result in
        RAM forever. ``repro-euler serve`` bounds this; evicted results
        remain available through the durable artifact JSON.
    retention:
        How many **terminal** jobs stay in the in-memory registry
        (``None``: all). Evicted jobs answer :meth:`job_summary` /
        ``GET /jobs/<id>`` from the durable artifact index, so a week-long
        server holds O(retention) job records while every job ever run
        stays queryable. Pair with ``artifact_dir`` — without artifacts an
        evicted job's status is gone.
    max_queued:
        Backpressure bound on QUEUED jobs; :meth:`submit` raises
        :class:`~repro.errors.QueueFullError` (HTTP 429 at the front end)
        once hit. ``None``: unbounded.
    default_timeout:
        Default per-job ``timeout_seconds`` applied when a submission does
        not carry its own (``None``: unbounded). The deadline budgets run
        time (armed at dispatch) and fails the job at its next safe point.
    journal:
        A :class:`~repro.jobs.journal.JobJournal` (or a path to build one
        at), or ``None`` (default) for a journal-less engine. With a
        journal, :meth:`recover` runs during construction — before the
        dispatcher threads start — replaying whatever a previous process
        left behind.
    default_max_retries:
        ``max_retries`` applied to submissions that do not carry their
        own. ``0`` (default): transient failures fail like any other.
    retry_backoff / retry_backoff_max:
        Exponential-backoff base and cap (seconds) between retry attempts;
        jitter is deterministic per (job, attempt).
    hang_timeout / respawn_budget / respawn_window / breaker_cooldown:
        Process-mode supervision knobs, passed through to
        :class:`~repro.jobs.dispatch.ForkedWorkerPool` (see its docs).
        Ignored in thread mode.
    """

    def __init__(
        self,
        catalog: GraphCatalog | str | Path,
        dispatchers: int = 2,
        dispatcher: str = "thread",
        pool: SharedPool | None = None,
        pool_kind: str | None = "thread",
        pool_workers: int = 4,
        artifact_dir: str | Path | None = None,
        keep_results: int | None = None,
        retention: int | None = None,
        max_queued: int | None = None,
        default_timeout: float | None = None,
        journal: JobJournal | str | Path | None = None,
        default_max_retries: int = 0,
        retry_backoff: float = 0.05,
        retry_backoff_max: float = 5.0,
        hang_timeout: float | None = None,
        respawn_budget: int = 5,
        respawn_window: float = 60.0,
        breaker_cooldown: float = 30.0,
        hosts=None,
        host_cooldown: float = 5.0,
        metrics: MetricsRegistry | None = None,
    ):
        if dispatchers < 1:
            raise ValueError("dispatchers must be >= 1")
        if dispatcher not in ("thread", "process", "remote"):
            raise ValueError(
                f"unknown dispatcher {dispatcher!r}; "
                "use 'thread', 'process' or 'remote'"
            )
        if keep_results is not None and keep_results < 0:
            raise ValueError("keep_results must be >= 0 or None")
        if default_max_retries < 0:
            raise ValueError("default_max_retries must be >= 0")
        #: The engine's metric sink: the process-global registry by default,
        #: or a caller-supplied one (a second in-process engine — the
        #: degrade path, tests — must not share counter series).
        self.metrics = metrics if metrics is not None else get_registry()
        self.catalog = (
            catalog if isinstance(catalog, GraphCatalog) else GraphCatalog(catalog)
        )
        # Startup janitor: segments named by a previous, now-dead process
        # (a crashed server's cancel flags, heartbeats, graph shares) are
        # unreachable garbage — sweep them before creating our own.
        self.swept_segments: list[str] = (
            shm.sweep_stale_segments() if shm.shm_available() else []
        )
        self.dispatcher = dispatcher
        self.dispatchers = dispatchers
        self._remote = None
        if dispatcher == "process":
            self._owns_pool = False
            self.pool = None
            # Fork the workers *before* any dispatcher thread exists: a
            # single-threaded parent makes fork semantics trivial (no lock
            # can be mid-held in the children).
            self._forked = ForkedWorkerPool(
                dispatchers, self.catalog.root,
                hang_timeout=hang_timeout,
                respawn_budget=respawn_budget,
                respawn_window=respawn_window,
                breaker_cooldown=breaker_cooldown,
                metrics=self.metrics,
            )
        elif dispatcher == "remote":
            self._owns_pool = False
            self.pool = None
            self._forked = None
            self._remote = RemoteHostPool(
                hosts, self.catalog,
                hang_timeout=hang_timeout,
                host_cooldown=host_cooldown,
                metrics=self.metrics,
            )
        else:
            self._owns_pool = pool is None and pool_kind is not None
            self.pool = pool if pool is not None else (
                SharedPool(pool_kind, pool_workers) if pool_kind is not None else None
            )
            self._forked = None
        #: job id → worker slot for RUNNING jobs (process mode) — how
        #: :meth:`cancel` finds the flag to raise.
        self._job_slots: dict[str, int] = {}
        self._slots_lock = threading.Lock()
        self.artifact_dir = Path(artifact_dir) if artifact_dir is not None else None
        self.keep_results = keep_results
        self.default_timeout = default_timeout
        self.default_max_retries = default_max_retries
        self.retry_backoff = retry_backoff
        self.retry_backoff_max = retry_backoff_max
        self._resident: deque[Job] = deque()
        self._resident_lock = threading.Lock()
        self.queue = JobQueue(retention=retention, max_queued=max_queued,
                              metrics=self.metrics)
        self.journal = (
            journal if (journal is None or isinstance(journal, JobJournal))
            else JobJournal(journal)
        )
        #: idempotency key → job id (seeded from the journal at recovery).
        self._idem: dict[str, str] = {}
        self._idem_lock = threading.Lock()
        #: Minimal status rows for journal-only jobs (terminal at crash
        #: with no artifact, or unrecoverable) — the job_summary fallback
        #: of last resort.
        self._journal_fallback: dict[str, dict] = {}
        #: Pending backoff timers → their jobs; close() resolves survivors.
        self._retry_timers: dict[threading.Timer, Job] = {}
        self._timers_lock = threading.Lock()
        self._retries_scheduled = 0
        self._degraded_jobs = 0
        self._draining = False
        self._stop_dispatch = False
        self._ids = itertools.count(1)
        self._closed = False
        #: watch id → live watch record (see :meth:`add_watch`).
        self._watches: dict[str, dict] = {}
        self._watch_lock = threading.Lock()
        self._watch_ids = itertools.count(1)
        self._mutations = 0
        self._watch_emissions = 0
        #: What :meth:`recover` found and did (all zero without a journal).
        self.recovery_stats: dict = {
            "replayed": 0, "requeued": 0, "reconciled": 0,
            "failed": 0, "terminal": 0, "watches": 0,
        }
        if self.journal is not None:
            self.recover()
        self._init_metrics()
        self._threads = [
            threading.Thread(
                target=self._dispatch_loop, args=(i,),
                name=f"job-dispatch-{i}", daemon=True,
            )
            for i in range(dispatchers)
        ]
        for t in self._threads:
            t.start()

    # -- submission API ----------------------------------------------------

    def submit(
        self,
        scenario: str,
        graph=None,
        graph_key: str | None = None,
        config: RunConfig | None = None,
        priority: int = 0,
        name: str = "",
        timeout_seconds: float | None = None,
        max_retries: int | None = None,
        idempotency_key: str | None = None,
        trace_id: str | None = None,
    ) -> JobResult:
        """Queue one scenario run; returns its future-style handle.

        Exactly one of ``graph`` (cataloged on the spot) or ``graph_key``
        (already cataloged) must be given. ``timeout_seconds`` bounds the
        job's *run* time (the engine's ``default_timeout`` applies when
        omitted); an overrunning job fails at its next safe point.
        ``max_retries`` bounds transient re-dispatches (default:
        ``default_max_retries``).

        ``idempotency_key`` deduplicates: a resubmission carrying a key
        already seen (within the registry retention + journal window)
        returns the original job's handle instead of queueing a duplicate
        — the client-retry safety net.

        With a journal, the submission is fsync'd durable **before** this
        method returns: an acknowledged job survives ``kill -9``.

        Raises :class:`~repro.errors.QueueFullError` under backpressure
        (``max_queued``) and :class:`~repro.errors.EngineDrainingError`
        during graceful shutdown — the graph pin taken here is released on
        the way out, so rejected submissions leak nothing.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        if self._draining:
            raise EngineDrainingError()
        if (graph is None) == (graph_key is None):
            raise ValueError("pass exactly one of graph or graph_key")
        if idempotency_key:
            existing = self.idempotent_job_id(idempotency_key)
            if existing is not None:
                try:
                    return self.queue.handle(existing)
                except JobError:
                    # The original aged out of the registry (terminal long
                    # ago); treat the resubmission as a fresh job.
                    pass
        # Pinned until the job is terminal: budget eviction must never pull
        # the graph out from under an accepted job. For a fresh graph the
        # pin rides inside put()'s lock hold (no catalog-then-pin TOCTOU);
        # for a pre-cataloged key, pin() itself raises on a stale key.
        if graph is not None:
            graph_key = self.catalog.put(graph, name=name, pin=True)
        else:
            self.catalog.pin(graph_key)  # KeyError on an unknown key
        try:
            config = config if config is not None else RunConfig()
            meta = self.catalog.meta(graph_key)
            if timeout_seconds is None:
                timeout_seconds = self.default_timeout
            if max_retries is None:
                max_retries = self.default_max_retries
            job = Job(
                id=f"job-{next(self._ids):06d}",
                scenario=scenario,
                graph_key=graph_key,
                config=config,
                priority=priority,
                graph_name=name or meta.get("name", ""),
                n_vertices=int(meta["n_vertices"]),
                n_edges=int(meta["n_edges"]),
                timeout_seconds=timeout_seconds,
                cancel_token=CancelToken(timeout_seconds),
                max_retries=int(max_retries),
                idempotency_key=idempotency_key,
                # Client-supplied or minted here: every job has a trace id
                # from the moment it exists, so logs/artifacts/worker spans
                # downstream can always name the originating request.
                trace_id=trace_id or uuid.uuid4().hex[:16],
            )
            handle = self.queue.submit(job)
            try:
                self._journal_submit(job)
            except BaseException:
                # Never acknowledge what the journal couldn't record: pull
                # the job back out before the handle escapes.
                self.queue.cancel(job.id)
                raise
            if idempotency_key:
                with self._idem_lock:
                    self._idem[idempotency_key] = job.id
            return handle
        except BaseException:
            self.catalog.unpin(graph_key)
            raise

    def idempotent_job_id(self, key: str) -> str | None:
        """The job id previously submitted under ``key``, if any."""
        with self._idem_lock:
            return self._idem.get(key)

    def cancel(self, job_id: str) -> bool:
        """Cancel a job: QUEUED terminally, RUNNING cooperatively.

        Returns ``True`` when the request took effect — a queued job
        reached CANCELLED on the spot, or a running job's cancel token was
        signalled (it lands on CANCELLED at its next superstep or sub-run
        boundary, with the partial pass history persisted). Terminal and
        registry-evicted jobs return ``False``; unknown ids raise.
        """
        try:
            job = self.queue.get(job_id)
        except JobError:
            if self.artifact_doc(job_id) is not None:
                return False  # evicted from the registry, hence terminal
            raise
        if self.queue.cancel(job_id):
            self.catalog.unpin(job.graph_key)
            # Cancelled-while-queued jobs never reach a dispatcher; write
            # their artifact here so the registry can evict them too.
            self._write_artifact(job, swallow_errors=True)
            self._journal_event("cancelled", job)
            return True
        if job.state == RUNNING and job.cancel_token is not None:
            job.cancel_token.cancel()
            if self._forked is not None:
                with self._slots_lock:
                    slot = self._job_slots.get(job_id)
                if slot is not None:
                    self._forked.cancel(slot)
            if self._remote is not None:
                self._remote.cancel(job_id)
            return True
        return False

    def job(self, job_id: str) -> Job:
        return self.queue.get(job_id)

    def job_summary(self, job_id: str) -> dict:
        """Status row for any job ever run: registry, artifact, journal.

        The bounded registry answers live and recently-terminal jobs; for
        evicted ones the durable per-job artifact
        (:func:`~repro.bench.report_io.load_job_summary`) still serves the
        exact :meth:`~repro.jobs.queue.Job.summary` shape; jobs known only
        to the journal (terminal at a crash before their artifact landed)
        answer from the recovery fallback rows.
        """
        from ..bench.report_io import load_job_summary

        try:
            return self.queue.get(job_id).summary()
        except JobError:
            summary = load_job_summary(self.artifact_dir, job_id)
            if summary is None:
                summary = self._journal_fallback.get(job_id)
            if summary is None:
                raise
            return summary

    def artifact_doc(self, job_id: str) -> dict | None:
        """The full durable artifact document, or ``None`` when absent."""
        from ..bench.report_io import load_job

        if self.artifact_dir is None:
            return None
        return load_job(self.artifact_dir / f"{job_id}.json")

    def handle(self, job_id: str) -> JobResult:
        return self.queue.handle(job_id)

    def jobs(self) -> list[Job]:
        return self.queue.jobs()

    # -- dynamic graphs: mutations and watch jobs ----------------------------

    def mutate_graph(self, base_key: str, delta: GraphDelta, name: str = "",
                     faults: FaultPlan | None = None) -> dict:
        """Apply a delta through the catalog; advance every watch on it.

        The catalog mints the child's content hash from a delta chain
        (no full NPZ until something exports it). Each watch currently
        pinned to ``base_key`` then rolls forward: its repair session
        advances across the delta (deciding incremental repair vs full
        recompute), the watch re-pins onto the child hash, and one
        emission job is submitted carrying the session — the repaired
        result lands as a normal job whose artifact pass history records
        the decision. Returns the child key plus per-watch emissions.

        ``faults`` (a plan with a ``delta_apply`` spec armed) makes the
        catalog application itself fail *before* any watch moves — a
        failed mutation leaves the catalog and every watch untouched.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        if self._draining:
            raise EngineDrainingError()
        new_key = self.catalog.mutate(base_key, delta, name=name,
                                      faults=faults)
        self._mutations += 1
        with self._watch_lock:
            targets = [w for w in self._watches.values()
                       if w["graph_key"] == base_key]
        out: dict = {"graph_key": new_key, "base_key": base_key,
                     "delta": delta.summary(), "watches": {}}
        for w in targets:
            report = w["session"].advance(delta)
            self.catalog.pin(new_key)
            self.catalog.unpin(w["graph_key"])
            w["graph_key"] = new_key
            w["mutations"] += 1
            handle = self.submit(
                w["scenario"], graph_key=new_key,
                config=replace(w["config"], repair=w["session"]),
                priority=w["priority"], name=w["name"] or name,
            )
            # The decision is stamped coordinator-side so it reaches the
            # artifact on every dispatcher mode (process/remote workers
            # run the emission cold — the session never crosses a pipe).
            self.queue.get(handle.job_id).record_pass(
                "repair_decision", 0.0, watch_id=w["id"], **report
            )
            w["emitted"].append(handle.job_id)
            w["last_job_id"] = handle.job_id
            self._watch_emissions += 1
            self._journal_event(
                "watch_advanced", _Ref(w["id"]), graph_key=new_key,
                emitted=handle.job_id, decision=report.get("decision"),
            )
            out["watches"][w["id"]] = {
                "job_id": handle.job_id,
                "decision": report.get("decision"),
                "dirty_parts": report.get("dirty_parts"),
            }
        return out

    def add_watch(self, graph_key: str, scenario: str = "circuit",
                  config: RunConfig | None = None, name: str = "",
                  threshold: float = 0.5, priority: int = 0) -> dict:
        """Pin a (graph, scenario) pair: every mutation re-emits a result.

        The watch holds a :class:`~repro.deltas.RepairSession` across
        mutations, so successive emissions repair incrementally instead
        of recomputing (``threshold``: the dirty-partition fraction past
        which a mutation falls back to full recompute). With a journal
        the watch is durable — :meth:`recover` rebuilds the registry on
        restart, re-pinned to the watch's last journaled graph head (the
        Phase-1 cache is process memory, so the first post-restart
        emission is a cold capture). Returns the watch summary row.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        if self._draining:
            raise EngineDrainingError()
        self.catalog.pin(graph_key)  # KeyError on an unknown key
        config = config if config is not None else RunConfig()
        watch_id = f"watch-{next(self._watch_ids):06d}"
        record = {
            "id": watch_id,
            "graph_key": graph_key,
            "base_key": graph_key,
            "scenario": scenario,
            "config": config,
            "name": name,
            "priority": int(priority),
            "session": RepairSession(threshold=threshold),
            "threshold": float(threshold),
            "mutations": 0,
            "emitted": [],
            "last_job_id": None,
            "created_at": time.time(),
            "recovered": False,
        }
        with self._watch_lock:
            self._watches[watch_id] = record
        if self.journal is not None:
            from .journal import config_to_dict

            try:
                # Like submissions: never acknowledge a watch the journal
                # couldn't record.
                self.journal.append(
                    "watch_created", watch_id,
                    graph_key=graph_key, scenario=scenario,
                    config=config_to_dict(config), name=name,
                    threshold=float(threshold), priority=int(priority),
                )
            except BaseException:
                with self._watch_lock:
                    self._watches.pop(watch_id, None)
                self.catalog.unpin(graph_key)
                raise
        return self.watch_summary(watch_id)

    def watch_summary(self, watch_id: str) -> dict:
        """One watch's status row (raises ``KeyError`` on unknown ids)."""
        with self._watch_lock:
            w = self._watches.get(watch_id)
            if w is None:
                raise KeyError(f"unknown watch {watch_id!r}")
            return {
                "id": w["id"],
                "graph_key": w["graph_key"],
                "base_key": w["base_key"],
                "scenario": w["scenario"],
                "name": w["name"],
                "threshold": w["threshold"],
                "mutations": w["mutations"],
                "emitted_jobs": len(w["emitted"]),
                "last_job_id": w["last_job_id"],
                "last_repair": dict(w["session"].last_report),
                "created_at": w["created_at"],
                "recovered": w["recovered"],
            }

    def watches(self) -> list[dict]:
        """Status rows for every live watch, in id order."""
        with self._watch_lock:
            ids = sorted(self._watches)
        return [self.watch_summary(i) for i in ids]

    def delete_watch(self, watch_id: str) -> bool:
        """Tear a watch down (unpins its graph head); ``KeyError`` when
        unknown."""
        with self._watch_lock:
            w = self._watches.pop(watch_id, None)
        if w is None:
            raise KeyError(f"unknown watch {watch_id!r}")
        self.catalog.unpin(w["graph_key"])
        self._journal_event("watch_deleted", _Ref(watch_id))
        return True

    # -- journal ------------------------------------------------------------

    def _journal_submit(self, job: Job) -> None:
        """Durably record an accepted submission (raises on failure)."""
        if self.journal is None:
            return
        from .journal import config_to_dict

        self.journal.append(
            "submitted", job.id,
            scenario=job.scenario,
            graph_key=job.graph_key,
            config=config_to_dict(job.config),
            priority=job.priority,
            name=job.graph_name,
            timeout_seconds=job.timeout_seconds,
            max_retries=job.max_retries,
            idempotency_key=job.idempotency_key,
        )

    def _journal_event(self, event: str, job: Job, **fields) -> None:
        """Record a transition; never lets journal trouble kill a dispatcher."""
        if self.journal is None:
            return
        try:
            self.journal.append(event, job.id, **fields)
        except Exception:
            pass

    def recover(self) -> dict:
        """Replay the journal + artifacts; re-enqueue interrupted jobs.

        Runs during construction (before any dispatcher thread), so by the
        time the engine serves traffic every job a crash interrupted is
        either back in the queue (original id — clients keep polling the
        id they were acknowledged with) or journaled terminal:

        * jobs QUEUED at the crash re-enqueue as-is;
        * jobs RUNNING at the crash consume one attempt (the run died with
          the process) and re-enqueue while ``attempt <= max_retries``,
          else fail terminally;
        * jobs whose terminal record was lost but whose durable artifact
          landed (the artifact is written *before* the terminal journal
          record) are reconciled from the artifact;
        * jobs missing their ``submitted`` spec fail as unrecoverable.

        Idempotency keys from every replayed spec re-seed the dedup map.
        Returns (and stores as ``recovery_stats``) what was done.
        """
        from ..bench.report_io import load_job_summary

        stats = {"replayed": 0, "requeued": 0, "reconciled": 0,
                 "failed": 0, "terminal": 0, "watches": 0}
        if self.journal is None:
            self.recovery_stats = stats
            return stats
        records = self.journal.replay()
        stats["replayed"] = len(records)
        states = reduce_records(records)
        max_id = 0
        for job_id, state in sorted(states.items()):
            m = re.fullmatch(r"job-(\d+)", job_id)
            if m:
                max_id = max(max_id, int(m.group(1)))
            spec = state["spec"] or {}
            key = spec.get("idempotency_key")
            if key:
                self._idem[key] = job_id
            if state["event"] in TERMINAL_EVENTS:
                stats["terminal"] += 1
                if (load_job_summary(self.artifact_dir, job_id) is None
                        and job_id not in self._journal_fallback):
                    self._journal_fallback[job_id] = self._fallback_summary(
                        job_id, state["event"].upper(), spec, state["error"]
                    )
                continue
            # Interrupted (QUEUED/RUNNING at crash). The durable artifact
            # is written before the terminal journal record, so an
            # artifact in a terminal state wins: the job finished; only
            # its journal record was lost.
            summary = load_job_summary(self.artifact_dir, job_id)
            if summary is not None and summary.get("state") in TERMINAL_STATES:
                self._journal_event(
                    summary["state"].lower(), _Ref(job_id), reconciled=True
                )
                stats["reconciled"] += 1
                continue
            if state["spec"] is None:
                self._recover_failed(
                    job_id, spec, stats,
                    "unrecoverable: submitted record lost",
                )
                continue
            was_running = state["event"] == "started"
            attempt = state["attempt"] + (1 if was_running else 0)
            max_retries = int(spec.get("max_retries") or 0)
            if was_running and attempt > max_retries:
                self._recover_failed(
                    job_id, spec, stats,
                    "lost at crash; retry budget exhausted",
                )
                continue
            try:
                config = config_from_dict(spec.get("config") or {})
                self.catalog.pin(spec["graph_key"])
            except (KeyError, ValueError) as exc:
                self._recover_failed(
                    job_id, spec, stats, f"unrecoverable: {exc}"
                )
                continue
            try:
                meta = self.catalog.meta(spec["graph_key"])
                timeout = spec.get("timeout_seconds")
                job = Job(
                    id=job_id,
                    scenario=spec.get("scenario", ""),
                    graph_key=spec["graph_key"],
                    config=config,
                    priority=int(spec.get("priority") or 0),
                    graph_name=spec.get("name", ""),
                    n_vertices=int(meta["n_vertices"]),
                    n_edges=int(meta["n_edges"]),
                    timeout_seconds=timeout,
                    cancel_token=CancelToken(timeout),
                    max_retries=max_retries,
                    attempt=attempt,
                    idempotency_key=key,
                )
                job.record_pass(
                    "recovered", 0.0,
                    was=("RUNNING" if was_running else "QUEUED"),
                    attempt=attempt,
                )
                if was_running:
                    self._journal_event(
                        "retry", job, attempt=attempt,
                        error="recovered: running at crash",
                    )
                self.queue.submit(job, force=True)
                stats["requeued"] += 1
            except BaseException:
                self.catalog.unpin(spec["graph_key"])
                raise
        if max_id:
            self._ids = itertools.count(max_id + 1)
        self._recover_watches(records, stats)
        self.recovery_stats = stats
        return stats

    def _recover_watches(self, records: list[dict], stats: dict) -> None:
        """Rebuild the watch registry from journaled watch events.

        A recovered watch re-pins its last journaled graph head and gets
        a *fresh* repair session — the Phase-1 cache died with the old
        process, so its first post-restart emission is a cold capture and
        subsequent mutations repair incrementally again. Watches whose
        head graph is no longer cataloged (evicted while down) are
        dropped rather than resurrected broken.
        """
        watch_states = reduce_watches(records)
        max_watch = 0
        for watch_id, wstate in sorted(watch_states.items()):
            m = re.fullmatch(r"watch-(\d+)", watch_id)
            if m:
                max_watch = max(max_watch, int(m.group(1)))
            if wstate["deleted"] or wstate["spec"] is None:
                continue
            spec = wstate["spec"]
            head = wstate["graph_key"] or spec.get("graph_key")
            try:
                config = config_from_dict(spec.get("config") or {})
                self.catalog.pin(head)
            except (KeyError, ValueError):
                continue
            threshold = float(spec.get("threshold") or 0.5)
            self._watches[watch_id] = {
                "id": watch_id,
                "graph_key": head,
                "base_key": spec.get("graph_key", head),
                "scenario": spec.get("scenario", "circuit"),
                "config": config,
                "name": spec.get("name", ""),
                "priority": int(spec.get("priority") or 0),
                "session": RepairSession(threshold=threshold),
                "threshold": threshold,
                "mutations": int(wstate["mutations"]),
                "emitted": [],
                "last_job_id": wstate["last_job_id"],
                "created_at": spec.get("ts"),
                "recovered": True,
            }
            stats["watches"] += 1
        if max_watch:
            self._watch_ids = itertools.count(max_watch + 1)

    def _recover_failed(self, job_id: str, spec: dict, stats: dict,
                        error: str) -> None:
        """Journal a terminal failure for a job recovery cannot re-run."""
        self._journal_event("failed", _Ref(job_id), error=error)
        self._journal_fallback[job_id] = self._fallback_summary(
            job_id, FAILED, spec, error
        )
        stats["failed"] += 1

    @staticmethod
    def _fallback_summary(job_id: str, state: str, spec: dict,
                          error: str | None) -> dict:
        """A minimal :meth:`Job.summary`-shaped row from journal data."""
        return {
            "id": job_id,
            "scenario": spec.get("scenario", ""),
            "graph_key": spec.get("graph_key", ""),
            "graph_name": spec.get("name", ""),
            "n_vertices": 0,
            "n_edges": 0,
            "priority": int(spec.get("priority") or 0),
            "state": state,
            "executor": "",
            "submitted_at": spec.get("ts"),
            "started_at": None,
            "finished_at": None,
            "queue_latency_seconds": None,
            "run_seconds": None,
            "error": error,
            "artifact_path": None,
            "timeout_seconds": spec.get("timeout_seconds"),
            "max_retries": int(spec.get("max_retries") or 0),
            "attempt": 0,
            "idempotency_key": spec.get("idempotency_key"),
            "recovered": True,
        }

    # -- dispatch ----------------------------------------------------------

    def _dispatch_loop(self, slot: int) -> None:
        while True:
            if self._stop_dispatch:
                return
            job = self.queue.pop(timeout=0.2)
            if job is None:
                if self._closed or self._stop_dispatch:
                    return
                continue
            self._journal_event("started", job, attempt=job.attempt)
            if self._forked is not None and self._forked.circuit_open():
                # Graceful degradation: the worker pool is crash-looping;
                # run in-process (slower, shared GIL) rather than feeding
                # jobs to workers that keep dying.
                self._degraded_jobs += 1
                self.metrics.counter("repro_degraded_dispatch_total").inc()
                job.record_pass("degraded_dispatch", 0.0,
                                reason="worker circuit breaker open")
                self._run_job(job)
            elif self._forked is not None:
                self._run_job_forked(job, slot)
            elif self._remote is not None and self._remote.circuit_open():
                # Every registered host is down/cooling: run on the
                # coordinator itself rather than queueing into the void.
                self._degraded_jobs += 1
                self.metrics.counter("repro_degraded_dispatch_total").inc()
                job.record_pass("degraded_dispatch", 0.0,
                                reason="remote host circuit open")
                self._run_job(job)
            elif self._remote is not None:
                self._run_job_remote(job)
            else:
                self._run_job(job)

    def _run_job(self, job: Job) -> None:
        retried = False
        try:
            retried = self._run_job_inner(job)
        finally:
            if not retried:
                self.catalog.unpin(job.graph_key)
                self._trim_resident(job)

    def _trim_resident(self, job: Job) -> None:
        """Bound the in-memory results a long-lived engine retains."""
        if self.keep_results is None:
            return
        with self._resident_lock:
            self._resident.append(job)
            while len(self._resident) > self.keep_results:
                self._resident.popleft().result = None

    def _armed_faults(self, job: Job):
        """The job's fault plan, armed for its current attempt.

        A plan rides either the job's own config or the process-wide
        ``REPRO_FAULTS`` variable; the attempt arming is what makes retried
        runs execute clean (see :meth:`~repro.faults.FaultPlan.for_attempt`).
        """
        plan = job.config.faults
        if plan is None:
            plan = FaultPlan.from_env()
        if plan is None:
            return None
        return plan.for_attempt(job.attempt)

    def _run_job_inner(self, job: Job) -> bool:
        """Run one job in-process; returns True when a retry was scheduled."""
        started = time.perf_counter()
        try:
            token = job.cancel_token
            if token is not None:
                # The deadline budgets *run* time: restart the clock now
                # that the job left the queue (queue latency is unbounded
                # under load and not the job's fault).
                token.arm()
            t0 = time.perf_counter()
            graph = self.catalog.get(job.graph_key)
            job.record_pass("load_graph", time.perf_counter() - t0,
                            graph_key=job.graph_key)

            t0 = time.perf_counter()
            derived = self.catalog.derived_for(job.graph_key, job.config, job.scenario)
            job.record_pass("derived_artifacts", time.perf_counter() - t0,
                            artifacts=sorted(derived))

            config = job.config
            if self.pool is not None and config.pool is None:
                config = replace(config, pool=self.pool)
            config = replace(config, derived=derived, cancel=token,
                             faults=self._armed_faults(job))
            # The backend the job actually runs on (post pool injection) —
            # what status rows and the batch report must attribute to.
            job.executor = config.executor_name

            t0 = time.perf_counter()
            # Ambient registry + trace installed for the run: deep call
            # sites (walk cache, shm attach) charge this engine's
            # registry, and stage spans recorded anywhere in the pipeline
            # land both in repro_stage_seconds and — via the recorder —
            # in the job's durable pass history as ``stage:<name>`` rows.
            recorder = SpanRecorder()
            with use_registry(self.metrics), use_trace(job.trace_id), recorder:
                result = run_scenario(graph, job.scenario, config)
            job.record_pass(
                "run_scenario", time.perf_counter() - t0,
                executor=config.executor_name,
                n_sub_runs=len(result.sub_runs),
                walk_edges=int(sum(c.n_edges for c in result.circuits)),
            )
            for span in recorder.spans:
                extra = {k: v for k, v in span.items()
                         if k not in ("stage", "wall")}
                job.record_pass("stage:" + span["stage"], span["wall"],
                                **extra)
            if config.repair is not None:
                # The decision plus live hit/miss counters — how much of
                # this run was replayed vs recomputed.
                job.record_pass("repair", 0.0, **config.repair.report())
            job.result = result

            # Pre-stamp the terminal state so the durable artifact records
            # the finished job; finish() below only notifies the handle.
            job.state = DONE
            job.finished_at = time.time()
            self._write_artifact(job)
            self._journal_event("done", job)
            self.queue.finish(job, DONE)
            return False
        except RunCancelledError as exc:
            # Cooperative stop at a safe point. The passes recorded so far
            # ARE the partial pass history — persisted with the terminal
            # state so the artifact audits how far the job got.
            job.record_pass("cancelled", time.perf_counter() - started,
                            reason=exc.reason, where=exc.where)
            if exc.reason == "timeout":
                state, error = FAILED, str(exc)
            else:
                state, error = CANCELLED, None
            job.state = state
            job.error = error
            job.finished_at = time.time()
            self._write_artifact(job, swallow_errors=True)
            self._journal_event(state.lower(), job, error=error)
            self.queue.finish(job, state, error=error)
            return False
        except Exception as exc:  # a failed job must never kill its dispatcher
            detail = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
            job.record_pass("error", 0.0, error=detail)
            if _is_transient(exc) and self._schedule_retry(job, detail):
                return True
            self._finish_failed(job, detail)
            return False

    # -- retry/backoff ------------------------------------------------------

    def _schedule_retry(self, job: Job, error: str) -> bool:
        """Arrange a backoff'd re-dispatch; False when out of budget."""
        if job.attempt >= job.max_retries or self._closed:
            return False
        next_attempt = job.attempt + 1
        base = min(self.retry_backoff_max,
                   self.retry_backoff * (2 ** job.attempt))
        # Deterministic jitter: reproducible schedules (the chaos tests
        # replay exactly), yet distinct jobs never thundering-herd.
        jitter = random.Random(f"{job.id}:{next_attempt}").random()
        backoff = base * (1.0 + jitter)
        job.record_pass("retry", backoff, attempt=next_attempt,
                        error=error, backoff_seconds=backoff)
        job.attempt = next_attempt
        job.error = None
        self._journal_event("retry", job, attempt=next_attempt,
                            error=error, backoff=backoff)
        timer = threading.Timer(backoff, self._requeue_after_backoff, args=())
        # The timer must know itself to claim its registry slot (the
        # close() race: exactly one of timer-fire / close resolves a job).
        timer.args = (timer, job)
        timer.daemon = True
        with self._timers_lock:
            self._retry_timers[timer] = job
        self._retries_scheduled += 1
        self.metrics.counter("repro_retries_scheduled_total").inc()
        timer.start()
        return True

    def _requeue_after_backoff(self, timer: threading.Timer, job: Job) -> None:
        with self._timers_lock:
            if self._retry_timers.pop(timer, None) is None:
                return  # close() claimed (and resolved) this job already
        token = job.cancel_token
        if token is not None and token.cancelled:
            # Cancelled while waiting out the backoff.
            job.record_pass("cancelled", 0.0, reason="cancel",
                            where="retry backoff")
            job.state = CANCELLED
            job.finished_at = time.time()
            self._write_artifact(job, swallow_errors=True)
            self._journal_event("cancelled", job)
            self.queue.finish(job, CANCELLED)
        elif not self.queue.requeue(job):
            self._finish_failed(job, "engine closed during retry backoff")
        else:
            return  # back in the queue; the pin stays held
        self.catalog.unpin(job.graph_key)
        self._trim_resident(job)

    # -- pre-forked dispatch (process mode) ---------------------------------

    def _run_job_forked(self, job: Job, slot: int) -> None:
        retried = False
        try:
            retried = self._run_job_forked_inner(job, slot)
        finally:
            with self._slots_lock:
                self._job_slots.pop(job.id, None)
            self._forked.clear(slot)
            if not retried:
                self.catalog.unpin(job.graph_key)
                self._trim_resident(job)

    def _run_job_forked_inner(self, job: Job, slot: int) -> bool:
        started = time.perf_counter()
        try:
            self._forked.clear(slot)
            with self._slots_lock:
                self._job_slots[job.id] = slot
            token = job.cancel_token
            if token is not None and token.cancelled:
                # A cancel that landed between pop() and slot registration
                # found no slot to flag; raise it now so the worker stops
                # at its first checkpoint.
                self._forked.cancel(slot)

            t0 = time.perf_counter()
            # Compute (and persist) the derived artifacts parent-side; the
            # worker re-reads them as a disk-cache hit instead of receiving
            # the arrays through the pipe.
            self.catalog.derived_for(job.graph_key, job.config, job.scenario)
            job.record_pass("persist_derived", time.perf_counter() - t0)

            out = self._forked.run(slot, self._job_spec(job))
            return self._apply_spec_out(job, out)
        except TransientJobError as exc:
            # Worker death or hang: the pool already respawned the slot;
            # the job retries (budget permitting) on the fresh worker.
            detail = str(exc)
            job.record_pass("worker_failure", time.perf_counter() - started,
                            error=detail)
            if self._schedule_retry(job, detail):
                return True
            self._finish_failed(job, detail)
            return False
        except Exception as exc:  # parent-side failure must not kill the loop
            detail = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
            job.record_pass("error", time.perf_counter() - started,
                            error=detail)
            self._finish_failed(job, detail)
            return False

    def _job_spec(self, job: Job) -> dict:
        """The wire spec shipped to a forked worker or a remote host."""
        t0 = time.perf_counter()
        descriptor = self.catalog.share(job.graph_key)
        job.record_pass("share_graph", time.perf_counter() - t0,
                        graph_key=job.graph_key,
                        shared=descriptor is not None)
        return {
            "job_id": job.id,
            "scenario": job.scenario,
            "graph_key": job.graph_key,
            "config": replace(job.config, pool=None, cancel=None,
                              derived=None, repair=None,
                              faults=self._armed_faults(job)),
            "graph_descriptor": descriptor,
            "timeout_seconds": job.timeout_seconds,
            "trace_id": job.trace_id,
        }

    def _apply_spec_out(self, job: Job, out: dict) -> bool:
        """Land a worker/host result dict; True when a retry was scheduled."""
        for name, seconds, extra in out.get("passes", []):
            job.record_pass(name, seconds, **extra)
        # Worker-side counter/histogram increments (walk-cache hits, stage
        # latencies) fold into the coordinator's registry, so one scrape
        # covers the whole dispatch tree regardless of where jobs ran.
        self.metrics.merge_state(out.get("metrics_delta") or {})
        job.executor = out.get("executor", "") or job.executor
        state = out["state"]
        if state == DONE:
            job.result = out["result"]
            job.state = DONE
            job.finished_at = time.time()
            self._write_artifact(job)
            self._journal_event("done", job)
            self.queue.finish(job, DONE)
        elif state == CANCELLED:
            job.state = CANCELLED
            job.finished_at = time.time()
            self._write_artifact(job, swallow_errors=True)
            self._journal_event("cancelled", job)
            self.queue.finish(job, CANCELLED)
        else:
            error = out.get("error") or "job failed"
            if out.get("transient") and self._schedule_retry(job, error):
                return True
            self._finish_failed(job, error)
        return False

    # -- remote dispatch (coordinator mode) ----------------------------------

    def _run_job_remote(self, job: Job) -> None:
        retried = False
        try:
            retried = self._run_job_remote_inner(job)
        finally:
            if not retried:
                self.catalog.unpin(job.graph_key)
                self._trim_resident(job)

    def _run_job_remote_inner(self, job: Job) -> bool:
        started = time.perf_counter()
        try:
            spec = self._job_spec(job)
            out = self._remote.run(spec)
            return self._apply_spec_out(job, out)
        except TransientJobError as exc:
            # Host death, hang, or total unreachability: the pool marked
            # the host down; the retry re-dispatches to a surviving one.
            detail = str(exc)
            job.record_pass("host_failure", time.perf_counter() - started,
                            error=detail)
            if self._schedule_retry(job, detail):
                return True
            self._finish_failed(job, detail)
            return False
        except Exception as exc:  # coordinator-side failure: contain it
            detail = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
            job.record_pass("error", time.perf_counter() - started,
                            error=detail)
            self._finish_failed(job, detail)
            return False

    def _finish_failed(self, job: Job, error: str) -> None:
        job.state = FAILED
        job.error = error
        job.finished_at = time.time()
        self._write_artifact(job, swallow_errors=True)
        self._journal_event("failed", job, error=error)
        self.queue.finish(job, FAILED, error=error)

    def _write_artifact(self, job: Job, swallow_errors: bool = False) -> None:
        if self.artifact_dir is None:
            return
        from ..bench.report_io import save_job

        try:
            t0 = time.perf_counter()
            # Stamped before serialization so the artifact's own status row
            # names its path — what evicted-job lookups serve verbatim.
            path = self.artifact_dir / f"{job.id}.json"
            job.artifact_path = str(path)
            save_job(job, path)
            job.record_pass("write_artifact", time.perf_counter() - t0,
                            path=str(path))
        except Exception:
            job.artifact_path = None  # never point at a file that isn't there
            if not swallow_errors:
                raise

    # -- lifecycle ---------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self, timeout: float = 30.0, grace: float = 5.0) -> dict:
        """Graceful shutdown, phase one: stop intake, let work land.

        New submissions raise :class:`~repro.errors.EngineDrainingError`
        (HTTP 503 with ``Retry-After`` at the front ends) while queued and
        running jobs keep executing. Past ``timeout`` seconds, dispatch
        stops, still-RUNNING jobs are asked to cancel at their next safe
        point (waited on for ``grace`` seconds), and the journal is
        checkpointed — **still-QUEUED jobs stay journaled** and will be
        re-enqueued by the next process's :meth:`recover`, so even an
        impatient drain loses nothing that was acknowledged.

        Follow with ``close(cancel_queued=False)``: cancelling the
        leftovers would journal them terminal and forfeit that recovery.
        """
        self._draining = True
        deadline = time.monotonic() + max(0.0, timeout)
        while time.monotonic() < deadline:
            counts = self.queue.counts()
            if counts[QUEUED] + counts[RUNNING] == 0:
                break
            time.sleep(0.05)
        # Past the deadline (or drained): stop dispatch so leftovers stay
        # QUEUED, then push RUNNING jobs to their next safe point.
        self._stop_dispatch = True
        for job in self.queue.jobs():
            if job.state == RUNNING and job.cancel_token is not None:
                self.cancel(job.id)
        grace_deadline = time.monotonic() + max(0.0, grace)
        while time.monotonic() < grace_deadline:
            if self.queue.counts()[RUNNING] == 0:
                break
            time.sleep(0.05)
        counts = self.queue.counts()
        kept = self.journal.checkpoint() if self.journal is not None else 0
        return {
            "drained": counts[QUEUED] + counts[RUNNING] == 0,
            "remaining_queued": counts[QUEUED],
            "remaining_running": counts[RUNNING],
            "journal_records_kept": kept,
            "timeout": timeout,
        }

    def close(self, cancel_queued: bool = True) -> None:
        """Drain dispatchers and release the pool (idempotent).

        Queued jobs are cancelled by default so close cannot hang behind a
        deep queue; pass ``cancel_queued=False`` to let the queue drain
        (or, after :meth:`drain`, to leave journaled leftovers for the
        next process to recover). Running jobs always finish — their
        shared pool stays up until the dispatchers exit.
        """
        if self._closed:
            return
        # Resolve pending backoff timers first: each job is either claimed
        # here (failed terminally so its handle unblocks) or by its timer
        # firing — never both (the registry pop below arbitrates).
        with self._timers_lock:
            pending = dict(self._retry_timers)
            self._retry_timers.clear()
        for timer, job in pending.items():
            timer.cancel()
            self._finish_failed(job, "engine closed during retry backoff")
            self.catalog.unpin(job.graph_key)
            self._trim_resident(job)
        if cancel_queued:
            for job in self.queue.jobs():
                if job.state == QUEUED:
                    self.cancel(job.id)  # also unpins the graph
        # Watch pins are in-process state; release them (the journal, not
        # the pin table, is what makes watches survive the restart).
        with self._watch_lock:
            heads = [w["graph_key"] for w in self._watches.values()]
            self._watches.clear()
        for key in heads:
            self.catalog.unpin(key)
        self._closed = True
        self.queue.close()
        for t in self._threads:
            t.join()
        if self._forked is not None:
            self._forked.close()
        if self._remote is not None:
            self._remote.close()
        if self.pool is not None and self._owns_pool:
            self.pool.close()
        if self.journal is not None:
            self.journal.close()
        self.catalog.close_shared()

    def segment_stats(self) -> dict:
        """Combined shared-segment stats (catalog + pool program store)."""
        stats = self.catalog.segment_stats()
        if self.pool is not None and hasattr(self.pool, "segment_stats"):
            for k, v in self.pool.segment_stats().items():
                stats[k] = stats.get(k, 0) + v
        return stats

    def supervisor_stats(self) -> dict:
        """Fault-tolerance counters for ``/healthz`` (shared assembly)."""
        return supervise.engine_supervisor_stats(self)

    # -- observability ------------------------------------------------------

    def _init_metrics(self) -> None:
        """Pre-create every required family so a fresh ``/metrics`` page
        renders the full schema (zero-valued, but present and typed)."""
        m = self.metrics
        m.gauge("repro_queue_depth", "Jobs currently QUEUED")
        m.gauge("repro_queue_jobs", "Jobs per state (terminal = lifetime)",
                labelnames=("state",))
        m.histogram("repro_queue_delay_seconds",
                    "Seconds between job submit and dispatch")
        m.counter("repro_jobs_total",
                  "Job state transitions (entries into each state)",
                  labelnames=("state",))
        m.counter("repro_http_responses_total", "HTTP responses by status",
                  labelnames=("method", "status"))
        m.histogram("repro_stage_seconds", "Wall seconds per pipeline stage",
                    labelnames=("stage",))
        m.counter("repro_catalog_events_total",
                  "Catalog cache hits/misses, evictions and rebuilds by kind",
                  labelnames=("kind",))
        m.gauge("repro_shm_segments", "Live shared-memory segments")
        m.gauge("repro_shm_bytes", "Bytes resident in shared-memory segments")
        m.counter("repro_wire_messages_total", "Frames sent",
                  labelnames=("scope",))
        m.counter("repro_wire_bytes_total",
                  "Frame bytes sent (header+meta+buffers)",
                  labelnames=("scope",))
        m.counter("repro_walk_cache_events_total",
                  "Phase-1 walk-table cache lookups by result",
                  labelnames=("result",))
        m.counter("repro_dispatcher_respawns_total",
                  "Worker respawns / host failures charged to the breaker",
                  labelnames=("pool",))
        m.gauge("repro_breaker_open",
                "1 while a dispatcher pool's circuit breaker is open",
                labelnames=("pool",))
        m.counter("repro_degraded_dispatch_total",
                  "Jobs degraded to in-process execution (breaker open)")
        m.counter("repro_retries_scheduled_total",
                  "Transient-failure retries scheduled")
        m.counter("repro_journal_appends_total",
                  "Durable journal records appended")
        m.counter("repro_shm_attaches_total",
                  "Shared-segment descriptor handouts")
        native.record_kernel_info(m)

    def render_metrics(self) -> str:
        """``GET /metrics``: bridge the dict-view surfaces into gauges,
        then render the whole registry as Prometheus text.

        Native counters/histograms (queue transitions, queue delay, wire
        bytes, stage latency, walk cache, respawns) accumulate in the
        registry on their hot paths; the surfaces that stayed dict-first
        (segment stats, catalog stats, breaker state, journal) are read
        here, at scrape time, so the page is consistent without making
        every dict write pay for a second bookkeeping scheme.
        """
        m = self.metrics
        counts = self.queue.counts()
        m.gauge("repro_queue_depth").set(counts[QUEUED])
        jobs_g = m.gauge("repro_queue_jobs", labelnames=("state",))
        for state, n in counts.items():
            jobs_g.labels(state=state).set(n)
        seg = self.segment_stats()
        m.gauge("repro_shm_segments").set(seg.get("segments", 0))
        m.gauge("repro_shm_bytes").set(seg.get("bytes", 0))
        cat_family = m.counter("repro_catalog_events_total",
                               labelnames=("kind",))
        for kind, n in self.catalog.stats.items():
            cat_family.labels(kind=kind).set_total(n)
        breaker_g = m.gauge("repro_breaker_open", labelnames=("pool",))
        if self._forked is not None:
            breaker_g.labels(pool="forked").set(
                1 if self._forked.circuit_open() else 0)
        if self._remote is not None:
            breaker_g.labels(pool="remote").set(
                1 if self._remote.circuit_open() else 0)
        m.counter("repro_retries_scheduled_total").labels().set_total(
            self._retries_scheduled)
        m.counter("repro_degraded_dispatch_total").labels().set_total(
            self._degraded_jobs)
        if self.journal is not None:
            m.counter("repro_journal_appends_total").labels().set_total(
                self.journal.appended)
        # Frames sent by code that named no scoped accumulator (the shared
        # process-wide WIRE) still belong on this engine's page when the
        # engine owns the process default registry; scoped senders already
        # wrote themselves in at add() time.
        if self.metrics is get_registry():
            frame.WIRE.snapshot()  # touch: materialize the lazy accumulator
        return m.render()

    def __enter__(self) -> "JobEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Ref:
    """A job-id stand-in for journal calls with no live :class:`Job`."""

    __slots__ = ("id",)

    def __init__(self, job_id: str):
        self.id = job_id
