"""Typed run artifact: configuration, stage products, and the report.

:class:`RunContext` is the single object the pipeline stages communicate
through and the audit artifact benchmarks read: ``Setup`` fills the
partitioning/merge-tree products, the engine run fills ``run_stats`` and the
fragment ``store``, and ``Reconstruct`` fills the circuit. The derived
:class:`ExecutionReport` (kept for its figure-series accessors and the
established tests/benchmarks) is assembled on demand from those fields.

``SCHEMA_VERSION`` stamps every serialized artifact
(:mod:`repro.bench.report_io`) so downstream analysis can detect layout
changes across commits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..bsp.accounting import (
    CAT_COPY_SINK,
    CAT_COPY_SRC,
    CAT_CREATE,
    CAT_PHASE1,
    RunStats,
)
from ..core.circuit import EulerCircuit
from ..core.merge_tree import MergeTree
from ..core.pathmap import FragmentStore
from ..graph.graph import Graph
from ..graph.metagraph import MetaGraph
from ..graph.partition import PartitionedGraph

__all__ = ["SCHEMA_VERSION", "RunConfig", "RunContext", "ExecutionReport"]

#: Version of the run-artifact layout (RunContext fields / report JSON).
#: Bump on any field addition, removal or meaning change.
#: v3: columnar data plane — the fragment-store summary gained
#: ``n_item_rows`` (resident packed ItemArray rows).
#: v4: scenario layer — artifacts carry an ``artifact`` kind tag
#: (``"run"`` | ``"scenario"``); scenario artifacts nest one run artifact
#: per sub-run (see :func:`repro.bench.report_io.scenario_to_dict`).
#: v5: job orchestration — a new ``"job"`` artifact kind wraps a scenario
#: artifact with job metadata (id, priority, state), queue/run timings and
#: the pass history (see :func:`repro.bench.report_io.job_to_dict`).
#: v6: run artifacts record ``kernels`` — which implementation (``"native"``
#: | ``"python"``) each native-capable stage ran.
SCHEMA_VERSION = 6


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run, resolved before any stage executes."""

    n_parts: int = 4
    partitioner: str = "ldg"
    strategy: str = "eager"
    matching: str = "greedy"
    seed: int = 0
    #: Executor backend name (``serial`` | ``thread`` | ``process`` |
    #: ``remote``); ``None`` keeps the historical default (serial iff
    #: ``workers == 1``).
    executor: str | None = None
    #: Worker count for the thread/process backends.
    workers: int = 1
    spill_dir: Any = None
    validate: bool = False
    verify: bool = False
    check_input: bool = True
    #: Externally-owned :class:`~repro.bsp.executors.SharedPool` (or any
    #: object with a ``session()`` factory). When set, the run executes its
    #: supersteps on the shared pool instead of building a private backend —
    #: the job engine's amortization path. Never serialized; not picklable.
    pool: Any = None
    #: Precomputed derived artifacts from the graph catalog (a mapping with
    #: optional ``partition_map`` / ``eulerize_plan`` entries). Consumers
    #: validate each entry against the actual graph and config before use
    #: and silently recompute on mismatch, so stale or foreign entries can
    #: never change a run's result.
    derived: Any = None
    #: Cooperative cancellation token (a
    #: :class:`~repro.pipeline.cancel.CancelToken`, or anything with a
    #: ``check(where)`` that raises :class:`~repro.errors.RunCancelledError`
    #: and a ``should_stop`` flag). Checked at superstep boundaries and
    #: between scenario sub-runs. Never serialized; stripped before any
    #: process fan-out — all checks run in the submitting process.
    cancel: Any = None
    #: Deterministic fault-injection plan (a
    #: :class:`~repro.faults.FaultPlan`, or ``None`` for the universal
    #: no-faults default). Checked at the same safe points as ``cancel``;
    #: faults only abort or delay a run, never change its result. The job
    #: engine re-arms the plan per retry attempt so recovered runs execute
    #: clean.
    faults: Any = None
    #: Superstep state transport: ``"pickle"`` (portable default) or
    #: ``"shm"`` — child→parent states ship as shared-memory segment
    #: descriptors (:mod:`repro.bsp.shm`) instead of pickled byte blobs.
    #: ``None`` resolves to pickle; ``"shm"`` silently falls back to
    #: pickle when POSIX shared memory is unavailable, so a config is
    #: portable either way. Both transports are bit-parity equivalent.
    transport: str | None = None
    #: Per-task wire codec for the superstep executor
    #: (:data:`repro.bsp.transport.TRANSPORTS`: ``"memory"`` | ``"pickle"``
    #: | ``"shm"`` | ``"socket"``). Orthogonal to ``transport`` above (which
    #: ships whole child→parent states): this round-trips each
    #: ``SuperstepTask``/result triple through a real encode/decode on the
    #: serial and thread backends, and is fixed by construction on the
    #: process (pipe pickle) and remote (socket frame) backends. ``None``
    #: means by-reference. All codecs are bit-parity equivalent.
    task_transport: str | None = None
    #: Worker host addresses for the ``remote`` executor backend — a
    #: ``"host:port,host:port"`` string or a list of ``(host, port)``
    #: pairs. Ignored by every other backend.
    hosts: Any = None
    #: Process-local incremental-repair session (a
    #: :class:`~repro.deltas.RepairSession`, or ``None`` for the
    #: universal cold-run default). When set, ``Setup`` reuses the
    #: session's partition map and builds its repair program, which
    #: replays cached Phase-1 fragments for partitions a graph delta did
    #: not touch. Purely an accelerator: a repaired run is bit-identical
    #: to a cold one by construction. Never serialized; stripped before
    #: any process fan-out or wire crossing — repair only accelerates
    #: in-process runs.
    repair: Any = None

    @property
    def transport_name(self) -> str:
        """The resolved transport (``"shm"`` only when actually usable)."""
        if self.transport in (None, "pickle"):
            return "pickle"
        if self.transport != "shm":
            raise ValueError(
                f"unknown transport {self.transport!r}; use 'pickle' or 'shm'"
            )
        from ..bsp.shm import shm_available

        return "shm" if shm_available() else "pickle"

    @property
    def executor_name(self) -> str:
        """The resolved backend name (single source of truth in bsp)."""
        if self.pool is not None:
            return getattr(self.pool, "name", "pool")
        from ..bsp.executors import resolve_executor_name

        return resolve_executor_name(self.executor, self.workers)


@dataclass
class RunContext:
    """Products of a pipeline run, stage by stage (the audit artifact).

    Field → figure mapping (see ARCHITECTURE.md for the full table):
    ``run_stats`` feeds Figs. 5–9 through the :class:`ExecutionReport`
    accessors; ``setup_seconds``/``phase3_seconds`` complete the Fig. 5
    total; ``deferred_resident_longs`` is the Fig. 8 leaf-memory overlay for
    the §5 deferred strategy; ``tree`` renders the Fig. 3 stage DAG.
    """

    config: RunConfig
    schema_version: int = SCHEMA_VERSION
    #: Input graph summary.
    n_vertices: int = 0
    n_edges: int = 0

    # ---- Setup products ----------------------------------------------------
    #: Actual partition count (requested count clamped to the vertex count).
    n_parts: int = 0
    partitioned: PartitionedGraph | None = None
    metagraph: MetaGraph | None = None
    tree: MergeTree | None = None
    setup_seconds: float = 0.0
    #: Longs resident on leaf machines per level (deferred strategy only).
    deferred_resident_longs: list[int] = field(default_factory=list)

    # ---- SuperstepProgram (BSP run) products -------------------------------
    run_stats: RunStats = field(default_factory=RunStats)
    store: FragmentStore | None = None
    final_states: dict = field(default_factory=dict)

    # ---- Reconstruct products ----------------------------------------------
    circuit: EulerCircuit | None = None
    phase3_seconds: float = 0.0
    verified: bool = False

    @property
    def report(self) -> ExecutionReport:
        """The figure-series view of this run (assembled from the fields)."""
        return ExecutionReport(
            n_parts=self.n_parts,
            strategy=self.config.strategy,
            partitioner=self.config.partitioner,
            matching=self.config.matching,
            run_stats=self.run_stats,
            tree=self.tree if self.tree is not None else MergeTree(n_parts=0),
            phase3_seconds=self.phase3_seconds,
            setup_seconds=self.setup_seconds,
            deferred_resident_longs=list(self.deferred_resident_longs),
        )

    @classmethod
    def for_graph(cls, graph: Graph, config: RunConfig) -> "RunContext":
        return cls(config=config, n_vertices=graph.n_vertices, n_edges=graph.n_edges)


@dataclass
class ExecutionReport:
    """Everything the benchmarks need about one run.

    The raw per-superstep records live in ``run_stats``; the convenience
    accessors below produce exactly the series of the paper's figures.
    """

    n_parts: int
    strategy: str
    partitioner: str
    matching: str
    run_stats: RunStats
    tree: MergeTree
    #: Seconds spent in Phase 3 (not part of the BSP run).
    phase3_seconds: float = 0.0
    #: Seconds spent partitioning + planning (outside the BSP run).
    setup_seconds: float = 0.0
    #: Longs resident on leaf machines per level (deferred strategy only).
    deferred_resident_longs: list[int] = field(default_factory=list)

    @property
    def n_supersteps(self) -> int:
        """Coordination cost; the paper reports ``ceil(log2 n) + 1``."""
        return self.run_stats.n_supersteps

    @property
    def total_seconds(self) -> float:
        """Fig. 5 "Total Time" analogue (BSP wall + setup + Phase 3)."""
        return self.run_stats.total_seconds + self.setup_seconds + self.phase3_seconds

    @property
    def compute_seconds(self) -> float:
        """Fig. 5 "Compute Time" analogue (user code inside supersteps)."""
        return self.run_stats.compute_seconds

    def time_split_rows(self) -> list[dict]:
        """Fig. 6 rows: per (level, partition), seconds per category."""
        rows = []
        for step in self.run_stats.records:
            for rec in step:
                if not rec.timings:
                    continue
                rows.append(
                    {
                        "level": rec.superstep,
                        "pid": rec.pid,
                        CAT_CREATE: rec.timings.get(CAT_CREATE, 0.0),
                        CAT_COPY_SRC: rec.timings.get(CAT_COPY_SRC, 0.0),
                        CAT_COPY_SINK: rec.timings.get(CAT_COPY_SINK, 0.0),
                        CAT_PHASE1: rec.timings.get(CAT_PHASE1, 0.0),
                    }
                )
        return rows

    def phase1_points(self) -> list[dict]:
        """Fig. 7 points: expected ``|B|+|I|+|L|`` vs observed Phase-1 secs."""
        pts = []
        for step in self.run_stats.records:
            for rec in step:
                if "phase1_cost" not in rec.census:
                    continue
                pts.append(
                    {
                        "level": rec.superstep,
                        "pid": rec.pid,
                        "expected_cost": rec.census["phase1_cost"],
                        "observed_seconds": rec.timings.get(CAT_PHASE1, 0.0),
                    }
                )
        return pts

    def state_by_level(self) -> list[dict]:
        """Fig. 8 series (cumulative / average Longs per level)."""
        return self.run_stats.state_by_level()

    def census_rows(self) -> list[dict]:
        """Fig. 9 rows (per level & partition vertex/edge census)."""
        return self.run_stats.census_table()

    def stage_dag(self) -> str:
        """Text rendering of the execution DAG (the paper's Fig. 3 analogue).

        One stage per superstep: which partitions ran Phase 1 at that level,
        and which child→parent state transfers crossed the following
        barrier, mirroring the Spark stage DAG the paper screenshots.
        """
        lines = []
        for s, step in enumerate(self.run_stats.records):
            ran = sorted(r.pid for r in step if "phase1_tour" in r.timings)
            lines.append(
                f"stage {s} (level {s}): Phase1 on partitions "
                f"{ran if ran else '[]'}"
            )
            transfers = sorted(
                (m.child, m.parent)
                for m in (self.tree.levels[s] if s < len(self.tree.levels) else [])
            )
            if transfers:
                arrows = ", ".join(f"P{c}->P{p}" for c, p in transfers)
                lines.append(f"  barrier; shuffle: {arrows}")
            else:
                lines.append("  barrier; done" if s == len(self.run_stats.records) - 1
                             else "  barrier")
        return "\n".join(lines)
