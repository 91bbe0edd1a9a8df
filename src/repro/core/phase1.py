"""Phase 1 (Alg. 1): edge-disjoint maximal local paths and cycles.

Given a partition's *live local graph* at some merge level — whose edges are
raw graph edges and/or coarse OB-pair edges produced at lower levels — this
module finds:

1. maximal local paths between odd-degree boundary vertices (Lemma 1), each
   registered as a ``path`` fragment and handed to the next level as a coarse
   OB-pair edge;
2. maximal local cycles from every even-degree boundary vertex (Lemma 2),
   registered as anchored ``cycle`` fragments for Phase-3 splicing;
3. cycles from remaining internal vertices, merged (``mergeInto``) into a
   same-run fragment at a shared *pivot* vertex (Lemma 3); cycles with no
   same-run pivot — possible only when the live local graph is disconnected,
   our generalization beyond the paper's connected-partition assumption —
   are kept as anchored cycles instead.

The traversal uses the classic next-unvisited-edge pointer so the whole run
is ``O(|B| + |I| + |L|)`` per partition, the complexity the paper claims in
§3.5 and that the Fig. 7 benchmark verifies empirically.

Data plane: the live local edges arrive as an **EdgeTable** — one packed
``int64 (m, 4)`` array with columns ``(u, v, kind, ref)`` — and the remote
degrees as an ``int64 (r, 2)`` table (see :func:`edge_table` /
:func:`remote_deg_table`, which also normalize the legacy tuple/dict forms).
The adjacency build is fully vectorized over the table's columns (sorted
vertex index, CSR half-edge offsets, per-slot transition tables), all kept
as contiguous int64 arrays. The walk itself — all three stages, the
``mergeInto`` pivot bookkeeping and the final attachment splice — runs in
one call to the native kernel (``run_phase1`` in
``repro/native/kernels.c``, see :mod:`repro.native`), which writes the
spliced walks as one flat sequence of packed ``edge_index << 1 |
direction`` values plus per-root kind/src/dst/length records. The Python
walk (:func:`_walk_python`) produces exactly the same arrays; it is the
oracle the kernel is tested against and the fallback when no C compiler is
available. The run's ItemArrays are then *decoded from the EdgeTable
columns in one batched vectorized gather per run* (each fragment's body is
a view into the decoded block), so no per-edge Python tuples exist anywhere
in the pipeline.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .. import native
from ..errors import InvariantViolation
from ..obs import ambient
from .pathmap import ITEM_FRAG, KIND_CYCLE, KIND_PATH, FragmentStore, PathMap

__all__ = [
    "LocalEdge",
    "Phase1Stats",
    "run_phase1",
    "edge_table",
    "empty_edge_table",
    "remote_deg_table",
    "EDGE_RAW",
    "EDGE_COARSE",
]

#: Edge kind: a raw graph edge; ``ref`` is the graph edge id. Equals
#: ``ITEM_EDGE`` so the EdgeTable kind column doubles as the ItemArray tag.
EDGE_RAW = 0
#: Edge kind: a coarse OB-pair edge; ``ref`` is the fragment id and the
#: row's ``u`` is the fragment's ``src`` (so ``u -> v`` is *forward*).
#: Equals ``ITEM_FRAG`` for the same reason.
EDGE_COARSE = 1

#: Legacy alias: one live local edge as a ``(u, v, kind, ref)`` tuple.
#: The pipeline now moves EdgeTables; :func:`edge_table` converts.
LocalEdge = tuple


def empty_edge_table() -> np.ndarray:
    """A zero-row EdgeTable."""
    return np.empty((0, 4), dtype=np.int64)


def edge_table(local_edges) -> np.ndarray:
    """Normalize live local edges to the packed ``(m, 4) int64`` EdgeTable.

    Accepts an EdgeTable (returned as-is, re-typed if needed) or the legacy
    list of ``(u, v, kind, ref)`` tuples.
    """
    if isinstance(local_edges, np.ndarray):
        if local_edges.ndim != 2 or local_edges.shape[1] != 4:
            raise ValueError(f"EdgeTable must be (m, 4); got {local_edges.shape}")
        return local_edges.astype(np.int64, copy=False)
    return np.array(local_edges, dtype=np.int64).reshape(-1, 4)


def remote_deg_table(remote_degree) -> np.ndarray:
    """Normalize remote degrees to a sorted ``(r, 2) int64`` table.

    Rows are ``(vertex, degree)`` with ``degree > 0`` (zero/negative rows
    are dropped), sorted by vertex. Accepts such a table or the legacy
    ``{vertex: degree}`` dict.
    """
    if isinstance(remote_degree, np.ndarray):
        if remote_degree.size == 0:
            return np.empty((0, 2), dtype=np.int64)
        tab = remote_degree.astype(np.int64, copy=False).reshape(-1, 2)
    else:
        tab = np.fromiter(
            (x for vd in remote_degree.items() for x in vd), dtype=np.int64,
            count=2 * len(remote_degree),
        ).reshape(-1, 2)
    tab = tab[tab[:, 1] > 0]
    return tab[np.argsort(tab[:, 0], kind="stable")]


class _WalkTables:
    """Immutable walk tables for one live-local-graph topology.

    Everything the walk reads — CSR offsets, per-slot transition tables,
    boundary classification — is a pure function of the EdgeTable's
    ``(u, v)`` columns and the remote-degree table, so it can be shared
    across runs. All tables are contiguous int64 arrays (``is_ob`` is
    uint8), the layout the native kernel reads in place; the walk mutates
    only per-run cursors and a visited bitmap of its own.
    """

    __slots__ = (
        "m", "dense", "size", "vert_ids", "local_deg", "ptr0", "adj_end",
        "slot_enc", "slot_next", "eu_i", "bnd_ids", "bnd_deg", "ob", "eb",
        "is_ob", "n_local", "n_internal",
    )


def _build_walk_tables(edges: np.ndarray, rdeg: np.ndarray) -> _WalkTables:
    """Build the flat-array CSR walk tables for one live local graph.

    CSR half-edge layout: slots ``offsets[i]:offsets[i+1]`` list the
    incident half-edges of local vertex ``i`` in input order (a self loop
    contributes two consecutive slots, so degree math holds).

    Vertex indexing has two modes. *Dense* (the pipeline's case: vertex
    ids are graph ids, bounded by |V|): local index = global id, no remap
    at all. *Sparse* (arbitrary ids, e.g. hand-built tests): a sorted
    unique id table with searchsorted compaction. Both produce identical
    walks — local indices ascend in global-id order either way.
    """
    m = int(edges.shape[0])
    eu = edges[:, 0]
    ev = edges[:, 1]
    bnd_ids = rdeg[:, 0]
    bnd_deg = rdeg[:, 1]
    id_space = 1 + int(
        max(
            eu.max() if m else -1,
            ev.max() if m else -1,
            bnd_ids.max() if bnd_ids.size else -1,
        )
    )
    min_id = int(
        min(
            eu.min() if m else id_space,
            ev.min() if m else id_space,
            bnd_ids.min() if bnd_ids.size else id_space,
        )
    ) if id_space else 0
    # Dense when the id space is proportionate to the live size (or trivially
    # small); the 2^16 floor covers small graphs without letting a tiny
    # partition of a multi-million-id graph pay O(id_space) allocations.
    dense = min_id >= 0 and id_space <= max(
        1 << 16, 8 * (2 * m + int(bnd_ids.size)) + 1024
    )

    half_vertex = np.empty(2 * m, dtype=np.int64)
    if dense:
        vert_ids = None
        size = id_space
        half_vertex[0::2] = eu
        half_vertex[1::2] = ev
        bnd_loc = bnd_ids
    else:
        vert_ids = np.unique(np.concatenate((eu, ev, bnd_ids)))
        size = int(vert_ids.size)
        half_vertex[0::2] = np.searchsorted(vert_ids, eu)
        half_vertex[1::2] = np.searchsorted(vert_ids, ev)
        bnd_loc = np.searchsorted(vert_ids, bnd_ids)

    # Stable sort groups half-edges by vertex while preserving edge order
    # (radix sort on int keys, O(m)).
    order = np.argsort(half_vertex, kind="stable")
    local_deg = np.bincount(half_vertex, minlength=size)
    offsets = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(local_deg, out=offsets[1:])

    # Per-slot walk tables, fully precomputed: consuming sorted half-edge
    # slot ``p`` appends ``slot_enc[p]`` (packed ``edge << 1 | forward``)
    # and moves to local vertex ``slot_next[p]``, whose global id is the
    # emitted junction. The walk then does nothing but indexed reads — no
    # id lookups, no direction branch.
    edge_of = order >> 1  # sorted slot -> edge index
    u_side = (order & 1) == 0
    eu_loc = half_vertex[0::2]
    ev_loc = half_vertex[1::2]

    t = _WalkTables()
    t.m = m
    t.dense = dense
    t.size = size
    t.vert_ids = vert_ids  # local index -> global id (None: identity)
    t.local_deg = local_deg
    t.bnd_ids = bnd_ids
    t.bnd_deg = bnd_deg
    # The packed value doubles as the visited key: edge index = enc >> 1.
    t.slot_enc = np.where(u_side, (edge_of << 1) | 1, edge_of << 1)
    t.slot_next = np.where(u_side, ev_loc[edge_of], eu_loc[edge_of])
    t.ptr0 = offsets[:-1]  # pristine next-unvisited cursors
    t.adj_end = offsets[1:]
    t.eu_i = np.ascontiguousarray(eu_loc)  # per-edge start (cycle stage)

    is_boundary = np.zeros(size, dtype=bool)
    is_boundary[bnd_loc] = True
    odd_deg = (local_deg & 1).astype(bool)
    is_ob = is_boundary & odd_deg
    t.is_ob = is_ob.view(np.uint8)
    # Local indices, ascending — which is global-id order in both modes.
    t.ob = np.flatnonzero(is_ob)
    t.eb = np.flatnonzero(is_boundary & ~odd_deg)
    t.n_local = (
        int(np.count_nonzero((local_deg > 0) | is_boundary)) if dense else size
    )
    t.n_internal = t.n_local - int(t.ob.size) - int(t.eb.size)
    return t


#: Walk-table cache: a BSP run re-enters Phase 1 with the *same* live local
#: graph whenever a partition's edge set survives a merge level unchanged,
#: and a serving workload replays identical partition topologies across
#: jobs on the same cataloged graph. Tables are content-keyed (sha256 of
#: the topology columns), kept per-thread (no locks on the hot path; forked
#: workers each grow their own), LRU-bounded, and only populated for small
#: tables where the build cost dominates the walk. Disable with
#: ``REPRO_PHASE1_TABLE_CACHE=0``.
_TABLE_CACHE_CAP = 32
_TABLE_CACHE_MAX_EDGES = 1 << 16
_tls = threading.local()


def _walk_tables(edges: np.ndarray, rdeg: np.ndarray) -> _WalkTables:
    """Cached :func:`_build_walk_tables` (content-addressed, per-thread)."""
    m = int(edges.shape[0])
    if (
        m > _TABLE_CACHE_MAX_EDGES
        or os.environ.get("REPRO_PHASE1_TABLE_CACHE", "1") == "0"
    ):
        return _build_walk_tables(edges, rdeg)
    digest = hashlib.sha256()
    digest.update(np.int64(m).tobytes())
    digest.update(np.ascontiguousarray(edges[:, :2]).tobytes())
    digest.update(np.ascontiguousarray(rdeg).tobytes())
    key = digest.digest()
    cache = getattr(_tls, "tables", None)
    if cache is None:
        cache = _tls.tables = OrderedDict()
    tables = cache.get(key)
    if tables is None:
        tables = _build_walk_tables(edges, rdeg)
        cache[key] = tables
        while len(cache) > _TABLE_CACHE_CAP:
            cache.popitem(last=False)
        _cache_counter("miss").inc()
    else:
        cache.move_to_end(key)
        _cache_counter("hit").inc()
    return tables


def _cache_counter(result: str):
    """Ambient-registry walk-table cache counter (hit/miss by label)."""
    return ambient().counter(
        "repro_walk_cache_events_total",
        "Phase-1 walk-table cache lookups by result",
        labelnames=("result",),
    ).labels(result=result)


@dataclass
class Phase1Stats:
    """Input census + outcome counts of one Phase-1 run (Figs. 7 and 9)."""

    n_live_vertices: int = 0
    n_internal: int = 0
    n_ob: int = 0
    n_eb: int = 0
    n_local_edges: int = 0
    n_paths: int = 0
    n_eb_cycles: int = 0
    n_iv_cycles_merged: int = 0
    n_iv_cycles_anchored: int = 0
    n_trivial: int = 0

    @property
    def phase1_cost(self) -> int:
        """The paper's per-partition cost term ``|B| + |I| + |L|``."""
        return self.n_ob + self.n_eb + self.n_internal + self.n_local_edges


def run_phase1(
    pid: int,
    level: int,
    local_edges,
    remote_degree,
    store: FragmentStore,
    validate: bool = False,
) -> tuple[PathMap, Phase1Stats]:
    """Run Alg. 1 on one partition's live local graph.

    Parameters
    ----------
    pid, level:
        Identity of the partition and merge level (recorded on fragments).
    local_edges:
        The live local edges as an EdgeTable (or legacy tuple list); every
        one is consumed.
    remote_degree:
        Remote half-edge degrees as an ``(r, 2)`` table (or legacy dict);
        vertices with a positive entry are *boundary* vertices. Vertices
        appearing neither here nor on any local edge do not exist at this
        level.
    store:
        Fragment registry that receives the new fragments.
    validate:
        When True, check Lemmas 1–2 on every walk and raise
        :class:`~repro.errors.InvariantViolation` on failure (used by tests;
        costs a few percent).

    Returns
    -------
    (pathmap, stats):
        The partition's :class:`~repro.core.pathmap.PathMap` for this level
        and the census/outcome counters.
    """
    edges = edge_table(local_edges)
    rdeg = remote_deg_table(remote_degree)

    # ---- local adjacency (flat-array CSR layout, content-cached) ----------
    # See _build_walk_tables for the layout; _walk_tables reuses the tables
    # when this topology was walked before (same partition across
    # supersteps, same graph across served jobs).
    t = _walk_tables(edges, rdeg)
    n_ob, n_eb = int(t.ob.size), int(t.eb.size)
    if validate and n_ob % 2 != 0:
        raise InvariantViolation(
            f"partition {pid} level {level}: odd number of OB vertices ({n_ob})"
        )

    walker = _walk_native if native.lib() is not None else _walk_python
    w = walker(t, validate, pid, level)
    stats = Phase1Stats(
        n_live_vertices=t.n_local,
        n_internal=t.n_internal,
        n_ob=n_ob,
        n_eb=n_eb,
        n_local_edges=t.m,
        n_paths=w.n_paths,
        n_eb_cycles=w.n_eb_cycles,
        n_iv_cycles_merged=w.n_merged,
        n_iv_cycles_anchored=w.n_anchored,
        n_trivial=w.n_trivial,
    )

    # ---- decode ItemArrays, register fragments ----------------------------
    # One *batched* vectorized decode for every fragment of the run: the
    # flat walk sequence indexes the EdgeTable, whose kind column *is* the
    # ItemArray tag column (EDGE_RAW == ITEM_EDGE, EDGE_COARSE ==
    # ITEM_FRAG) and whose ref carries over unchanged; per-fragment bodies
    # are then views into the one decoded block. This keeps the NumPy fixed
    # cost per *run*, not per fragment — partitions routinely produce tens
    # of thousands of tiny path fragments.
    seq = w.enc
    ks = seq >> 1
    decoded = np.empty((seq.size, 4), dtype=np.int64)
    decoded[:, 0] = edges[ks, 2]
    decoded[:, 1] = edges[ks, 3]
    decoded[:, 2] = w.dst
    decoded[:, 3] = seq & 1
    n_roots = int(w.lens.size)
    bounds = np.zeros(n_roots + 1, dtype=np.int64)
    np.cumsum(w.lens, out=bounds[1:])
    # Raw-edge weights: every root is non-empty, so reduceat is safe; coarse
    # items add their fragments' cached counts.
    is_frag = decoded[:, 0] == ITEM_FRAG
    n_frag_rows = (
        np.add.reduceat(is_frag.astype(np.int64), bounds[:-1])
        if n_roots
        else np.empty(0, dtype=np.int64)
    )
    extra_edges = np.zeros(n_roots, dtype=np.int64)
    frag_positions = np.flatnonzero(is_frag)
    if frag_positions.size:
        owners = np.searchsorted(bounds[1:], frag_positions, side="right")
        get = store.get
        weights = np.fromiter(
            (get(ref).n_edges for ref in decoded[frag_positions, 1].tolist()),
            dtype=np.int64, count=frag_positions.size,
        )
        np.add.at(extra_edges, owners, weights)
    n_edges_arr = w.lens - n_frag_rows + extra_edges

    ob_rows: list[tuple[int, int, int]] = []
    ob_edges: list[int] = []
    anchored: list[int] = []
    new_fragment = store.new_fragment
    bounds_l = bounds.tolist()
    for idx, (kind, src, dst, n_edges) in enumerate(zip(
        w.kinds.tolist(), w.srcs.tolist(), w.dsts.tolist(),
        n_edges_arr.tolist(),
    )):
        frag = new_fragment(
            _KINDS[kind], level, pid, src, dst,
            decoded[bounds_l[idx]:bounds_l[idx + 1]], n_edges,
        )
        if kind == _PATH:
            ob_rows.append((src, dst, frag.fid))
            ob_edges.append(n_edges)
        else:
            anchored.append(frag.fid)
    pathmap = PathMap(pid=pid, level=level)
    pathmap.ob_paths = np.array(ob_rows, dtype=np.int64).reshape(-1, 3)
    pathmap.ob_path_edges = np.array(ob_edges, dtype=np.int64)
    pathmap.anchored_cycles = np.array(anchored, dtype=np.int64)
    pathmap.n_merged_cycles = stats.n_iv_cycles_merged
    pathmap.n_trivial = stats.n_trivial
    return pathmap, stats


#: Root kinds as the walkers encode them (index into ``_KINDS``).
_PATH, _CYCLE = 0, 1
_KINDS = (KIND_PATH, KIND_CYCLE)


@dataclass
class _Walks:
    """One run's walks: the flat spliced sequence plus per-root records.

    ``enc`` holds packed ``edge << 1 | forward`` values and ``dst`` the
    parallel global junction ids, root after root (``lens`` apart). Both
    walkers produce exactly this, so they compare array for array.
    """

    enc: np.ndarray
    dst: np.ndarray
    kinds: np.ndarray
    srcs: np.ndarray
    dsts: np.ndarray
    lens: np.ndarray
    n_paths: int
    n_eb_cycles: int
    n_merged: int
    n_anchored: int
    n_trivial: int


#: Lemma violations by kernel error code (kernels.c ``P1_ERR_*``); the
#: oracle raises the same messages.
_LEMMA_ERRORS = {
    2: "Lemma 1 violated: path from OB {0} ended at non-OB {1}",
    3: "Lemma 1 violated: path from OB {0} returned to its start",
    4: "Lemma 2 violated: cycle from EB {0} ended at {1}",
    5: "Lemma 2 violated: internal cycle from {0} ended at {1}",
}


def _walk_native(t: _WalkTables, validate: bool, pid: int, level: int) -> _Walks:
    """The C kernel (``run_phase1`` in ``repro/native/kernels.c``)."""
    m = t.m
    out = np.empty((6, max(m, 1)), dtype=np.int64)
    counts = np.zeros(6, dtype=np.int64)
    info = np.zeros(9, dtype=np.int64)
    a = native.addr
    rc = native.lib().run_phase1(
        m, t.size, a(t.slot_enc), a(t.slot_next), a(t.ptr0), a(t.adj_end),
        a(t.eu_i), a(t.ob), t.ob.size, a(t.eb), t.eb.size,
        None if t.vert_ids is None else a(t.vert_ids), a(t.is_ob),
        int(validate), a(out[0]), a(out[1]), a(out[2]), a(out[3]), a(out[4]),
        a(out[5]), a(counts), a(info),
    )
    if rc:
        if rc in _LEMMA_ERRORS:
            raise InvariantViolation(_LEMMA_ERRORS[rc].format(*info.tolist()))
        if rc == 6:
            raise InvariantViolation(
                f"partition {pid} level {level}: Phase 1 left local edges "
                "unvisited"
            )
        if rc == 7:
            left = info[1:1 + int(info[0])].tolist()
            raise InvariantViolation(
                f"unspliced attachments remain at vertices {left}"
            )
        raise MemoryError("native Phase-1 kernel could not allocate")
    n_roots = int(counts[0])
    return _Walks(
        enc=out[0, :m], dst=out[1, :m], kinds=out[2, :n_roots],
        srcs=out[3, :n_roots], dsts=out[4, :n_roots], lens=out[5, :n_roots],
        n_paths=int(counts[1]), n_eb_cycles=int(counts[2]),
        n_merged=int(counts[3]), n_anchored=int(counts[4]),
        n_trivial=int(counts[5]),
    )


def _walk_python(t: _WalkTables, validate: bool, pid: int, level: int) -> _Walks:
    """The Python oracle: the same walks as the kernel, step for step.

    Also the fallback when the native library cannot be built.
    """
    m, dense = t.m, t.dense
    vert_l = range(t.size) if dense else t.vert_ids.tolist()
    local_deg = t.local_deg
    bnd_ids, bnd_deg = t.bnd_ids, t.bnd_deg
    slot_enc = t.slot_enc.tolist()
    slot_next = t.slot_next.tolist()
    slot_dst = slot_next if dense else t.vert_ids[t.slot_next].tolist()
    adj_end = t.adj_end.tolist()
    eu_i = t.eu_i.tolist()

    def remote_deg_of(v: int) -> int:
        i = int(np.searchsorted(bnd_ids, v))
        if i < bnd_ids.size and int(bnd_ids[i]) == v:
            return int(bnd_deg[i])
        return 0

    # Per-run mutable state: ``ptr`` (each vertex's next-unvisited cursor
    # into the flat slot sequence) and the visited bitmap.
    visited = bytearray(m)
    ptr = t.ptr0.tolist()

    def walk(
        start: int,
        # Default-arg binding makes the hot loop's lookups LOAD_FAST.
        ptr=ptr, adj_end=adj_end, visited=visited,
        slot_enc=slot_enc, slot_dst=slot_dst, slot_next=slot_next,
    ) -> tuple[list[int], list[int], int]:
        """Maximal traversal along unvisited local edges from ``start``.

        ``start`` and the returned end vertex are *local* indices; the
        returned packed edge sequence and parallel junction (dst) sequence
        use edge indices and global vertex ids respectively.
        """
        enc: list[int] = []
        dsts: list[int] = []
        e_append = enc.append
        d_append = dsts.append
        cur = start
        while True:
            end = adj_end[cur]
            p = ptr[cur]
            while p < end and visited[slot_enc[p] >> 1]:
                p += 1
            ptr[cur] = p
            if p == end:
                return enc, dsts, cur
            e = slot_enc[p]
            visited[e >> 1] = 1
            e_append(e)
            d_append(slot_dst[p])
            cur = slot_next[p]

    # ---- root bookkeeping for mergeInto ----------------------------------
    # Each OB path / EB cycle / orphan internal cycle is a *root*; internal
    # cycles with a pivot attach to a root and are spliced in a final pass.
    # Junction ownership (vertex -> first owning root) is a dict keyed by
    # global id; ``owner_get(v)`` returns -1 for unowned.
    roots: list[tuple] = []  # (kind, src, dst, enc, dsts)
    attachments: list[dict[int, list[tuple[list, list]]]] = []
    junction_owner: dict[int, int] = {}
    owner_get = junction_owner.get
    counts = {"paths": 0, "eb": 0, "merged": 0, "anchored": 0, "trivial": 0}

    def register(root_idx: int, src: int, dsts: list[int]) -> None:
        junction_owner.setdefault(src, root_idx)
        for dst in dsts:
            junction_owner.setdefault(dst, root_idx)

    def new_root(kind: int, src: int, dst: int, enc: list, dsts: list) -> None:
        idx = len(roots)
        roots.append((kind, src, dst, enc, dsts))
        attachments.append({})
        register(idx, src, dsts)

    # ---- 1) OB -> OB maximal paths (Alg. 1 lines 7-8) ---------------------
    # Each OB initiates exactly one walk (the paper's v.visited flag): an OB
    # that already served as the *endpoint* of an earlier path has no
    # unvisited edges left and yields an empty walk; an OB that *initiated*
    # may retain an even number of unvisited edges, which the internal-cycle
    # stage consumes (they can only form cycles once all parities are even).
    for vi in t.ob.tolist():
        v = vert_l[vi]
        enc, dsts, end_i = walk(vi)
        if not enc:
            continue
        if validate:
            end = vert_l[end_i]
            if local_deg[end_i] % 2 == 0 or remote_deg_of(end) == 0:
                raise InvariantViolation(_LEMMA_ERRORS[2].format(v, end))
            if end_i == vi:
                raise InvariantViolation(_LEMMA_ERRORS[3].format(v))
        new_root(_PATH, v, vert_l[end_i], enc, dsts)
        counts["paths"] += 1

    # ---- 2) EB cycles (lines 9-10) ----------------------------------------
    for vi in t.eb.tolist():
        enc, dsts, end_i = walk(vi)
        if not enc:
            counts["trivial"] += 1
            continue
        v = vert_l[vi]
        if validate and end_i != vi:
            raise InvariantViolation(
                _LEMMA_ERRORS[4].format(v, vert_l[end_i]))
        new_root(_CYCLE, v, v, enc, dsts)
        counts["eb"] += 1

    # ---- 3) internal-vertex cycles (lines 11-13) ---------------------------
    # ``bytearray.find(0, k)`` skips visited runs at C speed.
    k = visited.find(0)
    while k != -1:
        ui = eu_i[k]
        u = vert_l[ui]
        enc, dsts, end_i = walk(ui)
        if validate and end_i != ui:
            raise InvariantViolation(
                _LEMMA_ERRORS[5].format(u, vert_l[end_i]))
        # mergeInto: find a pivot junction shared with an existing root.
        pivot = None
        pivot_root = owner_get(u, -1)
        if pivot_root >= 0:
            pivot = u
        else:
            for dst in dsts:
                r = owner_get(dst, -1)
                if r >= 0:
                    pivot, pivot_root = dst, r
                    break
        if pivot is None:
            # Disconnected live local graph (generalization beyond the
            # paper's Lemma 3 assumption): keep as an anchored cycle.
            new_root(_CYCLE, u, u, enc, dsts)
            counts["anchored"] += 1
        else:
            rot_enc, rot_dsts = _rotate_cycle(u, enc, dsts, pivot)
            attachments[pivot_root].setdefault(pivot, []).append(
                (rot_enc, rot_dsts)
            )
            register(pivot_root, pivot, rot_dsts)
            counts["merged"] += 1
        k = visited.find(0, k)

    if validate and visited.count(0):
        raise InvariantViolation(
            f"partition {pid} level {level}: Phase 1 left local edges unvisited"
        )

    # ---- splice attachments into one flat walk per root -------------------
    flat_enc: list[int] = []
    flat_dst: list[int] = []
    lens: list[int] = []
    for idx, (_, src, _, enc, dsts) in enumerate(roots):
        enc, dsts = _flatten(src, enc, dsts, attachments[idx])
        lens.append(len(enc))
        flat_enc.extend(enc)
        flat_dst.extend(dsts)

    def col(i: int) -> np.ndarray:
        return np.array([r[i] for r in roots], dtype=np.int64)

    return _Walks(
        enc=np.array(flat_enc, dtype=np.int64),
        dst=np.array(flat_dst, dtype=np.int64),
        kinds=col(0), srcs=col(1), dsts=col(2),
        lens=np.array(lens, dtype=np.int64),
        n_paths=counts["paths"], n_eb_cycles=counts["eb"],
        n_merged=counts["merged"], n_anchored=counts["anchored"],
        n_trivial=counts["trivial"],
    )


def _rotate_cycle(
    src: int, enc: list, dsts: list, pivot: int
) -> tuple[list, list]:
    """Rotate a cycle walk so its junction sequence starts at ``pivot``."""
    if pivot == src:
        return enc, dsts
    try:
        i = dsts.index(pivot)
    except ValueError:
        raise InvariantViolation(
            f"pivot {pivot} not on cycle starting at {src}"
        ) from None
    return enc[i + 1:] + enc[: i + 1], dsts[i + 1:] + dsts[: i + 1]


def _flatten(
    src: int, enc: list, dsts: list, attach: dict[int, list[tuple[list, list]]]
) -> tuple[list, list]:
    """Expand pivot attachments into one flat walk (iterative).

    The no-attachment fast path (the overwhelmingly common case) returns the
    walk unchanged. Roots that absorbed internal cycles — at the merge
    tree's root that is one walk spanning most of the graph — are spliced
    *by segment*: candidate splice positions come from one vectorized
    ``isin`` of each walk's junction column against the attachment keys, and
    the runs between them are bulk list-``extend``s; only actual splice
    points (one per attached cycle, plus cheap stale repeats of the same
    vertices) run scalar code.
    """
    if not attach:
        return enc, dsts
    keys = np.fromiter(attach.keys(), dtype=np.int64, count=len(attach))
    out_enc: list = []
    out_dsts: list = []
    stack: list = []  # frames: [enc, dsts, hit_positions, hit_cursor, pos]

    def push(c_enc: list, c_dsts: list) -> None:
        hits = np.flatnonzero(
            np.isin(np.array(c_dsts, dtype=np.int64), keys)
        ).tolist()
        stack.append([c_enc, c_dsts, hits, 0, 0])

    def push_attach(v: int) -> None:
        cycles = attach.pop(v, None)
        if cycles:
            for c_enc, c_dsts in reversed(cycles):
                push(c_enc, c_dsts)

    push(enc, dsts)
    push_attach(src)
    while stack:
        top = stack[-1]
        c_enc, c_dsts, hits, hi, pos = top
        # Next live splice point (attachments already consumed are skipped).
        n_hits = len(hits)
        while hi < n_hits and (hits[hi] < pos or c_dsts[hits[hi]] not in attach):
            hi += 1
        top[3] = hi
        if hi >= n_hits:
            if pos < len(c_dsts):
                out_enc.extend(c_enc[pos:])
                out_dsts.extend(c_dsts[pos:])
            stack.pop()
            continue
        h = hits[hi]
        out_enc.extend(c_enc[pos:h + 1])
        out_dsts.extend(c_dsts[pos:h + 1])
        top[3] = hi + 1
        top[4] = h + 1
        push_attach(c_dsts[h])
    if attach:
        raise InvariantViolation(
            f"unspliced attachments remain at vertices {sorted(attach)[:8]}"
        )
    return out_enc, out_dsts
