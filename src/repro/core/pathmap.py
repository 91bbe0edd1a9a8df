"""Fragments, the pathMap, and the (spillable) fragment store.

Phase 1 (Alg. 1) replaces runs of local edges with coarse objects the paper
calls *paths* (between two odd boundary vertices — the "OB-pair" that acts as
a single coarse edge at the next level) and *cycles* (anchored at an even
boundary vertex or an internal vertex). We call both **fragments**.

A fragment's body is a sequence of *items*, each either a raw graph edge or a
reference to a lower-level fragment traversed forward or backward. This is
exactly the paper's book-keeping "persisted to disk" in Phase 1 and consumed
by Phase 3's recursive unrolling; :class:`FragmentStore` keeps it in memory
by default and can spill bodies to disk (``spill_dir``), mirroring the
paper's design that only the pathMap *metadata* stays resident.

Item encoding — the **ItemArray**, one packed ``int64 (n, 4)`` NumPy array
per body, columns ``(tag, ref, dst, forward)``:

``(ITEM_EDGE, eid, dst, fwd)``
    Raw undirected edge ``eid`` traversed so that it *ends* at vertex ``dst``
    (``fwd`` records the traversal direction; nothing downstream reads it
    for edges, but keeping the row uniform lets every body share one dtype).
``(ITEM_FRAG, fid, dst, forward)``
    Lower-level path fragment ``fid`` traversed toward ``dst``; ``forward``
    is 1 when traversed from its ``src`` to its ``dst``.

The implied junction sequence of a fragment is ``src`` followed by the
``dst`` column; for cycles the last ``dst`` equals ``src``. The packed form
is what makes the data plane columnar end-to-end: slicing, reversal and
rotation are array ops, spills write raw buffers, and a whole body crosses
the process-executor pickle boundary as a single buffer instead of ``n``
tuples. :func:`as_items` normalizes the legacy tuple form (3-tuples for
edges, 4-tuples for fragment refs) at the API boundary, so hand-built test
bodies keep working.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "ITEM_EDGE",
    "ITEM_FRAG",
    "KIND_PATH",
    "KIND_CYCLE",
    "as_items",
    "empty_items",
    "Fragment",
    "FragmentBatch",
    "FragmentStore",
    "PathMap",
    "make_fid",
]

ITEM_EDGE = 0
ITEM_FRAG = 1

KIND_PATH = "path"
KIND_CYCLE = "cycle"

_KINDS = (KIND_PATH, KIND_CYCLE)  # index = wire encoding in batch pickles


def empty_items() -> np.ndarray:
    """A zero-row ItemArray."""
    return np.empty((0, 4), dtype=np.int64)


def as_items(items) -> np.ndarray:
    """Normalize a fragment body to the packed ``(n, 4) int64`` ItemArray.

    Accepts an ItemArray (returned as-is, re-typed if needed) or the legacy
    list of item tuples — ``(ITEM_EDGE, eid, dst)`` /
    ``(ITEM_FRAG, fid, dst, forward)``; edge tuples get ``forward = 1``.
    """
    if isinstance(items, np.ndarray):
        if items.ndim != 2 or items.shape[1] != 4:
            raise ValueError(f"ItemArray must be (n, 4); got {items.shape}")
        return items.astype(np.int64, copy=False)
    out = np.empty((len(items), 4), dtype=np.int64)
    for i, it in enumerate(items):
        out[i, 0] = it[0]
        out[i, 1] = it[1]
        out[i, 2] = it[2]
        out[i, 3] = int(it[3]) if len(it) > 3 else 1
    return out


# Structured fragment-id packing: fid = ((level+1) << 52) | (pid << 32) | seq.
# A partition runs Phase 1 at most once per merge level, so (level, pid, seq)
# — with seq counting that run's fragments — is globally unique *without any
# shared counter*. Every executor backend (serial, thread, process) therefore
# mints bit-identical fids, which is what makes circuits reproducible across
# backends and lets out-of-process Phase-1 runs allocate ids independently.
_FID_LEVEL_SHIFT = 52
_FID_PID_SHIFT = 32


def make_fid(level: int, pid: int, seq: int) -> int:
    """Deterministic, coordination-free fragment id for (level, pid, seq)."""
    if not (0 <= pid < (1 << (_FID_LEVEL_SHIFT - _FID_PID_SHIFT))):
        raise ValueError(f"pid {pid} out of fid range")
    if not (0 <= seq < (1 << _FID_PID_SHIFT)):
        raise ValueError(f"fragment seq {seq} out of fid range")
    return ((level + 1) << _FID_LEVEL_SHIFT) | (pid << _FID_PID_SHIFT) | seq


@dataclass
class Fragment:
    """One local path or cycle found by Phase 1.

    Attributes
    ----------
    fid:
        Globally unique fragment id (assigned by :class:`FragmentStore`).
    kind:
        ``"path"`` (OB→OB; becomes a coarse edge) or ``"cycle"``.
    level:
        Merge-tree level at which Phase 1 created it.
    pid:
        Partition that created it.
    src, dst:
        Endpoints; equal for cycles.
    items:
        The body as an ItemArray (see module docstring). May be ``None``
        when the body has been spilled to disk — fetch through the store,
        not directly.
    n_edges:
        Number of *raw* edges the fragment expands to (cached so memory
        accounting and sanity checks never force a load from disk).
    """

    fid: int
    kind: str
    level: int
    pid: int
    src: int
    dst: int
    items: np.ndarray | None
    n_edges: int

    def junctions(self) -> list[int]:
        """The vertex sequence at this fragment's own level (src first)."""
        if self.items is None:
            raise ValueError(f"fragment {self.fid} body is spilled; use the store")
        return [self.src] + self.items[:, 2].tolist()


class FragmentBatch:
    """Picklable per-(partition, level) fragment sink for one Phase-1 run.

    Duck-types the :class:`FragmentStore` surface Phase 1 touches
    (:meth:`new_fragment` and :meth:`get(...).n_edges <get>`), but assigns
    structured ids via :func:`make_fid` and buffers the fragments locally so
    the run can execute in a worker process and travel back through a pickle.
    The engine's commit hook then :meth:`adopts <FragmentStore.adopt>` the
    batch into the global store in pid order — the only store mutation point.

    The batch pickles *columnar*: all bodies concatenate into one packed
    ItemArray plus an ``(k, 7)`` metadata table, so the worker→parent copy is
    a few raw buffers regardless of how many fragments the run produced.

    ``known_edges`` maps previously-registered fragment ids (the coarse
    OB-pair edges entering this level) to their raw-edge counts, the one
    piece of store metadata Phase 1 reads for fragments it did not create.
    """

    def __init__(self, pid: int, level: int, known_edges: dict[int, int] | None = None):
        self.pid = pid
        self.level = level
        self.fragments: list[Fragment] = []
        self._known = dict(known_edges or {})
        self._by_fid: dict[int, Fragment] = {}
        # Range-check (level, pid) once; per-fragment ids are base + seq.
        self._fid_base = make_fid(level, pid, 0)

    def new_fragment(
        self, kind: str, level: int, pid: int, src: int, dst: int, items,
        n_edges: int,
    ) -> Fragment:
        """Register a fragment under a structured (level, pid, seq) fid."""
        if kind not in _KINDS:
            raise ValueError(f"bad fragment kind {kind!r}")
        if kind == KIND_CYCLE and src != dst:
            raise ValueError("cycle fragments must have src == dst")
        seq = len(self.fragments)
        if seq >= (1 << _FID_PID_SHIFT):
            raise ValueError(f"fragment seq {seq} out of fid range")
        frag = Fragment(self._fid_base + seq, kind, level, pid, src, dst,
                        as_items(items), n_edges)
        self.fragments.append(frag)
        self._by_fid[frag.fid] = frag
        return frag

    def replay(self, fragments: list[Fragment],
               by_fid: dict[int, Fragment]) -> None:
        """Append the fragments of an identical earlier run, as they are.

        Trusted bulk path for incremental repair: ``fragments`` were minted
        by a batch with this batch's ``(pid, level)`` and the same inputs,
        in order, so their structured fids are exactly the ones
        :meth:`new_fragment` would assign here (``by_fid`` indexes them).
        Fragments are never mutated once minted, so sharing them is safe.
        """
        if self.fragments:
            raise ValueError("replay needs an empty batch")
        if fragments and fragments[0].fid != self._fid_base:
            raise ValueError("replayed fragments belong to another node")
        self.fragments.extend(fragments)
        self._by_fid.update(by_fid)

    def get(self, fid: int) -> Fragment:
        """Metadata lookup: batch-local fragments, else known prior paths."""
        frag = self._by_fid.get(fid)
        if frag is not None:
            return frag
        # A stub carrying the only field Phase 1 reads for prior fragments.
        return Fragment(fid, KIND_PATH, -1, -1, -1, -1, None, self._known[fid])

    # ---- columnar pickling -------------------------------------------------
    def __getstate__(self) -> dict:
        frags = self.fragments
        k = len(frags)
        meta = np.empty((k, 7), dtype=np.int64)
        for i, f in enumerate(frags):
            meta[i] = (f.fid, _KINDS.index(f.kind), f.level, f.pid, f.src,
                       f.dst, f.n_edges)
        lengths = np.fromiter(
            (f.items.shape[0] for f in frags), dtype=np.int64, count=k
        )
        packed = (
            np.concatenate([f.items for f in frags]) if k else empty_items()
        )
        return {
            "pid": self.pid,
            "level": self.level,
            "known": self._known,
            "meta": meta,
            "lengths": lengths,
            "packed": packed,
        }

    def __setstate__(self, state: dict) -> None:
        self.pid = state["pid"]
        self.level = state["level"]
        self._known = state["known"]
        self.fragments = []
        self._by_fid = {}
        self._fid_base = make_fid(self.level, self.pid, 0)
        meta, lengths, packed = state["meta"], state["lengths"], state["packed"]
        bounds = np.cumsum(lengths)[:-1] if lengths.size else lengths
        bodies = np.split(packed, bounds) if lengths.size else []
        for row, items in zip(meta, bodies):
            fid, kind_ix, level, pid, src, dst, n_edges = row.tolist()
            frag = Fragment(fid, _KINDS[kind_ix], level, pid, src, dst,
                            items, n_edges)
            self.fragments.append(frag)
            self._by_fid[fid] = frag


class FragmentStore:
    """Registry of fragments with optional disk spill of bodies.

    With ``spill_dir`` set, :meth:`spill` writes a fragment's ItemArray to
    ``<spill_dir>/frag_<fid>.npy`` — a raw ``.npy`` buffer dump, no
    per-element encoding — and drops it from memory: the paper's "persist
    the mapping to disk ... allows the sets L and I to be removed to
    conserve memory". :meth:`items_of` transparently loads spilled bodies.
    """

    def __init__(self, spill_dir: str | os.PathLike | None = None):
        self._frags: dict[int, Fragment] = {}
        self._next = 0
        self.spill_dir = os.fspath(spill_dir) if spill_dir is not None else None
        if self.spill_dir is not None:
            os.makedirs(self.spill_dir, exist_ok=True)
        #: Total raw edges across registered fragments (diagnostics). Note
        #: fragments nest, so this exceeds the graph's edge count; the sum
        #: over *cycle* fragments alone equals it.
        self.total_edges = 0
        # Per-level registry of fids whose bodies may still be in memory —
        # spill_level() drains from here instead of scanning every fragment
        # ever registered (which made it O(total fragments) *per level*).
        self._unspilled_by_level: dict[int, list[int]] = {}
        # The store is shared by all partition threads of a run (in a real
        # cluster each machine has its own disk; here one registry stands in
        # for all of them), so registration/spill must be thread-safe.
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        # A lock is not picklable; the store otherwise is (fragment bodies are
        # raw arrays). Needed so a full RunContext can travel back from a
        # scenario fan-out worker process.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._frags)

    def __contains__(self, fid: int) -> bool:
        return fid in self._frags

    def new_fragment(
        self, kind: str, level: int, pid: int, src: int, dst: int, items,
        n_edges: int,
    ) -> Fragment:
        """Register a fragment and assign it the next fid."""
        if kind not in _KINDS:
            raise ValueError(f"bad fragment kind {kind!r}")
        if kind == KIND_CYCLE and src != dst:
            raise ValueError("cycle fragments must have src == dst")
        items = as_items(items)
        with self._lock:
            frag = Fragment(self._next, kind, level, pid, src, dst, items, n_edges)
            self._frags[frag.fid] = frag
            self._next += 1
            self.total_edges += n_edges
            self._unspilled_by_level.setdefault(level, []).append(frag.fid)
        return frag

    def adopt(self, frag: Fragment) -> Fragment:
        """Register a pre-built fragment (e.g. from a :class:`FragmentBatch`).

        The fragment keeps its structured fid; ids minted by
        :func:`make_fid` cannot collide with each other, and ``_next`` is
        bumped past them so mixed sequential allocation stays safe.
        """
        with self._lock:
            if frag.fid in self._frags:
                raise ValueError(f"fragment {frag.fid} already registered")
            self._frags[frag.fid] = frag
            self._next = max(self._next, frag.fid + 1)
            self.total_edges += frag.n_edges
            if frag.items is not None:
                self._unspilled_by_level.setdefault(frag.level, []).append(frag.fid)
        return frag

    def get(self, fid: int) -> Fragment:
        """Fragment metadata by id (body may be spilled)."""
        return self._frags[fid]

    def items_of(self, fid: int) -> np.ndarray:
        """Fragment body (ItemArray), loading from the spill dir if needed."""
        frag = self._frags[fid]
        if frag.items is not None:
            return frag.items
        return np.load(self._spill_path(fid))

    def spill(self, fid: int) -> None:
        """Persist the body of ``fid`` to disk and free it from memory.

        Thread-safe: concurrent spills of the same fragment (partitions
        spill their level's fragments independently) write once.
        """
        if self.spill_dir is None:
            raise ValueError("store was created without a spill_dir")
        with self._lock:
            frag = self._frags[fid]
            items = frag.items
        if items is None:
            return
        # Write first, clear after: a concurrent spill writes identical
        # bytes (benign), and items_of never sees a cleared body without a
        # complete file behind it. The record is replaced, not mutated:
        # fragments are immutable once minted, so a repair cache sharing
        # this one keeps its body.
        np.save(self._spill_path(fid), items, allow_pickle=False)
        with self._lock:
            frag = self._frags[fid]
            if frag.items is not None:
                self._frags[fid] = replace(frag, items=None)

    def spill_level(self, level: int) -> int:
        """Spill every in-memory body created at ``level``; returns count.

        Drains the per-level unspilled index, so repeated calls (the commit
        hook spills after every batch) cost O(new fragments at that level),
        not O(all fragments ever registered).
        """
        with self._lock:
            candidates = self._unspilled_by_level.pop(level, [])
            targets = [
                fid for fid in candidates if self._frags[fid].items is not None
            ]
        for fid in targets:
            self.spill(fid)
        return len(targets)

    def all_fragments(self) -> list[Fragment]:
        """All registered fragments (metadata records)."""
        return list(self._frags.values())

    def _spill_path(self, fid: int) -> str:
        assert self.spill_dir is not None
        return os.path.join(self.spill_dir, f"frag_{fid}.npy")


def _empty_ob_paths() -> np.ndarray:
    return np.empty((0, 3), dtype=np.int64)


def _empty_fids() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


@dataclass
class PathMap:
    """Per-partition output of one Phase-1 run (Alg. 1's ``pathMap``).

    ``ob_paths`` are the coarse OB-pair edges handed to the next level;
    ``anchored_cycles`` are cycle fragments waiting to be spliced into the
    final circuit by Phase 3 (EB cycles, plus internal-vertex cycles that
    found no same-level pivot — the multi-component generalization noted in
    DESIGN.md).
    """

    pid: int
    level: int
    #: Path fragments as coarse edges: ``int64 (k, 3)`` rows ``(src, dst, fid)``.
    ob_paths: np.ndarray = field(default_factory=_empty_ob_paths)
    #: Raw-edge weight of each ``ob_paths`` row (``int64 (k,)``), aligned by
    #: index — together they form the next level's CoarseTable.
    ob_path_edges: np.ndarray = field(default_factory=_empty_fids)
    #: Cycle fragment ids pending Phase-3 splicing (``int64 (c,)``).
    anchored_cycles: np.ndarray = field(default_factory=_empty_fids)
    #: Count of internal-vertex cycles merged into other fragments (stats).
    n_merged_cycles: int = 0
    #: Count of trivial (zero-edge) EB tours skipped (stats).
    n_trivial: int = 0
