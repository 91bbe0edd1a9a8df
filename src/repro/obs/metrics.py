"""One metrics registry for the whole stack: counters, gauges, histograms.

Every subsystem used to keep its own ad-hoc stats dict (``wire_stats()``,
three ``supervisor_stats()``, ``queue.counts()``, catalog counters, ...).
This module is the single pane of glass those surfaces now feed:

* :class:`MetricsRegistry` — a named collection of typed metrics.
  Registration is idempotent (``registry.counter(name, ...)`` returns the
  existing family), children are cached per label set, and the hot path
  (``child.inc()`` / ``child.observe()``) is one small lock hold — cheap
  enough for per-frame wire accounting, which already paid exactly that
  under the old ``WireStats``.
* **Prometheus text rendering** (:meth:`MetricsRegistry.render`) in the
  0.0.4 exposition format, served by ``GET /metrics`` on both front ends,
  plus :func:`parse_prometheus_text` so tests and the CI scrape gate can
  validate what they scraped without a client library.
* **Cross-process aggregation**: :meth:`MetricsRegistry.state` /
  :func:`diff_state` / :meth:`MetricsRegistry.merge_state` turn a worker's
  counter+histogram increments into a picklable delta that rides home in
  the job result dict (through the fork pipe or the remote ``REF1``
  frame) and folds into the coordinator's registry — worker-side walk
  cache hits and stage timings show up on the coordinator's ``/metrics``.

Scoping: :func:`get_registry` returns the process-global registry (the
default sink — one process, one exporter). Code that must not share
counters (a test, a second in-process engine) builds its own
:class:`MetricsRegistry` and threads it through, or installs it as the
*ambient* registry with :func:`use_registry` so deep call sites
(phase-1 walk cache, shm attach) pick it up via :func:`ambient` without
parameter plumbing. ``REPRO_METRICS=0`` swaps the global registry for
:data:`NULL_REGISTRY`, whose instruments are no-ops.

Naming convention (see ARCHITECTURE.md "Observability"): every family is
``repro_<subsystem>_<what>[_<unit>][_total]`` — ``_total`` for counters,
base SI units (seconds, bytes) for measurements, label keys for the
dimension that would otherwise fork the name (``scope`` for wire
counters, ``stage`` for latency histograms, ``state`` for job counts).
"""

from __future__ import annotations

import contextvars
import math
import os
import re
import threading
from bisect import bisect_left
from contextlib import contextmanager

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "REQUIRED_FAMILIES",
    "ambient",
    "diff_state",
    "get_registry",
    "parse_prometheus_text",
    "set_registry",
    "use_registry",
]

#: Default latency buckets (seconds): sub-millisecond superstep phases up
#: to minute-scale soak jobs, roughly 2.5x apart.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Families ``GET /metrics`` must always expose (the CI scrape gate and
#: the front-end parity test both pin this set). The engine pre-creates
#: each so a fresh server renders the full schema at zero.
REQUIRED_FAMILIES = (
    "repro_queue_depth",
    "repro_queue_jobs",
    "repro_queue_delay_seconds",
    "repro_jobs_total",
    "repro_http_responses_total",
    "repro_stage_seconds",
    "repro_catalog_events_total",
    "repro_shm_segments",
    "repro_shm_bytes",
    "repro_wire_messages_total",
    "repro_wire_bytes_total",
    "repro_walk_cache_events_total",
    "repro_dispatcher_respawns_total",
    "repro_breaker_open",
    "repro_kernel_info",
)

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _escape(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_str(labelnames: tuple, key: tuple, extra: str = "") -> str:
    pairs = [f'{n}="{_escape(v)}"' for n, v in zip(labelnames, key)]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


class _Child:
    """One labeled series of a metric family (shared lock with siblings)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0.0


class _CounterChild(_Child):
    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self.value += n

    def set_total(self, value: float) -> None:
        """Forward-only set — for bridging an external monotonic source."""
        with self._lock:
            if value > self.value:
                self.value = value


class _GaugeChild(_Child):
    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self.value += n

    def dec(self, n: float = 1.0) -> None:
        with self._lock:
            self.value -= n


class _HistChild:
    __slots__ = ("_lock", "buckets", "counts", "sum", "count")

    def __init__(self, lock: threading.Lock, buckets: tuple):
        self._lock = lock
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # last slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1


class _Metric:
    """A metric family: name, help, label schema, children per label set."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple):
        if not _NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple, object] = {}

    def _make_child(self):
        raise NotImplementedError

    def labels(self, **labels):
        """The child series for this exact label set (created on demand)."""
        try:
            key = tuple(str(labels[n]) for n in self.labelnames)
        except KeyError as exc:
            raise ValueError(
                f"{self.name} needs labels {self.labelnames}, got "
                f"{sorted(labels)}"
            ) from exc
        if len(labels) != len(self.labelnames):
            raise ValueError(
                f"{self.name} needs labels {self.labelnames}, got "
                f"{sorted(labels)}"
            )
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    def _default(self):
        """The label-less child (only valid with an empty label schema)."""
        if self.labelnames:
            raise ValueError(f"{self.name} is labeled {self.labelnames}")
        return self.labels()

    def snapshot(self) -> dict:
        with self._lock:
            items = list(self._children.items())
        return {key: child.value for key, child in items}

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help or self.name}",
                 f"# TYPE {self.name} {self.kind}"]
        with self._lock:
            items = list(self._children.items())
        for key, child in items:
            lines.append(
                f"{self.name}{_label_str(self.labelnames, key)} "
                f"{_fmt(child.value)}"
            )
        return lines


class Counter(_Metric):
    """Monotonic event count. ``inc`` on the family needs no labels."""

    kind = "counter"

    def _make_child(self):
        return _CounterChild(self._lock)

    def inc(self, n: float = 1.0) -> None:
        self._default().inc(n)

    @property
    def value(self) -> float:
        return self._default().value


class Gauge(_Metric):
    """A value that can go anywhere (depth, bytes resident, breaker state)."""

    kind = "gauge"

    def _make_child(self):
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, n: float = 1.0) -> None:
        self._default().inc(n)

    def dec(self, n: float = 1.0) -> None:
        self._default().dec(n)

    @property
    def value(self) -> float:
        return self._default().value


class Histogram(_Metric):
    """Cumulative-bucket distribution (the Prometheus histogram contract)."""

    kind = "histogram"

    def __init__(self, name: str, help: str, labelnames: tuple,
                 buckets: tuple = DEFAULT_BUCKETS):
        super().__init__(name, help, labelnames)
        self.buckets = tuple(sorted(float(b) for b in buckets))

    def _make_child(self):
        return _HistChild(self._lock, self.buckets)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def snapshot(self) -> dict:
        with self._lock:
            items = list(self._children.items())
        return {
            key: {"count": c.count, "sum": c.sum, "counts": tuple(c.counts)}
            for key, c in items
        }

    def render(self) -> list[str]:
        lines = [f"# HELP {self.name} {self.help or self.name}",
                 f"# TYPE {self.name} {self.kind}"]
        with self._lock:
            items = list(self._children.items())
        for key, child in items:
            acc = 0
            for bound, n in zip(self.buckets, child.counts):
                acc += n
                le = 'le="' + _fmt(bound) + '"'
                lines.append(
                    f"{self.name}_bucket"
                    f"{_label_str(self.labelnames, key, le)} {acc}"
                )
            acc += child.counts[-1]
            inf_le = 'le="+Inf"'
            lines.append(
                f"{self.name}_bucket"
                f"{_label_str(self.labelnames, key, inf_le)} {acc}"
            )
            label_part = _label_str(self.labelnames, key)
            lines.append(f"{self.name}_sum{label_part} {_fmt(child.sum)}")
            lines.append(f"{self.name}_count{label_part} {child.count}")
        return lines


class MetricsRegistry:
    """A process- or component-scoped collection of metric families."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name, help, labelnames, **kw):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, tuple(labelnames), **kw)
                self._metrics[name] = metric
                return metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"{name} already registered as {metric.kind}, not {cls.kind}"
            )
        if metric.labelnames != tuple(labelnames):
            raise ValueError(
                f"{name} already registered with labels {metric.labelnames}"
            )
        return metric

    def counter(self, name: str, help: str = "",
                labelnames: tuple = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: tuple = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "", labelnames: tuple = (),
                  buckets: tuple = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames,
                                   buckets=buckets)

    def families(self) -> list[str]:
        with self._lock:
            return list(self._metrics)

    def snapshot(self) -> dict:
        """``{family: {label_values_tuple: value-or-hist-dict}}`` (JSON-unsafe
        keys; for in-process inspection — the wire format is :meth:`state`)."""
        with self._lock:
            metrics = list(self._metrics.values())
        return {m.name: m.snapshot() for m in metrics}

    def render(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        with self._lock:
            metrics = list(self._metrics.values())
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"

    # -- cross-process deltas ------------------------------------------------

    def state(self) -> dict:
        """Picklable raw values of every counter and histogram.

        Gauges are deliberately excluded: a worker's instantaneous gauge
        has no meaningful sum with the coordinator's. Feed two states to
        :func:`diff_state` and the result to :meth:`merge_state`.
        """
        counters: dict = {}
        hists: dict = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for m in metrics:
            if isinstance(m, Counter):
                counters[m.name] = {
                    "labelnames": m.labelnames, "children": m.snapshot(),
                }
            elif isinstance(m, Histogram):
                hists[m.name] = {
                    "labelnames": m.labelnames, "buckets": m.buckets,
                    "children": m.snapshot(),
                }
        return {"counters": counters, "histograms": hists}

    def merge_state(self, delta: dict) -> None:
        """Fold a :func:`diff_state` delta into this registry (additively)."""
        if not delta:
            return
        for name, entry in delta.get("counters", {}).items():
            family = self.counter(name, labelnames=entry["labelnames"])
            for key, value in entry["children"].items():
                if value:
                    family.labels(**dict(zip(family.labelnames, key))).inc(value)
        for name, entry in delta.get("histograms", {}).items():
            family = self.histogram(name, labelnames=entry["labelnames"],
                                    buckets=entry["buckets"])
            for key, h in entry["children"].items():
                if not h["count"] and not h["sum"]:
                    continue
                child = family.labels(**dict(zip(family.labelnames, key)))
                counts = h["counts"]
                with child._lock:
                    if len(counts) == len(child.counts):
                        for i, n in enumerate(counts):
                            child.counts[i] += n
                    else:  # bucket layout drifted across versions: keep totals
                        child.counts[-1] += h["count"]
                    child.sum += h["sum"]
                    child.count += h["count"]


def diff_state(before: dict, after: dict) -> dict:
    """What happened between two :meth:`MetricsRegistry.state` snapshots."""
    out: dict = {"counters": {}, "histograms": {}}
    for name, entry in after.get("counters", {}).items():
        prev = before.get("counters", {}).get(name, {}).get("children", {})
        children = {
            key: value - prev.get(key, 0.0)
            for key, value in entry["children"].items()
            if value - prev.get(key, 0.0)
        }
        if children:
            out["counters"][name] = {
                "labelnames": entry["labelnames"], "children": children,
            }
    for name, entry in after.get("histograms", {}).items():
        prev = before.get("histograms", {}).get(name, {}).get("children", {})
        children = {}
        for key, h in entry["children"].items():
            p = prev.get(key)
            if p is None:
                if h["count"] or h["sum"]:
                    children[key] = dict(h)
                continue
            d_count = h["count"] - p["count"]
            d_sum = h["sum"] - p["sum"]
            if d_count or d_sum:
                children[key] = {
                    "count": d_count, "sum": d_sum,
                    "counts": tuple(a - b for a, b in
                                    zip(h["counts"], p["counts"])),
                }
        if children:
            out["histograms"][name] = {
                "labelnames": entry["labelnames"],
                "buckets": entry["buckets"], "children": children,
            }
    if not out["counters"] and not out["histograms"]:
        return {}
    return out


# ---------------------------------------------------------------------------
# Null registry (REPRO_METRICS=0 and the overhead-guard baseline)
# ---------------------------------------------------------------------------


class _NullChild:
    def inc(self, n: float = 1.0) -> None: pass
    def dec(self, n: float = 1.0) -> None: pass
    def set(self, value: float) -> None: pass
    def set_total(self, value: float) -> None: pass
    def observe(self, value: float) -> None: pass
    value = 0.0


_NULL_CHILD = _NullChild()


class _NullMetric:
    labelnames: tuple = ()

    def labels(self, **labels): return _NULL_CHILD
    def inc(self, n: float = 1.0) -> None: pass
    def dec(self, n: float = 1.0) -> None: pass
    def set(self, value: float) -> None: pass
    def observe(self, value: float) -> None: pass
    def snapshot(self) -> dict: return {}
    value = 0.0


_NULL_METRIC = _NullMetric()


class _NullRegistry(MetricsRegistry):
    """All instruments are shared no-ops; rendering is empty."""

    def __init__(self):
        super().__init__()

    def counter(self, name, help="", labelnames=()): return _NULL_METRIC
    def gauge(self, name, help="", labelnames=()): return _NULL_METRIC
    def histogram(self, name, help="", labelnames=(),
                  buckets=DEFAULT_BUCKETS): return _NULL_METRIC
    def families(self): return []
    def snapshot(self): return {}
    def render(self): return "\n"
    def state(self): return {}
    def merge_state(self, delta): pass


#: The shared no-op registry (``REPRO_METRICS=0``, overhead baselines).
NULL_REGISTRY = _NullRegistry()


_global_lock = threading.Lock()
_global_registry: MetricsRegistry | None = None


def get_registry() -> MetricsRegistry:
    """The process-global registry (:data:`NULL_REGISTRY` when disabled)."""
    global _global_registry
    if _global_registry is None:
        with _global_lock:
            if _global_registry is None:
                if os.environ.get("REPRO_METRICS", "1") == "0":
                    _global_registry = NULL_REGISTRY
                else:
                    _global_registry = MetricsRegistry()
    return _global_registry


def set_registry(registry: MetricsRegistry | None) -> None:
    """Replace the process-global registry (tests; ``None`` resets lazily)."""
    global _global_registry
    with _global_lock:
        _global_registry = registry


_ambient: contextvars.ContextVar = contextvars.ContextVar(
    "repro_metrics_ambient", default=None
)


def ambient() -> MetricsRegistry:
    """The ambient registry: the innermost :func:`use_registry`, else global.

    Deep call sites with no natural registry parameter (phase-1 walk
    cache, shm attach) record here, so an engine that installs its own
    registry around a job run captures them without plumbing.
    """
    reg = _ambient.get()
    return reg if reg is not None else get_registry()


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Install ``registry`` as the ambient sink for the ``with`` body."""
    token = _ambient.set(registry)
    try:
        yield registry
    finally:
        _ambient.reset(token)


# ---------------------------------------------------------------------------
# Exposition-format validation (tests + the CI scrape gate)
# ---------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"        # metric name
    r"(\{[^{}]*\})?"                       # optional label block
    r"\s+(\S+)"                            # value
    r"(\s+-?\d+)?$"                        # optional timestamp
)
_LABELS_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"(?:,|$)'
)


def parse_prometheus_text(text: str) -> dict:
    """Validate exposition text; ``{family: {"type", "samples"}}``.

    Raises :class:`ValueError` on any malformed line — an unparseable
    ``/metrics`` page must fail the CI gate loudly, not scrape as empty.
    """
    families: dict[str, dict] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                raise ValueError(f"line {lineno}: malformed comment {line!r}")
            fam = families.setdefault(parts[2],
                                      {"type": "untyped", "samples": 0})
            if parts[1] == "TYPE":
                kind = parts[3].strip() if len(parts) > 3 else ""
                if kind not in ("counter", "gauge", "histogram",
                                "summary", "untyped"):
                    raise ValueError(
                        f"line {lineno}: unknown metric type {kind!r}"
                    )
                fam["type"] = kind
            continue
        if line.startswith("#"):
            continue  # free-form comment
        m = _SAMPLE_RE.match(line)
        if not m:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name, label_block, value = m.group(1), m.group(2), m.group(3)
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: bad sample value {value!r}"
                ) from None
        if label_block:
            inner = label_block[1:-1]
            if inner and sum(
                len(m0.group(0)) for m0 in _LABELS_RE.finditer(inner)
            ) != len(inner):
                raise ValueError(
                    f"line {lineno}: malformed labels {label_block!r}"
                )
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            stripped = name[: -len(suffix)] if name.endswith(suffix) else None
            if stripped and families.get(stripped, {}).get("type") == "histogram":
                base = stripped
                break
        fam = families.setdefault(base, {"type": "untyped", "samples": 0})
        fam["samples"] += 1
    return families
