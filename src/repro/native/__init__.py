"""Native kernels: build ``kernels.c`` once, load it through ctypes.

The Phase-1 walk (:mod:`repro.core.phase1`) and the LDG partitioner's BFS
order and placement loop (:mod:`repro.partitioning.ldg`) are scalar loops
over flat int64 tables. ``kernels.c`` holds C versions of them; the Python
loops stay as the oracles and as the fallback when no C compiler is
present.

Build: the first :func:`lib` call in a process compiles ``kernels.c`` with
the system C compiler (``cc``) into ``<cache>/kernels-<hash>.so``, where
``<cache>`` is ``$XDG_CACHE_HOME/repro-euler/native`` (default
``~/.cache/repro-euler/native``; a per-user directory under the system temp
dir if that is not writable) and ``<hash>`` covers the source and the
compiler flags. The compiler writes a private temp file that is then moved
into place with :func:`os.replace`, so concurrent first builds (forked
dispatchers, parallel test runs) each load a complete library and never a
half-written one. Later processes only ``dlopen`` the cached file.

Any failure — no compiler, a compile error, an unwritable cache, a failed
load — leaves :func:`lib` returning ``None`` for the rest of the process,
and the callers run their Python loops; :func:`status` says why.
ctypes releases the GIL for the duration of every kernel call.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

__all__ = ["addr", "kernel_impls", "lib", "record_kernel_info", "status"]

SOURCE = Path(__file__).with_name("kernels.c")
#: ``-ffp-contract=off`` keeps the LDG score arithmetic exactly NumPy's.
CFLAGS = ("-O2", "-Wall", "-Werror", "-ffp-contract=off", "-fPIC", "-shared")

_INT64 = np.dtype(np.int64)
_UINT8 = np.dtype(np.uint8)
_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
_SIGNATURES = {
    "run_phase1": [_I64, _I64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _I64,
                   _PTR, _I64, _PTR, _PTR, _I64, _PTR, _PTR, _PTR, _PTR,
                   _PTR, _PTR, _PTR, _PTR],
    "bfs_order": [_I64, _PTR, _PTR, _PTR, _PTR],
    "ldg_partition": [_I64, _I64, _I64, _PTR, _PTR, _PTR, _PTR, _PTR],
}

_lock = threading.Lock()
_state: dict = {"loaded": False, "lib": None, "path": None, "error": None}


def _cache_dirs() -> list[Path]:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return [
        Path(base) / "repro-euler" / "native",
        Path(tempfile.gettempdir()) / f"repro-euler-{os.getuid()}" / "native",
    ]


def _build(cc: str, source: bytes, target: Path) -> None:
    """Compile into a temp file beside ``target``, then move it in place."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=target.stem + ".", suffix=".tmp",
                               dir=target.parent)
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *CFLAGS, "-o", tmp, "-x", "c", "-"], input=source,
            capture_output=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{cc} failed: {proc.stderr.decode(errors='replace')[-2000:]}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load() -> tuple[ctypes.CDLL | None, str | None, str | None]:
    source = SOURCE.read_bytes()
    cc = shutil.which("cc") or shutil.which("gcc")
    digest = hashlib.sha256(source + " ".join(CFLAGS).encode()).hexdigest()
    name = f"kernels-{digest[:16]}.so"
    errors = []
    for cache in _cache_dirs():
        target = cache / name
        try:
            if not target.exists():
                if cc is None:
                    return None, None, "no C compiler found"
                _build(cc, source, target)
            dll = ctypes.CDLL(str(target))
            for fn, argtypes in _SIGNATURES.items():
                getattr(dll, fn).argtypes = argtypes
                getattr(dll, fn).restype = _I64
            return dll, str(target), None
        except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
            errors.append(f"{target}: {exc}")
    return None, None, "; ".join(errors)


def lib() -> ctypes.CDLL | None:
    """The loaded kernel library, or ``None`` when it cannot be built."""
    if not _state["loaded"]:
        with _lock:
            if not _state["loaded"]:
                dll, path, error = _load()
                _state.update(lib=dll, path=path, error=error, loaded=True)
    return _state["lib"]


def status() -> dict:
    """``{"available", "path", "error"}`` for the kernel library."""
    dll = lib()
    return {"available": dll is not None, "path": _state["path"],
            "error": _state["error"]}


def kernel_impls() -> dict[str, str]:
    """Which implementation each native-capable stage runs in this process."""
    impl = "native" if lib() is not None else "python"
    return {"phase1": impl, "partition": impl}


def record_kernel_info(registry) -> None:
    """Set ``repro_kernel_info{stage,impl}`` to 1 for the implementation
    each stage runs (and 0 for the other)."""
    gauge = registry.gauge(
        "repro_kernel_info",
        "1 for the kernel implementation each stage runs in this process",
        labelnames=("stage", "impl"),
    )
    for stage, impl in kernel_impls().items():
        for candidate in ("native", "python"):
            gauge.labels(stage=stage, impl=candidate).set(
                1 if candidate == impl else 0)


def addr(array) -> int:
    """The data address of a contiguous int64 (or uint8 flag) array, as a
    ctypes argument; anything else would be misread by the kernels."""
    if array.dtype not in (_INT64, _UINT8) or not array.flags.c_contiguous:
        raise ValueError(
            f"kernel arrays must be contiguous int64/uint8, got {array.dtype}"
            f" (contiguous={array.flags.c_contiguous})")
    return array.__array_interface__["data"][0]
