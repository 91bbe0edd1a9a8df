"""Shared measurement helpers: paths, statistics, memory, host diagnostics."""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Run-time files (server catalogs, span dumps) live here, inside the
#: checkout, and are removed when a run ends.
WORK_ROOT = ROOT / ".bench_work"


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def make_workdir(tag: str) -> Path:
    path = WORK_ROOT / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only when no other run still uses it
    except OSError:
        pass


def percentile_ms(seconds, q: float) -> float | None:
    """The ``q`` percentile in ms, or ``None`` when fewer than ten samples
    lie beyond it (a tail read off a handful of points is noise)."""
    n = len(seconds)
    if n == 0 or n * (1.0 - q) < 10:
        return None
    ordered = sorted(seconds)
    return 1000.0 * ordered[min(n - 1, math.ceil(q * n) - 1)]


def median_ms(seconds) -> float:
    return 1000.0 * statistics.median(seconds)


def mean_ms(seconds) -> float:
    """The gated per-operation time.

    Host speed on a shared machine flips between a fast and a slow state
    every few seconds, so operation times fall in two modes whose mix
    changes from run to run. A median of a few such times jumps between
    the modes; the mean moves only with the mix. Over the same ten
    solve-rmat500k runs on a 2-core shared host, IQR/median of the per-run value was 0.215 for the
    median and 0.13 for the mean.
    """
    return 1000.0 * statistics.fmean(seconds)


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def shm_segments() -> set[str]:
    """Names of the program's POSIX shared-memory segments now present."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro_")}
    except OSError:
        return set()


def host_probe() -> dict:
    """Pure-Python loop and first touch of 256 MiB, in a fresh interpreter.

    A diagnostic printed beside the metrics; never used to rescale them.
    Run as a child so its memory never counts toward this process's peak.
    """
    out = subprocess.run(
        [sys.executable, str(HERE / "probe.py")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(out.stdout)
