"""The repository benchmark: one runner for every workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solve-rmat500k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run that wraps each layer's entry points from
the benchmark's own files and reports per-layer metrics per operation,
plus the tracing overhead. ``--workload all`` runs every workload both
ways in child processes and prints each metric as
``<workload>/<metric> <value> <unit>``.

A single-workload run prints its metrics the same way, then a ``# diag``
line (host probe, server exit codes, leaked segments) and, last, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from measure import ROOT, SRC, host_probe

WORKLOADS = ("solve-rmat500k", "serve-watch")


def _run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    if name == "solve-rmat500k":
        import solve

        return solve.run(seed, seconds, trace)
    import serve

    return serve.run(seed, seconds, trace)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_one(args) -> int:
    probe = host_probe()
    out = _run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed = out["attempted"], out["failed"]
    if args.trace:
        from layers import PER_LAYER

        metrics = {name: {"value": out["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        if "e2e" not in out:
            print(f"{args.workload}: no operation completed", file=sys.stderr)
            return 1
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in out["e2e"].items()}
        extra = dict(out.get("tail", {}))
        extra["ok_share"] = (out["passed"] / attempted, "ratio")
        for name, (value, unit) in extra.items():
            print(f"{args.workload}/{name} {_fmt(value)} {unit}")
    for name, m in metrics.items():
        print(f"{args.workload}/{name} {_fmt(m['value'])} {m['unit']}")
    print("# diag " + json.dumps({"host": probe, **out.get("diag", {})}))
    print(json.dumps({"correct": bool(out["correct"]), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                print(line)
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"] or result["failed"]:
                print(f"{name} --trace {trace}: FAILED\n{proc.stderr}", file=sys.stderr)
                status = 1
            else:
                print(f"{name} --trace {trace}: correct, "
                      f"{result['attempted']} operations")
            sys.stdout.flush()
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"benchmark: no program sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
