#!/usr/bin/env python3
"""Benchmark of qclogic: one client in a closed loop, one job at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; qclogic is imported from ``src``.
Workloads: circuits, quotient, lattices, cli-cold (see README.md here).

``--trace 0`` starts :data:`STARTUPS` fresh interpreters one after another;
each sets up and then measures jobs of the workload for S / STARTUPS seconds,
so that no one process's memory layout or start-up decides the figures.  It
reports ``jobs_per_s`` and ``job_s.p50`` over the jobs of all of them,
``setup_s`` (the median start-up) and ``peak_rss_mib`` (the largest).
``--trace 1`` is a separate run that records spans around the benchmark's
calls into each qclogic layer, over rounds of one job of every workload, and
reports per-layer figures per round.

The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Details and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from procenv import HERE, ROOT, SRC, WORKLOADS, child_env

STARTUPS = 3
OUT = os.path.join(HERE, "out")
TIMEOUT_S = 170


class WorkerError(RuntimeError):
    pass


def _start(args: list[str], deadline: float) -> tuple[float, list[dict]]:
    """Run a fresh worker; return its set-up time and its JSON lines."""
    before = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            cwd=ROOT, env=child_env(ROOT), stdout=subprocess.PIPE,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker {args[0]} timed out")
    if proc.returncode != 0:
        raise WorkerError(f"worker {args[0]} exited {proc.returncode}")
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    if not lines or "ready" not in lines[0]:
        raise WorkerError(f"worker {args[0]} never became ready")
    return lines[0]["ready"] - before, lines


def untraced(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    setups, job_s, failures, attempted, failed, rss = [], [], [], 0, 0, []
    for startup in range(STARTUPS):
        setup_s, lines = _start(["measure", workload, str(seed), str(startup),
                                 str(seconds / STARTUPS)], deadline)
        measured = lines[-1]
        setups.append(setup_s)
        job_s += measured["job_s"]
        failures += lines[0]["failures"] + measured["failures"]
        attempted += measured["attempted"]
        failed += measured["failed"]
        rss.append(measured["peak_rss_mib"])
    metrics = {
        "jobs_per_s": (len(job_s) / sum(job_s) if job_s else 0.0, "jobs/s"),
        "job_s.p50": (statistics.median(job_s) if job_s else 0.0, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (max(rss), "MiB"),
    }
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail = {"setups_s": setups, "job_s": job_s, "failures": failures}
    return result, detail


def traced(seed: int, seconds: float, deadline: float, trace_file: str) -> tuple[dict, dict]:
    _, lines = _start(["trace", str(seed), str(seconds), trace_file], deadline)
    measured = lines[-1]
    failures = lines[0]["failures"] + measured["failures"]
    result = {"correct": not failures, "attempted": measured["attempted"],
              "failed": measured["failed"], "metrics": measured["metrics"]}
    detail = {"rounds": measured["rounds"], "job_s": measured["job_s"],
              "failures": failures, "trace_file": trace_file}
    return result, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "qclogic", "__init__.py")):
        print(f"error: no qclogic sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        if args.trace:
            result, detail = traced(args.seed, args.seconds, deadline, stem + "-spans.json")
        else:
            result, detail = untraced(args.workload, args.seed, args.seconds, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(stem + ".json", "w") as fh:
        json.dump({"args": vars(args), "result": result, **detail}, fh, indent=1)
    for failure in detail["failures"]:
        print("check failed:", failure, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
