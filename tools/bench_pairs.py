#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/bench_pairs.py --pr N [--parent REV] [--seed 31001]
        [--change TEXT] [--claim WORKLOAD/METRIC [--ratio R]]

Run it from anywhere inside a checkout.  The parent (``HEAD`` unless
``--parent`` names another revision) and the change, the working tree as
``git add -A`` would stage it, are each exported with ``git archive | tar -x``
into a temporary directory, so both run from fresh copies on the same file
system and compile their bytecode on their first start-up.  For every
workload in ``BENCHMARK.json``, each of ten pairs i runs

    python3 perfbench/run.py --workload W --seed S+i --seconds 20 --trace 0

from both roots, the parent first when i is even and the change first when i
is odd.  The run length (``run_seconds``) and the metric names, units,
directions and bounds (``end_to_end``) are read from ``BENCHMARK.json``;
nothing there or under ``perfbench/`` is written.  The result goes to
``BENCH_<N>.json`` at the root of the checkout, in the layout of
``BENCH_12.json``: per workload and metric, each side's runs with their
median and quartiles (``statistics.quantiles(values, n=4)``), the ratio of
the medians, how many pairs the change won, and whether the gap between the
medians exceeds the parent's interquartile range.  Each metric also records
``past_bound``, the change's median worse than the parent's by more than the
metric's bound, and ``unresolved``, the parent's interquartile range wider
than the bound while some parent run is at least as good as some change
run.  The metrics past their bound are printed to stderr.  With
``--claim WORKLOAD/METRIC`` the report's ``claim`` block names that metric
and ``met`` says whether the change won at least nine tenths of the pairs
and its median is better than the parent's by more than the parent's
interquartile range, and with ``--ratio R`` also by a factor of at least R
(the change's median over the parent's for a higher-is-better metric, the
parent's over the change's for a lower-is-better one).  The block carries
the numbers it was decided from: the factor, the pairs won, the gap
between the medians and the parent's interquartile range.  A workload or
metric ``BENCHMARK.json`` does not name is refused before anything runs.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"
PAIRS = 10
PAIRING = ("pair i runs the parent first when i is even and the change first when odd; "
           "quartiles are statistics.quantiles(values, n=4)")


def summarize(runs: list[float]) -> dict:
    """Median and quartiles of one side's runs, with the runs themselves."""
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": list(runs)}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """The paired verdict on one metric: ``change_wins`` counts the pairs in
    which the change is strictly better in the metric's direction."""
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    p, c = summarize(parent), summarize(change)
    sign = 1 if better == "higher" else -1
    return {
        "parent": p,
        "change": c,
        "change_over_parent": c["median"] / p["median"] if p["median"] else None,
        "change_wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        "pairs": len(parent),
        "median_gap_exceeds_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
    }


def against_bound(parent: list[float], change: list[float], better: str,
                  bound: float) -> dict:
    """Where one metric stands against its relative ``bound``.

    ``past_bound``: the change's median is worse than the parent's by more
    than ``bound`` times the parent's median.  ``unresolved``: the parent's
    interquartile range is wider than ``bound`` times its median, and not
    every change run beats every parent run, so runs this spread cannot
    tell a change within the bound from one past it.
    """
    p, c = summarize(parent), summarize(change)
    sign = 1 if better == "higher" else -1
    if better == "higher":
        beats_all = min(change) > max(parent)
    else:
        beats_all = max(change) < min(parent)
    return {
        "past_bound": sign * (p["median"] - c["median"]) > bound * p["median"],
        "unresolved": p["q3"] - p["q1"] > bound * p["median"] and not beats_all,
    }


CLAIM_TARGET = ("the change wins at least 9 of 10 pairs, and its median is better than "
                "the parent's by more than the parent's interquartile range")


def parse_claim(spec: str, bench: dict) -> tuple[str, str]:
    """WORKLOAD/METRIC as a workload and an end-to-end metric that
    ``bench``, the parsed ``BENCHMARK.json``, names; else ValueError."""
    workload, _, metric = spec.partition("/")
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    if workload not in workloads or metric not in metrics:
        raise ValueError(f"--claim {spec!r}: expected WORKLOAD/METRIC with a workload in "
                         f"{workloads} and a metric in {metrics}")
    return workload, metric


def claim(workload: str, metric: str, row: dict, ratio: float | None = None) -> dict:
    """The claim block for one metric's row of :func:`compare`: ``met`` when
    the change won at least nine tenths of the pairs and its median is
    better than the parent's, by more than the parent's interquartile range
    and, if ``ratio`` is given, by a factor of at least ``ratio``."""
    p, c = row["parent"]["median"], row["change"]["median"]
    factor = (c / p if row["better"] == "higher" else p / c) if p and c else None
    spread = row["parent"]["q3"] - row["parent"]["q1"]
    met = (row["change_wins"] >= math.ceil(0.9 * row["pairs"])
           and row["median_gap_exceeds_parent_iqr"] and factor is not None and factor > 1
           and (ratio is None or factor >= ratio))
    target = CLAIM_TARGET
    if ratio is not None:
        target += f", by a factor of at least {ratio:g}"
    return {"workload": workload, "metric": metric, "target": target, "met": met,
            "factor": factor, "change_wins": row["change_wins"], "pairs": row["pairs"],
            "median_gap": abs(c - p), "parent_iqr": spread}


def _git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True, env=env).stdout.strip()


def _worktree_tree() -> str:
    """The git tree id of the working tree as ``git add -A`` would stage it,
    written through a scratch index so that the checkout's own is left alone."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        _git("read-tree", "HEAD", env=env)
        _git("add", "-A", env=env)
        return _git("write-tree", env=env)


def _export(rev: str, dest: str) -> None:
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"error: git archive {rev} failed")


def _run(root: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} seed {seed} in {root} exited "
                         f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _workload(name: str, metrics: list[dict], roots: dict, seeds: list[int],
              seconds: float) -> dict:
    first = ["parent" if i % 2 == 0 else "change" for i in range(len(seeds))]
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for seed, lead in zip(seeds, first):
        for side in (lead, "change" if lead == "parent" else "parent"):
            results[side].append(_run(roots[side], name, seed, seconds))
            print(f"{name} seed {seed} {side}: "
                  + json.dumps({k: round(v["value"], 4)
                                for k, v in results[side][-1]["metrics"].items()}),
                  file=sys.stderr, flush=True)
    out = {
        "seeds": seeds,
        "first": first,
        "correct": {s: all(r["correct"] for r in results[s]) for s in results},
        "attempted": {s: sum(r["attempted"] for r in results[s]) for s in results},
        "failed": {s: sum(r["failed"] for r in results[s]) for s in results},
        "metrics": {},
    }
    for m in metrics:
        runs = {s: [r["metrics"][m["name"]]["value"] for r in results[s]] for s in results}
        out["metrics"][m["name"]] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            **compare(runs["parent"], runs["change"], m["better"]),
            **against_bound(runs["parent"], runs["change"], m["better"], m["bound"])}
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="the N of BENCH_<N>.json")
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--seed", type=int, default=31001, help="seed of pair 0")
    parser.add_argument("--change", default="", help="one line naming the change")
    parser.add_argument("--claim", help="WORKLOAD/METRIC whose gain the change claims")
    parser.add_argument("--ratio", type=float,
                        help="the least factor by which the claimed median must be better")
    args = parser.parse_args()
    if args.ratio is not None and (args.claim is None or not args.ratio >= 1):
        parser.error("--ratio needs --claim and a factor of at least 1")
    if args.claim is not None:
        try:
            claimed = parse_claim(args.claim, bench)
        except ValueError as exc:
            parser.error(str(exc))
    seeds = [args.seed + i for i in range(PAIRS)]
    parent = _git("rev-parse", args.parent)
    change = _worktree_tree()
    report = {
        "change": args.change,
        "parent_commit": parent,
        "change_src_tree": _git("rev-parse", f"{change}:src"),
        "change_src_tree_note": "git tree id of src/ in the measured working tree",
        "command": COMMAND.format(seconds=bench["run_seconds"]),
        "hardware": f"{os.cpu_count()} vCPUs, Python {platform.python_version()}, "
                    f"numpy {importlib.metadata.version('numpy')}, BLAS on one thread",
        "pairing": PAIRING,
        "workloads": {},
        "claim": None,
        "trace": None,
    }
    with tempfile.TemporaryDirectory() as tmp:
        roots = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        for side, rev in (("parent", parent), ("change", change)):
            os.mkdir(roots[side])
            _export(rev, roots[side])
        for w in bench["workloads"]:
            name = w["name"]
            report["workloads"][name] = _workload(name, bench["end_to_end"], roots,
                                                  seeds, bench["run_seconds"])
    if args.claim is not None:
        workload, metric = claimed
        report["claim"] = claim(workload, metric,
                                report["workloads"][workload]["metrics"][metric], args.ratio)
    for name, workload in report["workloads"].items():
        for metric, row in workload["metrics"].items():
            if row["past_bound"]:
                print(f"past its bound: {name} {metric}, median {row['parent']['median']:.4g}"
                      f" -> {row['change']['median']:.4g}, bound {row['bound']}",
                      file=sys.stderr)
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
