"""One measured process of the benchmark; ``run.py`` starts it fresh.

    worker.py measure WORKLOAD SEED STARTUP SECONDS
    worker.py trace   SEED SECONDS TRACE_FILE

Every mode first sets up: imports, the warm-up job's input and the warm-up
job itself, checked.  It then prints a line ``{"ready": <time.monotonic()>}``,
which ``run.py`` subtracts from its own clock reading taken just before the
process started.  ``measure`` then runs jobs of one workload in a closed
loop, one at a time, until SECONDS have passed, timing each job's calls into
qclogic; STARTUP numbers the process within the run and picks its inputs.  ``trace`` sets up all four workloads and then
runs rounds of one traced job of each, plus one fresh-interpreter import of
qclogic, so that every layer is measured.
The last line of output is one JSON object.
"""

from __future__ import annotations

import os
import sys

from procenv import PIN_THREADS, ROOT, SRC, WORKLOADS

os.environ.update(PIN_THREADS)     # before numpy is imported, here or by qclogic
sys.path.insert(0, SRC)

import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import jobs  # noqa: E402
from tracing import OFF, Tracer  # noqa: E402

RELATIONS = ("equiv_rho_P", "equiv_rho", "equiv_P", "equiv_total",
             "leq_rho_P", "leq_rho", "leq_P", "hierarchy_check")
VERBS = ("check-equiv", "truth-table", "quotient", "run-dj", "run-period",
         "lattice-verify", "boolean-recover")

# span name -> the fields reported for it; "calls" and "s" come from the span
# itself, the others are work counts the benchmark attached to it
LAYERS = (
    ("gates.compose_word", ("calls", "s", "gates")),
    ("gates.enumerate_polynomials", ("s", "words")),
    ("qcore.DensityOperator", ("calls", "s")),
    ("qcore.Projector", ("calls", "s")),
    *((f"logic.{rel}", ("calls", "s")) for rel in RELATIONS),
    ("logic.quotient", ("calls", "s", "words", "classes")),
    ("algorithms.period_find", ("calls", "s")),
    ("omlattice.projection_oml", ("calls", "s", "elements")),
    ("omlattice.lattice_from_json", ("calls", "s", "elements")),
    ("omlattice.verify_laws", ("calls", "s")),
    *((f"cli.{verb}", ("s",)) for verb in VERBS),
    ("bench.check", ("s",)),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in reporting order."""
    names = [(f"{span}.{field}", "s" if field == "s" else "count")
             for span, fields in LAYERS for field in fields]
    return names + [("logic.witnesses", "count"), ("cli.import_s", "s")]


def job_rng(seed: int, startup: int, index: int) -> np.random.Generator:
    """Inputs of job ``index`` (0 is the warm-up) of process ``startup``
    depend on the seed alone."""
    return np.random.default_rng([seed, startup, index])


def _job(workload, seed: int, startup: int, index: int, tr) -> tuple[float | None, list[str]]:
    """Make the input, run the job (timed), check it.  Returns the job's
    time, or None if a call raised, and the failed checks."""
    inp = workload.make_input(job_rng(seed, startup, index))
    try:
        start = time.perf_counter()
        out = workload.run(inp, tr)
        elapsed = time.perf_counter() - start
    except Exception:
        return None, [traceback.format_exc(limit=3)]
    with tr.span("bench.check"):
        failures = workload.check(inp, out)
    return elapsed, failures


def _ready(failures: list[str]):
    print(json.dumps({"ready": time.monotonic(), "failures": failures}), flush=True)


def setup(name: str, seed: int, startup: int):
    workload = jobs.workloads(ROOT)[name]
    elapsed, failures = _job(workload, seed, startup, 0, OFF)
    if elapsed is None:
        failures = ["warm-up raised: " + failures[0]]
    return workload, failures


def measure(name: str, seed: int, startup: int, seconds: float) -> dict:
    workload, failures = setup(name, seed, startup)
    _ready(failures)
    job_s, failed, attempted = [], 0, 0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or attempted == 0:
        attempted += 1
        elapsed, bad = _job(workload, seed, startup, attempted, OFF)
        failures += bad
        if elapsed is None:
            failed += 1
        else:
            job_s.append(elapsed)
    who = resource.RUSAGE_CHILDREN if name == "cli-cold" else resource.RUSAGE_SELF
    return {"job_s": job_s, "attempted": attempted, "failed": failed,
            "failures": failures,
            "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024.0}


def trace(seed: int, seconds: float, path: str) -> dict:
    tracer = Tracer()
    set_up, failures = {}, []
    for name in WORKLOADS:
        set_up[name], bad = setup(name, seed, 0)
        failures += bad
    _ready(failures)
    rounds, failed, job_s = 0, 0, {name: [] for name in WORKLOADS}
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or rounds == 0:
        rounds += 1
        for name in WORKLOADS:
            tracer.job = f"{name}-{rounds}"
            with tracer.span("job." + name):
                elapsed, bad = _job(set_up[name], seed, 0, rounds, tracer)
            failed += elapsed is None
            failures += bad
            if elapsed is not None:
                job_s[name].append(elapsed)
        tracer.job = f"import-{rounds}"
        with tracer.span("cli.import") as rec:
            rec["counts"]["import_s"] = jobs.import_seconds(ROOT)
    agg = tracer.self_times()
    metrics = {}
    for metric, unit in per_layer_names():
        span, field = metric.rsplit(".", 1)
        if metric == "logic.witnesses":
            value = sum(a.get("witnesses", 0.0) for a in agg.values())
        elif metric == "cli.import_s":
            value = agg["cli.import"]["import_s"]
        else:
            value = agg[span][field]
        metrics[metric] = {"value": value / rounds, "unit": unit}
    with open(path, "w") as fh:
        json.dump({"rounds": rounds, "job_s": job_s, "spans": tracer.spans}, fh)
    return {"metrics": metrics, "rounds": rounds, "attempted": rounds * len(WORKLOADS),
            "failed": failed, "failures": failures, "job_s": job_s}


def main(argv: list[str]) -> int:
    if argv[0] == "measure":
        result = measure(argv[1], int(argv[2]), int(argv[3]), float(argv[4]))
    else:
        result = trace(int(argv[1]), float(argv[2]), argv[3])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
