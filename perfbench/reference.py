"""Single timings of qclogic layers at the sizes of the ROADMAP baseline.

    python3 perfbench/reference.py

Each figure is the median of three calls in one process (one call for the
sizes that take seconds), after one untimed call, with BLAS pinned to one
thread.  The whole script takes about a minute.  Prints a Markdown table.
These figures are a reference for the README, not a gate.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

from procenv import PIN_THREADS, SRC

os.environ.update(PIN_THREADS)
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import jobs  # noqa: E402
import oracles  # noqa: E402
from qclogic import gates, logic, omlattice, qcore  # noqa: E402


def timed(fn, repeats: int = 3) -> float:
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def boolean_tables(atoms: int) -> tuple:
    """Tables of the Boolean lattice on ``atoms`` atoms (element = bitmask)."""
    n = 2 ** atoms
    masks = np.arange(n, dtype=np.int64)
    return (tuple(str(m) for m in range(n)), (masks[:, None] & ~masks[None, :]) == 0,
            masks[:, None] & masks[None, :], masks[:, None] | masks[None, :],
            masks ^ (n - 1), 0, n - 1)


def main() -> None:
    rng = np.random.default_rng(0)
    rows = []
    for width in (8, 10):
        word = jobs.library_word(jobs.random_word(rng, width, 10, jobs.CIRCUIT_GATES), width)
        repeats = 3 if width < 10 else 1
        rows.append((f"`compose_word`, 10 gates, width {width}",
                     timed(lambda: gates.compose_word(word), repeats)))
    words = gates.enumerate_polynomials(gates.generator_set("G2", phases=(0.3, 1.1, 2.9)), 2, 3)
    ket0 = np.zeros((4, 4), dtype=complex)
    ket0[0, 0] = 1.0
    rho, p = qcore.DensityOperator(ket0), qcore.Projector(ket0)
    rows.append((f"`quotient` `equiv_rho_P`, G2, width 2, length <= 3 ({len(words)} words)",
                 timed(lambda: logic.quotient(words, "equiv_rho_P", rho, p))))
    for d in (4, 6):
        u = oracles.random_unitary(rng, d)
        family = [qcore.Projector(np.outer(u[:, k], u[:, k].conj())) for k in range(d)]
        rows.append((f"`projection_oml`, basis family, d = {d} ({2 ** d} elements)",
                     timed(lambda: omlattice.projection_oml(d, family), 3 if d < 6 else 1)))
    for atoms in (8, 9):
        tables = boolean_tables(atoms)
        repeats = 3 if atoms < 9 else 1
        rows.append((f"`FiniteOML` construction (law battery), n = {2 ** atoms}",
                     timed(lambda: omlattice.FiniteOML(*tables), repeats)))
        lattice = omlattice.FiniteOML(*tables)
        rows.append((f"`verify_laws` with distributivity, n = {2 ** atoms}",
                     timed(lambda: omlattice.verify_laws(lattice), repeats)))
    print("| path | time |\n| --- | --- |")
    for label, seconds in rows:
        print(f"| {label} | {seconds * 1000:.0f} ms |" if seconds < 1 else
              f"| {label} | {seconds:.2f} s |")


if __name__ == "__main__":
    main()
