"""Where the checkout is and the environment every measured process gets.

numpy and scipy each load their own OpenBLAS, and each starts worker threads
on import; on a two-core machine those threads made the same matmul loop
vary tenfold between processes.  Every measured process therefore runs with
BLAS and OpenMP on one thread, set before numpy is first imported.
"""

from __future__ import annotations

import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("circuits", "quotient", "lattices", "cli-cold")

PIN_THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def child_env(root: str = ROOT) -> dict:
    """Environment for a measured child: threads pinned, qclogic imported
    from the checkout's ``src``, bytecode cached as for an installed package
    (the first start-up in a fresh checkout writes it)."""
    env = dict(os.environ)
    env.update(PIN_THREADS)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env
