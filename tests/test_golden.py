"""Behaviour pinned byte for byte against a recorded corpus.

Each CLI case keeps its stdout, stderr and exit code; each library case
keeps its result (arrays by a digest of their bytes) or its exception class
and message.  The corpus covers every verb, every gate, QFT, the malformed
gate errors and the operator invariants.  It leaves out output that hangs on
LAPACK's choice of eigenvector phases, such as the witness of a failing
``equiv_total``.

``golden.json`` is written by running this file, at the commit whose
behaviour is the reference and only when a change of behaviour is meant:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import math
import pathlib

import numpy as np
import pytest

from qclogic import algorithms, classical, gates, omlattice, qcore
from qclogic.cli import main

CORPUS = pathlib.Path(__file__).with_name("golden.json")

_NOT_HERMITIAN = '{"dim": 2, "re": [0.5, 1, 0, 0.5]}'
_NOT_TRACE_ONE = '{"dim": 2, "re": [1, 0, 0, 1]}'
_NOT_POSITIVE = '{"dim": 2, "re": [1.5, 0, 0, -0.5]}'
_NOT_IDEMPOTENT = '{"dim": 2, "re": [0.5, 0, 0, 0]}'
_MIXED = '{"dim": 2, "re": [0.7, 0.2, 0.2, 0.3], "im": [0, -0.1, 0.1, 0]}'
_MO2 = json.dumps({"elements": ["0", "a", "a'", "1"],
                   "leq": {"0": ["a", "a'"], "a": ["1"], "a'": ["1"]},
                   "ortho": {"0": "1", "a": "a'", "a'": "a", "1": "0"},
                   "zero": "0", "one": "1"})

CLI_CASES = [
    ["check-equiv", "H", "H"],
    ["check-equiv", "T", "R(0.785398163397)"],
    ["check-equiv", "XX(0.7)[0,1]", "XX(0.7)[1,0]"],
    ["check-equiv", "width=3; TOFFOLI[0,1,2]", "width=3; TOFFOLI[1,0,2]"],
    ["check-equiv", "QFT[0,1]; QFT[0,1]; QFT[0,1]; QFT[0,1]", "width=2"],
    ["check-equiv", "Z; X; Z; X", "width=1", "--format", "table"],
    ["check-equiv", "", "X", "--relation", "equiv_rho", "--state", "basis:0"],
    ["check-equiv", "", "Z", "--relation", "equiv_rho", "--state", "basis:0"],
    ["check-equiv", "", "X", "--relation", "equiv_P", "--event", "basis:0"],
    ["check-equiv", "H", "X", "--relation", "equiv_rho_P",
     "--state", "basis:0", "--event", "basis:0"],
    ["check-equiv", "", "Z", "--relation", "leq_rho", "--state", "basis:1"],
    ["check-equiv", "width=2; CNOT[0,1]; CNOT[0,1]", "width=2", "--relation",
     "leq_rho_P", "--state", "uniform", "--event", "basis:3"],
    ["check-equiv", "H", "T", "--relation", "leq_P", "--event", _MIXED],
    ["check-equiv", "H", "H", "--relation", "equiv_rho"],
    ["truth-table", "width=2; H[0]; CNOT[0,1]", "--state", "basis:0"],
    ["truth-table", "width=3; QFT[2,0,1]; T[1]; R(1.25)[2]; XX(0.3)[0,2]; "
     "Z[0]; X[1]; H[2]; TOFFOLI[2,0,1]; CNOT[1,2]", "--state", "basis:5"],
    ["truth-table", "R(0.4); H", "--state", _MIXED, "--event", "basis:1",
     "--event", '{"dim": 2, "re": [0.5, 0.5, 0.5, 0.5]}'],
    ["truth-table", "H", "--state", "basis:0", "--format", "table"],
    ["quotient", "--generators", "G1", "--width", "1", "--max-len", "3",
     "--state", "basis:0", "--event", "basis:0"],
    ["quotient", "--generators", "G2", "--width", "2", "--max-len", "2",
     "--phase", "0.5", "--relation", "equiv_rho", "--state", "basis:0"],
    ["quotient", "--generators", "G3", "--width", "2", "--max-len", "2",
     "--phase", "0.5", "--phase", "1.5", "--state", "basis:1", "--event", "basis:2"],
    ["quotient", "--word", "H", "--word", "H; H", "--word", "", "--word", "QFT[0]",
     "--state", "uniform", "--relation", "equiv_rho"],
    ["run-dj", '{"n": 2, "m": 1, "table": {"00": "0", "01": "1", "10": "1", "11": "0"}}'],
    ["run-dj", '{"n": 1, "m": 1, "table": {"0": "1", "1": "1"}}'],
    ["run-period", '{"N": 8, "r": 4, "f": [1, 2, 3, 4, 1, 2, 3, 4]}'],
    ["run-period", '{"N": 4, "r": 2, "f": [5, 9, 5, 9]}', "--condition-on", "9",
     "--samples", "5", "--seed", "3", "--format", "table"],
    ["lattice-verify", "--builtin", "mo2"],
    ["lattice-verify", "--builtin", "boolean:2"],
    ["lattice-verify", _MO2],
    ["boolean-recover", "--bits", "2", "--cases", "6", "--seed", "4"],
    ["boolean-recover", "--bits", "1"],
    # unusable input: exit 2 with one error line
    ["check-equiv", "FOO", "H"],
    ["check-equiv", "FOO[0]", "H"],
    ["check-equiv", "CNOT[0]", "H"],
    ["check-equiv", "QFT[]", "H"],
    ["check-equiv", "R[0]", "H"],
    ["check-equiv", "H(0.5)[0]", "H"],
    ["check-equiv", "QFT(0.5)[0]", "H"],
    ["check-equiv", "R(nan)[0]", "H"],
    ["check-equiv", "XX(inf)[0,1]", "H"],
    ["check-equiv", "CNOT[1,1]", "H"],
    ["check-equiv", "H[-1]", "H"],
    ["check-equiv", "width=0; QFT", "H"],
    ["check-equiv", "width=1; CNOT", "H"],
    ["check-equiv", "width=2; width=3", "H"],
    ["check-equiv", "R(x)[0]", "H"],
    ["check-equiv", "H", "H", "--relation", "equiv_rho", "--state", _NOT_HERMITIAN],
    ["check-equiv", "H", "H", "--relation", "equiv_rho", "--state", _NOT_TRACE_ONE],
    ["check-equiv", "H", "H", "--relation", "equiv_rho", "--state", _NOT_POSITIVE],
    ["check-equiv", "H", "H", "--relation", "equiv_P", "--event", _NOT_IDEMPOTENT],
    ["check-equiv", "H", "H", "--relation", "equiv_P", "--event", _NOT_HERMITIAN],
    ["check-equiv", "H", "H", "--relation", "equiv_rho", "--state", "basis:0",
     "--tol", "-1"],
    ["truth-table", "H", "--state", "basis:2"],
    ["quotient", "--generators", "G3", "--width", "2", "--state", "basis:0",
     "--event", "basis:0"],
    ["run-dj", '{"n": 2, "m": 1, "table": {"00": "0"}}'],
    ["run-period", '{"N": 6, "r": 4, "f": [1, 2, 3, 4, 1, 2]}'],
    ["lattice-verify", "--builtin", "boolean:6"],
    ["lattice-verify", "--builtin", "boolean:4"],
    ["boolean-recover", "--bits", "3"],
]

LIBRARY_CASES = [
    *(f"gates.wire_count({n!r})" for n in
      ("H", "t", "X", "Z", "R", "CNOT", "xx", "TOFFOLI", "QFT", "qft", "FOO")),
    *(f"gates.GateSpec({n!r}, {w!r}, {p!r}).block()" for n, w, p in (
        ("H", (0,), None), ("T", (0,), None), ("X", (0,), None), ("Z", (0,), None),
        ("R", (0,), 0.3), ("R", (0,), -2), ("CNOT", (0, 1), None),
        ("XX", (0, 1), 0.7), ("XX", (1, 0), -1.1), ("TOFFOLI", (0, 1, 2), None),
        ("QFT", (0,), None), ("QFT", (1, 0), None), ("QFT", (2, 0, 1), None))),
    "gates.GateSpec('r', [np.int64(1)], 1)",
    "gates.GateSpec('qft', (3, 1))",
    "gates.GateSpec('Xx', (0, 2), True)",
    *(f"gates.GateSpec({n!r}, {w!r}, {p!r})" for n, w, p in (
        ("FOO", (0,), None), ("H", (0, 1), None), ("H", (), None),
        ("R", (0,), None), ("R", (0,), "abc"), ("H", (0,), 0.5), ("CNOT", (0, 1), 0.5),
        ("QFT", (), None), ("QFT", (0,), 0.5), ("QFT", (), 0.5),
        ("CNOT", (0, 0), None), ("H", (-1,), None), ("CNOT", (-1, -1), None),
        ("QFT", (1, 1), None), ("TOFFOLI", (0, 1), None), ("H", ("a",), None),
        ("FOO", (0, 0), 0.5))),
    "gates.GateSpec('R', (0,), math.nan)",
    "gates.GateSpec('XX', (0, 1), -math.inf)",
    "gates.GateTemplate('r', [1, 2])",
    "gates.GateTemplate('qft')",
    "gates.GateTemplate('H', [0.5])",
    "gates.GateTemplate('FOO')",
    "gates.GateTemplate('foo', [0.5])",
    *(f"gates.format_word(gates.parse_word({t!r}))" for t in (
        "", "QFT", "width=3; QFT", "width=2; QFT; QFT[1]", "CNOT; XX(0.25); TOFFOLI",
        "r(1e-3)[2]; t; h[1]", "width=4", "R(0.1)", "XX(0.30000000000000004)")),
    "gates.format_word(gates.parse_word('', default_width=3))",
    *(f"gates.parse_word({t!r})" for t in (
        "width=0; QFT", "width=0; H", "width=1; CNOT", "FOO", "FOO(1)", "H; width=2",
        "width=2; width=2", "H[a]", "H[0,,1]", "R(x)[0]", "H!", "QFT(1)", "R",
        "XX(1)[0]", "QFT[]")),
    *(f"gates.enumerate_polynomials(gates.generator_set({g!r}, phases={p!r}), {w}, {n})"
      for g, p, w, n in (("G1", None, 1, 2), ("G2", [0.5], 2, 1),
                         ("G3", [0.5, 1.5], 3, 1), ("G2", [0.5], 1, 2),
                         ("G3", None, 2, 1), ("G2", None, 2, 0))),
    "gates.enumerate_polynomials(gates.generator_set('G1'), 1, 10, max_words=100)",
    "gates.generator_set('G4')",
    *(f"gates.compose_word(gates.parse_word({t!r}))" for t in (
        "width=3; H[0]; T[1]; X[2]; Z[0]; R(0.9)[1]; CNOT[2,0]; XX(1.7)[1,2]; "
        "TOFFOLI[1,2,0]; QFT[1,2]; QFT[2,0,1]",
        "width=4; QFT[3,1]; XX(-0.4)[3,0]; TOFFOLI[3,0,2]; R(5)[3]")),
    "gates.elementary(gates.GateSpec('XX', (2, 0), 0.6), 3)",
    "gates.elementary(gates.GateSpec('H', (3,)), 3)",
    "gates.elementary(gates.GateSpec('H', (0,)), 11)",
    "gates.GateWord(1, (gates.GateSpec('CNOT', (0, 1)),))",
    "gates.toffoli_truth_value(qcore.DensityOperator(np.eye(2) / 2), "
    "qcore.DensityOperator([[0.5, 0.5], [0.5, 0.5]]))",
    "gates.fourier_matrix(0)",
    "gates.permutation_gate([1, 2, 0])",
    "gates.permutation_gate([0, 0])",
    # operator types
    *(f"qcore.validate({m}, {k!r}{t})" for m, k, t in (
        ("np.eye(2) / 2", "density", ""),
        ("[[0.5, 0.5j], [-0.5j, 0.5]]", "density", ""),
        ("[[1, 0], [0, 0]]", "projector", ""),
        ("np.eye(3)", "projector", ", 0.0"),
        ("[[0, 1], [1, 0]]", "unitary", ""),
        ("[[0.5, 1], [0, 0.5]]", "density", ""),
        ("[[0.5, 1e-10], [0, 0.5]]", "density", ""),
        ("[[1, 0], [0, 1]]", "density", ""),
        ("[[1.5, 0], [0, -0.5]]", "density", ""),
        ("[[1, 2], [0, 1]]", "density", ""),
        ("[[0.5, 0], [0, 0]]", "projector", ""),
        ("[[0, 1], [0, 0]]", "projector", ""),
        ("[[1, 1], [0, 1]]", "unitary", ""),
        ("[[1, 0], [0, 1 + 1e-6]]", "unitary", ", 1e-3"),
        ("[[1, 0], [0, 1]]", "unitary", ", -1.0"),
        ("[[1, 0], [0, 1]]", "projector", ", math.nan"),
        ("[[2, 0], [0, 1]]", "density", ", math.nan"),
        ("[1, 0]", "density", ""),
        ("np.zeros((0, 0))", "projector", ""),
        ("np.zeros((1025, 1025))", "unitary", ""),
        ("[[math.inf]]", "unitary", ""),
        ("[[1]]", "operator", ""),
        ("[['a']]", "density", ""))),
    "qcore.DensityOperator(np.eye(2) / 2).dim",
    "qcore.Projector(np.diag([1, 1, 0])).rank",
    "qcore.UnitaryGate([[0, 1], [1, 0]], 0.5) == qcore.UnitaryGate([[0, 1], [1, 0]], 0.5)",
    "(lambda p: p == p)(qcore.Projector([[1, 0], [0, 0]]))",
    "qcore.Projector([[1, 0], [0, 0]]) == qcore.DensityOperator([[1, 0], [0, 0]])",
    # a hash differs from one interpreter to the next; equal operators share it
    "hash(qcore.Projector([[1, 0], [0, 0]])) == hash(qcore.Projector([[1, 0], [0, -0.0]]))",
    "setattr(qcore.DensityOperator([[1, 0], [0, 0]]), 'tolerance', 1.0)",
    "qcore.DensityOperator([[1, 0], [0, 0]]).matrix.flags.writeable",
    "qcore.born(qcore.DensityOperator(np.eye(2) / 2), qcore.Projector([[1, 0], [0, 0]]))",
    "qcore.conjugate(qcore.UnitaryGate([[0, 1], [1, 0]]), "
    "qcore.DensityOperator([[1, 0], [0, 0]]))",
    "qcore.matrix_from_json({'dim': 2, 're': [1, 0, 0, 0]})",
    "qcore.matrix_from_json({'dim': 2, 're': [1]})",
    # widths that fit and the satellite readers
    "omlattice.boolean_oml(5)",
    "omlattice.boolean_oml(-1)",
    "algorithms.oracle_from_json({'n': 2, 'm': 1, 'table': {}})",
    "algorithms.oracle_from_json({'n': 64, 'm': 1, 'table': {}})",
    "classical.machine_from_json({'M': 1, 'N': 1, 'rows': {'0': [1, 0]}})",
    "classical.machine_from_json({'M': 2, 'N': 1, 'rows': {'01': [1, 0], '11': [0, 1]}})",
    "classical.machine_from_json({'M': 1, 'N': 2, 'rows': {'0': [1, 0]}})",
    "classical.machine_from_json({'M': 1, 'N': 1, 'rows': {'2': [1, 0]}})",
    "classical.machine_from_json({'M': 0, 'N': 1, 'rows': {}})",
    "classical.machine_from_json({'M': 1, 'N': 0, 'rows': {'0': [1], '1': [0.5]}})",
]


def _digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return f"ndarray {a.dtype} {a.shape} sha256:{hashlib.sha256(a.tobytes()).hexdigest()}"


def _render(value):
    if isinstance(value, np.ndarray):
        return _digest(value)
    if isinstance(value, (list, tuple)):
        return [_render(v) for v in value]
    if isinstance(value, qcore.UnitaryGate):
        return [repr(value), _digest(value.matrix)]
    if isinstance(value, gates.GateWord):
        return gates.format_word(value)
    return repr(value)


def run_library(expr: str) -> dict:
    namespace = {"np": np, "math": math, "algorithms": algorithms,
                 "classical": classical, "gates": gates, "omlattice": omlattice,
                 "qcore": qcore}
    try:
        value = eval(expr, namespace)
    except Exception as exc:
        return {"raises": type(exc).__name__, "message": str(exc)}
    return {"value": _render(value)}


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


def _record() -> dict:
    return {"cli": [{"argv": argv, **run_cli(argv)} for argv in CLI_CASES],
            "library": [{"expr": expr, **run_library(expr)} for expr in LIBRARY_CASES]}


# read once; a missing corpus fails test_the_corpus_lists_every_case
GOLDEN = (json.loads(CORPUS.read_text()) if CORPUS.exists()
          else {"cli": [], "library": []})


@pytest.mark.parametrize("case", GOLDEN["cli"],
                         ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(GOLDEN["cli"])])
def test_cli_output_is_byte_identical(case):
    assert run_cli(case["argv"]) == {k: case[k] for k in ("stdout", "stderr", "code")}


@pytest.mark.parametrize("case", GOLDEN["library"],
                         ids=[f"{i:03d}-{c['expr'].split('(')[0]}"
                              for i, c in enumerate(GOLDEN["library"])])
def test_library_result_is_unchanged(case):
    assert {"expr": case["expr"], **run_library(case["expr"])} == case


def test_the_corpus_lists_every_case():
    assert [c["argv"] for c in GOLDEN["cli"]] == CLI_CASES
    assert [c["expr"] for c in GOLDEN["library"]] == LIBRARY_CASES


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n")
