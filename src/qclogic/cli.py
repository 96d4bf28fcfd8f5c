"""Command line driver.

Verbs: check-equiv, truth-table, quotient, run-dj, run-period,
lattice-verify, boolean-recover.  Output is JSON with sorted keys and
floats canonicalized to 12 significant digits, so identical invocations
produce identical bytes.  Exit codes: 0 for success / relation holds,
1 for a definite negative verdict, 2 for unusable input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import algorithms, classical, gates, logic, omlattice, qcore
from .errors import InvalidArgument, ParseError, QclError, ValidationFailure


def _round_floats(x):
    # output canonicalization only: snap numerical dust (and -0.0) to 0.0,
    # then 12 significant digits
    if isinstance(x, float):
        if abs(x) < 1e-12:
            return 0.0
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _round_floats(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round_floats(v) for v in x]
    return x


def _render_table(obj, prefix="") -> list[str]:
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            lines.extend(_render_table(obj[k], f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            lines.extend(_render_table(v, f"{prefix}{i}."))
    else:
        lines.append(f"{prefix[:-1]} = {obj}")
    return lines


def _emit(obj: dict, args) -> None:
    obj = _round_floats(obj)
    if getattr(args, "format", "json") == "table":
        text = "\n".join(_render_table(obj)) + "\n"
    else:
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json_payload(token: str):
    token = token.strip()
    try:
        if token.startswith("{"):
            return json.loads(token)
        with open(token) as fh:
            return json.load(fh)
    except RecursionError:
        raise ParseError("JSON payload nested too deeply")


def _trailing_int(token: str) -> int:
    """The integer after the colon of "basis:K" or "boolean:N": an optional
    minus sign and ASCII digits, nothing else (no space, "+" or "_")."""
    text = token.split(":", 1)[1]
    if not re.fullmatch("-?[0-9]+", text):
        raise ParseError(f"bad integer in {token!r}")
    return int(text)


def _basis_index(token: str, dim: int) -> int:
    idx = _trailing_int(token)
    if not 0 <= idx < dim:
        raise ValidationFailure("basis-index", idx, f"dimension is {dim}")
    return idx


def _operator_matrix(token: str, dim: int) -> np.ndarray:
    """A state/event spec other than "basis:K": "uniform", JSON or a file."""
    if token == "uniform":
        return np.eye(dim, dtype=complex) / dim
    return qcore.matrix_from_json(_load_json_payload(token))


def _parse_words(texts: list[str]) -> list[gates.GateWord]:
    words = [gates.parse_word(t) for t in texts]
    width = max(w.width for w in words)
    return [gates.GateWord(width, w.word) for w in words]


def _operand(args, attr: str, dim: int):
    """The validated state or event that ``--state``/``--event`` names."""
    cls, what = {"state": (qcore.DensityOperator, "a state"),
                 "event": (qcore.Projector, "an event")}[attr]
    token = getattr(args, attr, None)
    if token is None:
        raise ValidationFailure("cli-context", 0.0,
                                f"this relation needs {what} (--{attr})")
    if token.startswith("basis:"):
        return qcore._rank_one(cls, np.eye(1, dim, _basis_index(token, dim), dtype=complex)[0])
    return cls(_operator_matrix(token, dim))


def _cmd_check_equiv(args) -> int:
    wa, wb = _parse_words([args.word_a, args.word_b])
    dim = gates.register_dim(wa.width)
    u = gates.compose_word(wa)
    v = gates.compose_word(wb)
    context = [_operand(args, attr, dim) for attr in logic.CONTEXT[args.relation]]
    report = getattr(logic, args.relation)(u, v, *context, args.tol)
    payload = report.to_json_dict()
    payload["word_a"] = gates.format_word(wa)
    payload["word_b"] = gates.format_word(wb)
    _emit(payload, args)
    return 0 if report.holds else 1


def _cmd_truth_table(args) -> int:
    word = _parse_words([args.word])[0]
    dim = gates.register_dim(word.width)
    u = gates.compose_word(word)
    rho = _operand(args, "state", dim)
    tokens = args.event or [f"basis:{k}" for k in range(dim)]
    # a basis event is an index, any other a validated projector
    events = [(t, _basis_index(t, dim) if t.startswith("basis:")
               else qcore.Projector(_operator_matrix(t, dim))) for t in tokens]
    sigma = qcore._evolve(u, rho.matrix)
    tol = max(u.tolerance, rho.tolerance)
    values = {}
    for label, event in events:
        if isinstance(event, int):
            # Tr(sigma P_k) is sigma[k, k], at the tolerance P_k would carry
            t = complex(sigma[event, event])
            values[label] = qcore._probability(t, max(tol, qcore.DEFAULT_TOL))
        else:
            values[label] = qcore._pairing(sigma, event, tol)
    payload = {"word": gates.format_word(word), "state": args.state, "values": values}
    _emit(payload, args)
    return 0


def _collect_words(args) -> list[gates.GateWord]:
    if args.word:
        return _parse_words(args.word)
    if args.generators:
        gen = gates.generator_set(args.generators, phases=args.phase or None)
        gates.register_dim(args.width)
        return gates.enumerate_polynomials(gen, args.width, args.max_len,
                                           max_words=args.max_words)
    raise ValidationFailure("cli-context", 0.0,
                            "need --word (repeatable) or --generators")


def _cmd_quotient(args) -> int:
    words = _collect_words(args)
    dim = gates.register_dim(words[0].width)
    rho = _operand(args, "state", dim)
    p = _operand(args, "event", dim) if args.relation == "equiv_rho_P" else None
    part = logic.quotient(words, args.relation, rho, p, args.tol)
    _emit(part.to_json_dict(), args)
    return 0


def _cmd_run_dj(args) -> int:
    oracle = algorithms.oracle_from_json(_load_json_payload(args.oracle))
    result = algorithms.deutsch_jozsa(oracle)
    _emit(result.to_json_dict(), args)
    return 0


def _cmd_run_period(args) -> int:
    spec = algorithms.periodic_from_json(_load_json_payload(args.spec))
    result = algorithms.period_find(spec, condition_on=args.condition_on,
                                    samples=args.samples, seed=args.seed)
    _emit(result.to_json_dict(), args)
    return 0


def _builtin_lattice(token: str) -> omlattice.FiniteOML:
    if token == "mo2":
        return omlattice.mo2_oml()
    if token.startswith("boolean:"):
        return omlattice.boolean_oml(_trailing_int(token))
    raise ValidationFailure("builtin-lattice", 0.0,
                            f"unknown builtin {token!r}; try boolean:N or mo2")


def _cmd_lattice_verify(args) -> int:
    if args.builtin:
        lattice = _builtin_lattice(args.builtin)
    elif args.file:
        lattice = omlattice.lattice_from_json(_load_json_payload(args.file))
    else:
        raise ValidationFailure("cli-context", 0.0, "need a lattice file or --builtin")
    # a lattice that breaks a required law was refused while it was built
    payload = {
        "elements": len(lattice),
        "laws": [r.to_json_dict() for r in omlattice.verify_laws(lattice)],
        "required_pass": True,
    }
    _emit(payload, args)
    return 0


def _cmd_boolean_recover(args) -> int:
    bits = args.bits
    if not 1 <= bits <= 2:
        raise ValidationFailure("register-size", bits,
                                "this demo closes the full event lattice; use 1 or 2 bits")
    if args.cases < 1:
        raise InvalidArgument(f"cases must be >= 1, got {args.cases}")
    dim = 2 ** bits
    basis = [qcore._rank_one(qcore.Projector, e) for e in np.eye(dim, dtype=complex)]
    states = [qcore._rank_one(qcore.DensityOperator, e) for e in np.eye(dim, dtype=complex)]
    lattice = omlattice.projection_oml(dim, basis)
    reports = omlattice.verify_laws(lattice)
    by_law = {r.law: r.holds for r in reports}

    rng = np.random.default_rng(args.seed)
    names = ["X"] if bits == 1 else ["X", "CNOT"]
    mismatches = 0
    cases = 0
    for _ in range(args.cases):
        specs = []
        for _ in range(rng.integers(0, 4)):
            name = names[rng.integers(0, len(names))]
            wires = tuple(rng.permutation(bits)[:gates.wire_count(name)].tolist())
            specs.append(gates.GateSpec(name, wires))
        word = gates.GateWord(bits, tuple(specs))
        u = gates.compose_word(word)
        for start in range(dim):
            out = start
            for s in specs:
                out = classical.apply_reversible(s.name, s.wires, out, bits)
            for k in range(dim):
                tv = logic.truth_value(u, states[start], basis[k])
                cases += 1
                if abs(tv - (1.0 if k == out else 0.0)) > 1e-9:
                    mismatches += 1
    payload = {
        "bits": bits,
        "event_count": len(lattice),
        "expected_events": 2 ** dim,
        "distributive": by_law["distributive"],
        "orthomodular": by_law["orthomodular"],
        "classical_cases": cases,
        "classical_mismatches": mismatches,
    }
    _emit(payload, args)
    ok = (len(lattice) == 2 ** dim and by_law["distributive"]
          and by_law["orthomodular"] and mismatches == 0)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclogic",
        description="probabilistic truth values, gate equivalences, and "
                    "orthomodular computational schemes")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("check-equiv", help="compare two gate words")
    p.add_argument("word_a")
    p.add_argument("word_b")
    p.add_argument("--relation", default="equiv_total", choices=logic.RELATIONS)
    p.add_argument("--state", help="basis:K, uniform, inline JSON, or a file")
    p.add_argument("--event", help="basis:K, inline JSON, or a file")
    p.add_argument("--tol", type=float, default=qcore.DEFAULT_TOL)
    common(p)
    p.set_defaults(fn=_cmd_check_equiv)

    p = sub.add_parser("truth-table", help="truth values of one word")
    p.add_argument("word")
    p.add_argument("--state", required=True)
    p.add_argument("--event", action="append",
                   help="repeatable; defaults to every basis event")
    common(p)
    p.set_defaults(fn=_cmd_truth_table)

    p = sub.add_parser("quotient", help="partition words by a relation")
    p.add_argument("--word", action="append", help="repeatable word literal")
    p.add_argument("--generators", choices=("G1", "G2", "G3"))
    p.add_argument("--width", type=int, default=1)
    p.add_argument("--max-len", type=int, default=2)
    p.add_argument("--phase", action="append", type=float,
                   help="phase grid for parametric generators (repeatable)")
    p.add_argument("--max-words", type=int, default=100_000)
    p.add_argument("--relation", default="equiv_rho_P",
                   choices=("equiv_rho_P", "equiv_rho"))
    p.add_argument("--state", required=True)
    p.add_argument("--event")
    p.add_argument("--tol", type=float, default=qcore.DEFAULT_TOL)
    common(p)
    p.set_defaults(fn=_cmd_quotient)

    p = sub.add_parser("run-dj", help="one-query constancy test")
    p.add_argument("oracle", help="oracle JSON (inline or file)")
    common(p)
    p.set_defaults(fn=_cmd_run_dj)

    p = sub.add_parser("run-period", help="Fourier period finding")
    p.add_argument("spec", help="periodic function JSON (inline or file)")
    p.add_argument("--condition-on", type=int, default=None,
                   help="condition on one observed function value")
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=_cmd_run_period)

    p = sub.add_parser("lattice-verify", help="run the lattice law battery")
    p.add_argument("file", nargs="?", help="lattice JSON file")
    p.add_argument("--builtin", help="boolean:N or mo2")
    common(p)
    p.set_defaults(fn=_cmd_lattice_verify)

    p = sub.add_parser("boolean-recover",
                       help="check the classical fragment embeds faithfully")
    p.add_argument("--bits", type=int, default=2)
    p.add_argument("--cases", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=_cmd_boolean_recover)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (QclError, ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
