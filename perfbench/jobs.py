"""The four workload recipes: inputs from a seed, the calls into qclogic, and
the checks of what came back.

Every job in a workload runs the same recipe at the same size; only seeded
random content changes.  ``run`` holds the calls a user of qclogic would make
and is what the benchmark times.  ``check`` then compares the outputs with
:mod:`oracles` or with properties the method must have, never with a stored
copy of earlier output, and returns the list of what disagreed.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles
from procenv import child_env
from qclogic import algorithms, gates, logic, omlattice, qcore

TOL = qcore.DEFAULT_TOL          # the tolerance every decider runs at
MATCH = 1e-9                     # agreement required between qclogic and an oracle


class Checks:
    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok, what: str):
        if not ok:
            self.failures.append(what)


def library_word(word, width: int) -> gates.GateWord:
    return gates.GateWord(width, tuple(gates.GateSpec(n, w, p) for n, w, p in word))


def random_word(rng, width: int, length: int, names) -> list:
    word = []
    for _ in range(length):
        name = names[int(rng.integers(len(names)))]
        count, takes_phase = oracles.ARITY[name]
        wires = tuple(int(w) for w in rng.permutation(width)[:count])
        word.append((name, wires, float(rng.uniform(0, 2 * math.pi)) if takes_phase else None))
    return word


def insert_cancelling(rng, word, pairs: int, width: int, names) -> list:
    """The same word with ``pairs`` gate pairs that multiply to the identity
    inserted at random places: G G for self-inverse G, R(p) R(-p), XX(p) XX(-p)."""
    names = [n for n in names if n != "T"]      # T T is S, not the identity
    out = list(word)
    for _ in range(pairs):
        name, wires, phase = random_word(rng, width, 1, names)[0]
        inverse = None if phase is None else -phase
        at = int(rng.integers(len(out) + 1))
        out[at:at] = [(name, wires, phase), (name, wires, inverse)]
    return out


def _has_witness(report) -> int:
    return int(report.witness_state is not None or report.witness_event is not None)


# ---------------------------------------------------------------------------
# circuits: dense composition and the seven relation deciders

WIDTH = 7
WORD_LEN = 12
CANCEL_PAIRS = 3
CIRCUIT_GATES = ("H", "T", "X", "Z", "R", "CNOT", "XX", "TOFFOLI")
PERIOD_N, PERIOD_R, PERIOD_SAMPLES = 512, 32, 8
# quantified relation -> (state, event): the parts of the context it
# quantifies over, which a failed verdict's witness must hold
WITNESS = {"equiv_rho": (False, True), "equiv_P": (True, False), "equiv_total": (True, True),
           "leq_rho": (False, True), "leq_P": (True, False)}


def circuits_input(rng) -> dict:
    names = CIRCUIT_GATES
    base = random_word(rng, WIDTH, WORD_LEN, names)
    plain = {
        "random_u": random_word(rng, WIDTH, WORD_LEN, names),
        "random_v": random_word(rng, WIDTH, WORD_LEN, names),
        "cancel_u": base,
        "cancel_v": insert_cancelling(rng, base, CANCEL_PAIRS, WIDTH, names),
    }
    values = rng.permutation(10 * PERIOD_R)[:PERIOD_R]
    return {
        "plain": plain,
        "words": {k: library_word(w, WIDTH) for k, w in plain.items()},
        "psi": oracles.random_unit_vector(rng, 2 ** WIDTH),
        "phi": oracles.random_unit_vector(rng, 2 ** WIDTH),
        "period": algorithms.PeriodicSpec(
            PERIOD_N, PERIOD_R, tuple(int(values[x % PERIOD_R]) for x in range(PERIOD_N))),
        "sample_seed": int(rng.integers(2 ** 31)),
    }


def _decide(tr, name: str, fn, *args):
    with tr.span("logic." + name) as rec:
        report = fn(*args)
    rec["counts"]["witnesses"] = _has_witness(report)
    return report


def circuits_run(inp: dict, tr) -> dict:
    with tr.span("qcore.DensityOperator"):
        rho = qcore.DensityOperator(np.outer(inp["psi"], inp["psi"].conj()))
    with tr.span("qcore.Projector"):
        p = qcore.Projector(np.outer(inp["phi"], inp["phi"].conj()))
    us = {}
    for key, word in inp["words"].items():
        with tr.span("gates.compose_word", gates=len(word)):
            us[key] = gates.compose_word(word)
    pairs = {}
    for pair in ("random", "cancel"):
        u, v = us[pair + "_u"], us[pair + "_v"]
        r = {
            "equiv_rho_P": _decide(tr, "equiv_rho_P", logic.equiv_rho_P, u, v, rho, p),
            "equiv_rho": _decide(tr, "equiv_rho", logic.equiv_rho, u, v, rho),
            "equiv_P": _decide(tr, "equiv_P", logic.equiv_P, u, v, p),
            "equiv_total": _decide(tr, "equiv_total", logic.equiv_total, u, v),
        }
        for rel, args in (("leq_rho_P", (rho, p)), ("leq_rho", (rho,)), ("leq_P", (p,))):
            fn = getattr(logic, rel)
            r[rel] = _decide(tr, rel, fn, u, v, *args)
            r[rel + "~"] = _decide(tr, rel, fn, v, u, *args)   # the reverse direction
        with tr.span("logic.hierarchy_check") as rec:
            audit = logic.hierarchy_check(u, v, rho, p)
        rec["counts"]["witnesses"] = _has_witness(audit.total) + _has_witness(audit.state)
        r["hierarchy"] = audit
        pairs[pair] = r
    with tr.span("algorithms.period_find"):
        period = algorithms.period_find(inp["period"], samples=PERIOD_SAMPLES,
                                        seed=inp["sample_seed"])
    return {"pairs": pairs, "period": period}


def _separation(word_a, word_b, state, event) -> float:
    """Oracle truth value of a minus that of b at a rank-one state."""
    psi = oracles.pure_vector(state)
    return (oracles.truth_value(word_a, WIDTH, psi, event)
            - oracles.truth_value(word_b, WIDTH, psi, event))


def circuits_check(inp: dict, out: dict) -> list[str]:
    c = Checks()
    plain, psi, phi = inp["plain"], inp["psi"], inp["phi"]
    event = np.outer(phi, phi.conj())
    state = np.outer(psi, psi.conj())
    tv = {k: oracles.truth_value(w, WIDTH, psi, event) for k, w in plain.items()}
    for pair, r in out["pairs"].items():
        a, b = plain[pair + "_u"], plain[pair + "_v"]
        ta, tb = tv[pair + "_u"], tv[pair + "_v"]
        for rel, lhs, rhs in (("equiv_rho_P", ta, tb), ("leq_rho_P", ta, tb),
                              ("leq_rho_P~", tb, ta)):
            rep = r[rel]
            c.expect(abs(rep.lhs - lhs) <= MATCH and abs(rep.rhs - rhs) <= MATCH,
                     f"{pair} {rel}: truth values {rep.lhs}, {rep.rhs} vs oracle {lhs}, {rhs}")
        c.expect(r["equiv_rho_P"].holds == (abs(ta - tb) <= TOL), f"{pair} equiv_rho_P verdict")
        c.expect(r["leq_rho_P"].holds == (ta <= tb + TOL), f"{pair} leq_rho_P verdict")
        if pair == "cancel":
            for rel, rep in r.items():
                if rel != "hierarchy":
                    c.expect(rep.holds, f"cancelling pairs broke {rel}")
        # the hierarchy: total => state => pointwise, total => event => pointwise,
        # and each equivalence gives the preorder both ways
        h = {rel: rep.holds for rel, rep in r.items() if rel != "hierarchy"}
        for strong, weak in (("equiv_total", "equiv_rho"), ("equiv_rho", "equiv_rho_P"),
                             ("equiv_total", "equiv_P"), ("equiv_P", "equiv_rho_P"),
                             ("equiv_rho_P", "leq_rho_P"), ("equiv_rho_P", "leq_rho_P~"),
                             ("equiv_rho", "leq_rho"), ("equiv_rho", "leq_rho~"),
                             ("equiv_P", "leq_P"), ("equiv_P", "leq_P~")):
            c.expect(not h[strong] or h[weak], f"{pair}: {strong} held but {weak} failed")
        audit = r["hierarchy"]
        c.expect(audit.verdicts == (h["equiv_total"], h["equiv_rho"], h["equiv_rho_P"]),
                 f"{pair}: hierarchy_check verdicts {audit.verdicts} disagree with the deciders")
        # a failed quantified relation must come with a context that separates
        for rel in (*WITNESS, "leq_rho~", "leq_P~"):
            rep = r[rel]
            if rep.holds:
                continue
            u_word, v_word = (b, a) if rel.endswith("~") else (a, b)
            has = (rep.witness_state is not None, rep.witness_event is not None)
            if has != WITNESS[rel.rstrip("~")]:
                c.expect(False, f"{pair} {rel}: failed with witness parts {has}")
                continue
            w_state = state if rep.witness_state is None else rep.witness_state.matrix
            w_event = event if rep.witness_event is None else rep.witness_event.matrix
            sep = _separation(u_word, v_word, w_state, w_event)
            if rel.startswith("leq"):
                c.expect(sep > TOL, f"{pair} {rel}: witness gives {sep:.3e}, not a violation")
            else:
                c.expect(abs(sep) > TOL, f"{pair} {rel}: witness separates by {sep:.3e}")
    run = out["period"]
    dist = np.array([run.outcome_distribution[str(x)] for x in range(PERIOD_N)])
    gap = float(np.max(np.abs(dist - oracles.period_distribution(PERIOD_N, PERIOD_R))))
    c.expect(gap <= MATCH, f"period_find distribution off the closed form by {gap:.3e}")
    c.expect(abs(run.success_probability - oracles.period_success(PERIOD_R)) <= MATCH,
             f"period_find success {run.success_probability}")
    estimate = int(run.verdict.split("=")[1])
    c.expect(PERIOD_R % estimate == 0, f"period estimate {estimate} does not divide {PERIOD_R}")
    return c.failures


# ---------------------------------------------------------------------------
# quotient: hundreds of small words through the same gates/logic layers

Q_WIDTH, Q_MAX_LEN, Q_PHASES = 2, 3, 2


def quotient_input(rng) -> dict:
    return {
        "phases": tuple(float(x) for x in rng.uniform(0, 2 * math.pi, Q_PHASES)),
        "psi": oracles.random_unit_vector(rng, 2 ** Q_WIDTH),
        "phi": oracles.random_unit_vector(rng, 2 ** Q_WIDTH),
    }


def quotient_run(inp: dict, tr) -> dict:
    with tr.span("qcore.DensityOperator"):
        rho = qcore.DensityOperator(np.outer(inp["psi"], inp["psi"].conj()))
    with tr.span("qcore.Projector"):
        p = qcore.Projector(np.outer(inp["phi"], inp["phi"].conj()))
    with tr.span("gates.enumerate_polynomials") as rec:
        words = gates.enumerate_polynomials(
            gates.generator_set("G2", phases=inp["phases"]), Q_WIDTH, Q_MAX_LEN)
    rec["counts"]["words"] = len(words)
    parts = {}
    for relation, event in (("equiv_rho_P", p), ("equiv_rho", None)):
        with tr.span("logic.quotient", words=len(words)) as rec:
            parts[relation] = logic.quotient(words, relation, rho, event)
        rec["counts"]["classes"] = len(parts[relation].classes)
    return {"words": words, "parts": parts}


def quotient_check(inp: dict, out: dict) -> list[str]:
    c = Checks()
    words = out["words"]
    letters = 2 + Q_WIDTH + Q_WIDTH * Q_PHASES     # CNOT placements, H, R per phase
    expected = sum(letters ** k for k in range(Q_MAX_LEN + 1))
    c.expect(len(words) == expected, f"{len(words)} words, expected {expected}")
    c.expect(len(set(words)) == len(words), "enumeration repeats a word")
    index = {w: i for i, w in enumerate(words)}
    event = np.outer(inp["phi"], inp["phi"].conj())
    vecs = np.array([oracles.run_word([(s.name, s.wires, s.param) for s in w.word],
                                      Q_WIDTH, inp["psi"]) for w in words])
    invariants = {
        "equiv_rho_P": np.einsum("wi,ij,wj->w", vecs.conj(), event, vecs).real[:, None],
        "equiv_rho": np.einsum("wi,wj->wij", vecs, vecs.conj()).reshape(len(words), -1),
    }
    for relation, part in out["parts"].items():
        members = [index.get(w, -1) for cls in part.classes for w in cls]
        c.expect(sorted(members) == list(range(len(words))),
                 f"{relation}: classes do not partition the input")
        if c.failures:
            continue
        inv = invariants[relation]
        firsts = []
        for cls in part.classes:
            ids = [index[w] for w in cls]
            spread = float(np.max(np.abs(inv[ids] - inv[ids[0]])))
            c.expect(spread <= TOL, f"{relation}: a class spans {spread:.3e} > tol")
            firsts.append(ids[0])
        reps = inv[firsts]
        gaps = np.max(np.abs(reps[:, None, :] - reps[None, :, :]), axis=2)
        np.fill_diagonal(gaps, np.inf)
        c.expect(float(gaps.min()) > TOL, f"{relation}: two classes lie {gaps.min():.3e} apart")
    return c.failures


# ---------------------------------------------------------------------------
# lattices: projector closure, lattice JSON and the law battery

L_DIM, L_ATOM_BITS = 4, 3


def _mask_label(mask: int, atoms: int) -> str:
    return "{" + ",".join(f"a{k}" for k in range(atoms) if mask >> k & 1) + "}"


def boolean_payload(rng, atom_bits: int) -> dict:
    """Lattice JSON for the subsets of 2**atom_bits atoms, elements shuffled,
    ``leq`` given as covering pairs only (the closure is left to the reader)."""
    atoms = 2 ** atom_bits
    full = 2 ** atoms - 1
    order = [int(m) for m in rng.permutation(full + 1)]
    label = lambda m: _mask_label(m, atoms)
    return {
        "elements": [label(m) for m in order],
        "leq": {label(m): [label(m | 1 << k) for k in range(atoms) if not m >> k & 1]
                for m in order},
        "ortho": {label(m): label(full ^ m) for m in order},
        "zero": label(0),
        "one": label(full),
    }


def _label_mask(label: str) -> int:
    body = label.strip("{}")
    return sum(1 << int(a[1:]) for a in body.split(",")) if body else 0


def lattices_input(rng) -> dict:
    while True:     # a non-commuting pair, neither equal nor orthogonal
        a, b = oracles.random_unit_vector(rng, 2), oracles.random_unit_vector(rng, 2)
        if 0.1 <= abs(np.vdot(a, b)) ** 2 <= 0.9:
            break
    return {
        "basis": oracles.random_unitary(rng, L_DIM),
        "pair": (a, b),
        "payload": boolean_payload(rng, L_ATOM_BITS),
    }


def lattices_run(inp: dict, tr) -> dict:
    family = []
    for vec in list(inp["basis"].T) + list(inp["pair"]):
        with tr.span("qcore.Projector"):
            family.append(qcore.Projector(np.outer(vec, vec.conj())))
    built = {}
    for key, dim, members in (("basis", L_DIM, family[:L_DIM]), ("pair", 2, family[L_DIM:])):
        with tr.span("omlattice.projection_oml") as rec:
            built[key] = omlattice.projection_oml(dim, members)
        rec["counts"]["elements"] = len(built[key])
    with tr.span("omlattice.lattice_from_json") as rec:
        built["boolean"] = omlattice.lattice_from_json(inp["payload"])
    rec["counts"]["elements"] = len(built["boolean"])
    laws = {}
    for key, lattice in built.items():
        with tr.span("omlattice.verify_laws"):
            laws[key] = {r.law: r.holds for r in omlattice.verify_laws(lattice)}
    return {"lattices": built, "laws": laws}


def lattices_check(inp: dict, out: dict) -> list[str]:
    c = Checks()
    lat, laws = out["lattices"], out["laws"]
    sizes = {"basis": oracles.basis_closure_size(L_DIM), "pair": oracles.pair_closure_size(),
             "boolean": oracles.boolean_size(L_ATOM_BITS)}
    for key, size in sizes.items():
        c.expect(len(lat[key]) == size, f"{key}: {len(lat[key])} elements, expected {size}")
        bad = [law for law in omlattice.REQUIRED_LAWS if not laws[key].get(law)]
        c.expect(not bad, f"{key}: required laws fail: {bad}")
    c.expect(laws["basis"]["distributive"], "basis closure is not distributive")
    c.expect(laws["boolean"]["distributive"], "Boolean lattice is not distributive")
    c.expect(not laws["pair"]["distributive"], "the C^2 pair came out distributive")
    if c.failures:
        return c.failures

    def subset_order(masks):
        m = np.array(masks)
        return (m[:, None] & ~m[None, :]) == 0

    # every element of the basis closure is the sum of a subset of the basis
    basis = inp["basis"]
    masks = []
    for m in lat["basis"].matrices:
        weights = np.einsum("ik,ij,jk->k", basis.conj(), m, basis).real
        mask = int(sum(1 << k for k in range(L_DIM) if weights[k] > 0.5))
        rebuilt = (basis * (weights > 0.5)) @ basis.conj().T
        c.expect(float(np.max(np.abs(m - rebuilt))) <= MATCH,
                 "basis closure holds a projector that is no sum of basis members")
        masks.append(mask)
    c.expect(sorted(masks) == list(range(2 ** L_DIM)), "basis closure misses a subset")
    c.expect(np.array_equal(lat["basis"].leq, subset_order(masks)),
             "basis closure order is not subset inclusion")
    # the pair closure holds both projectors and their complements
    for vec in inp["pair"]:
        proj = np.outer(vec, vec.conj())
        for m in (proj, np.eye(2) - proj):
            near = min(float(np.max(np.abs(e - m))) for e in lat["pair"].matrices)
            c.expect(near <= MATCH, "pair closure lost an input projector or its complement")
    # the Boolean lattice read back from shuffled JSON keeps subset inclusion
    boolean = lat["boolean"]
    masks = [_label_mask(s) for s in boolean.labels]
    full = 2 ** 2 ** L_ATOM_BITS - 1
    c.expect(np.array_equal(boolean.leq, subset_order(masks)),
             "Boolean order is not subset inclusion of the labels")
    c.expect(all(masks[int(boolean.ortho[i])] == full ^ masks[i] for i in range(len(masks))),
             "Boolean orthocomplement is not set complement")
    c.expect(masks[boolean.zero] == 0 and masks[boolean.one] == full, "Boolean bounds")
    return c.failures


# ---------------------------------------------------------------------------
# cli-cold: each verb once, each in a fresh interpreter

CLI_WIDTH = 2
CLI_PHASES = 2
CLI_PERIOD_N = 16
CLI_CASES = 20


def _word_text(word) -> str:
    """The word in the CLI's text syntax, phases with every digit."""
    segs = [name + ("" if p is None else f"({p!r})") + "[" + ",".join(map(str, wires)) + "]"
            for name, wires, p in word]
    return "; ".join([f"width={CLI_WIDTH}", *segs])


def cli_input(rng) -> dict:
    names = ("H", "T", "X", "Z", "R", "CNOT", "XX")
    base = random_word(rng, CLI_WIDTH, 4, names)
    table_word = random_word(rng, CLI_WIDTH, 5, names)
    bits = [str(int(b)) for b in rng.integers(0, 2, 2)]
    r = (2, 4, 8)[int(rng.integers(3))]
    values = [int(v) for v in rng.permutation(100)[:r]]
    start = int(rng.integers(2 ** CLI_WIDTH))
    phases = [float(x) for x in rng.uniform(0, 2 * math.pi, CLI_PHASES)]
    lattice = boolean_payload(rng, 2)
    plain = {"a": base, "b": insert_cancelling(rng, base, 2, CLI_WIDTH, names),
             "table": table_word}
    verbs = {
        "check-equiv": [_word_text(plain["a"]), _word_text(plain["b"])],
        "truth-table": [_word_text(table_word), "--state", f"basis:{start}"],
        "quotient": ["--generators", "G2", "--width", "1", "--max-len", "3",
                     "--state", "basis:0", "--event", "basis:0"]
                    + [arg for p in phases for arg in ("--phase", repr(p))],
        "run-dj": [json.dumps({"n": 1, "m": 1, "table": {"0": bits[0], "1": bits[1]}})],
        "run-period": [json.dumps({"N": CLI_PERIOD_N, "r": r,
                                   "f": [values[x % r] for x in range(CLI_PERIOD_N)]})],
        "lattice-verify": [json.dumps(lattice)],
        "boolean-recover": ["--bits", "2", "--cases", str(CLI_CASES),
                            "--seed", str(int(rng.integers(2 ** 31)))],
    }
    return {"plain": plain, "start": start, "bits": bits, "r": r, "verbs": verbs}


# what the installed ``qclogic`` console script runs
CLI_MAIN = "import sys; from qclogic.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import qclogic; "
                "print(time.perf_counter() - t)")


def import_seconds(root: str) -> float:
    """Time of ``import qclogic`` in a fresh interpreter, measured inside it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=child_env(root),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def make_cli_run(root: str):
    env = child_env(root)

    def cli_run(inp: dict, tr) -> dict:
        results = {}
        for verb, args in inp["verbs"].items():
            with tr.span("cli." + verb):
                results[verb] = subprocess.run([sys.executable, "-c", CLI_MAIN, verb, *args],
                                               cwd=root, env=env, capture_output=True,
                                               text=True, timeout=120)
        return results

    return cli_run


def cli_check(inp: dict, out: dict) -> list[str]:
    c = Checks()
    reports = {}
    for verb, proc in out.items():
        c.expect(proc.returncode == 0, f"{verb} exited {proc.returncode}: {proc.stderr[-300:]}")
        if proc.returncode == 0:
            reports[verb] = json.loads(proc.stdout)
    if c.failures:
        return c.failures
    plain, dim = inp["plain"], 2 ** CLI_WIDTH

    rep = reports["check-equiv"]
    same = np.max(np.abs(oracles.word_matrix(plain["a"], CLI_WIDTH)
                         - oracles.word_matrix(plain["b"], CLI_WIDTH))) <= MATCH
    c.expect(same and rep["holds"] is True and rep["strict_equal"] is True,
             f"check-equiv on equal words: {rep}")

    column = oracles.word_matrix(plain["table"], CLI_WIDTH)[:, inp["start"]]
    values = reports["truth-table"]["values"]
    c.expect(sorted(values) == [f"basis:{k}" for k in range(dim)]
             and all(abs(values[f"basis:{k}"] - abs(column[k]) ** 2) <= MATCH
                     for k in range(dim)), f"truth-table values {values}")

    rep = reports["quotient"]
    listed = [oracles.parse_word_text(t) for cls in rep["classes"] for t in cls]
    c.expect(len(listed) == sum(3 ** k for k in range(4)) and rep["count"] == len(rep["classes"]),
             "quotient lists the wrong number of words")
    ket0 = np.eye(2, dtype=complex)[0]
    tv = lambda w: abs(oracles.run_word(w, 1, ket0)[0]) ** 2
    for cls in rep["classes"]:
        first = tv(oracles.parse_word_text(cls[0])[1])
        c.expect(all(abs(tv(oracles.parse_word_text(t)[1]) - first) <= TOL for t in cls),
                 "quotient class mixes truth values")
    reps = np.array([tv(oracles.parse_word_text(cls[0])[1]) for cls in rep["classes"]])
    c.expect(oracles.group_within(reps, TOL) == len(reps), "quotient splits one class")

    verdict, dist = oracles.dj_expected(*inp["bits"])
    rep = reports["run-dj"]
    c.expect(rep["verdict"] == verdict and rep["distribution"] == dist
             and rep["success_probability"] == 1.0, f"run-dj {rep} vs {verdict}")

    rep = reports["run-period"]
    want = oracles.period_distribution(CLI_PERIOD_N, inp["r"])
    got = np.array([rep["distribution"][str(x)] for x in range(CLI_PERIOD_N)])
    c.expect(float(np.max(np.abs(got - want))) <= MATCH
             and abs(rep["success_probability"] - oracles.period_success(inp["r"])) <= MATCH
             and inp["r"] % int(rep["verdict"].split("=")[1]) == 0, f"run-period {rep}")

    rep = reports["lattice-verify"]
    c.expect(rep["elements"] == oracles.boolean_size(2) and rep["required_pass"] is True
             and all(law["holds"] for law in rep["laws"]), f"lattice-verify {rep}")

    rep = reports["boolean-recover"]
    c.expect(rep == {"bits": 2, "event_count": 16, "expected_events": 16,
                     "distributive": True, "orthomodular": True,
                     "classical_cases": CLI_CASES * dim * dim, "classical_mismatches": 0},
             f"boolean-recover {rep}")
    return c.failures


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make_input: Callable[[Any], dict]
    run: Callable[[dict, Any], Any]
    check: Callable[[dict, Any], list]


def workloads(root: str) -> dict[str, Workload]:
    return {
        "circuits": Workload(circuits_input, circuits_run, circuits_check),
        "quotient": Workload(quotient_input, quotient_run, quotient_check),
        "lattices": Workload(lattices_input, lattices_run, lattices_check),
        "cli-cold": Workload(cli_input, make_cli_run(root), cli_check),
    }
