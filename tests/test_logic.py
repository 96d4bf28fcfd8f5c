import ast
import contextlib
import inspect
import itertools
import math
import sys
from collections import Counter
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from qclogic import gates, logic, qcore
from qclogic.errors import DimensionMismatch, NonRealTrace, ValidationFailure
from qclogic.logic import (
    EquivalenceReport,
    QuotientPartition,
    equiv_P,
    equiv_rho,
    equiv_rho_P,
    equiv_total,
    hierarchy_check,
    leq_P,
    leq_rho,
    leq_rho_P,
    quotient,
    truth_value,
)

EYE = qcore.UnitaryGate(np.eye(2))
HGATE = qcore.UnitaryGate(helpers.HADAMARD)
XGATE = qcore.UnitaryGate(helpers.PAULI_X)
ZGATE = qcore.UnitaryGate(helpers.PAULI_Z)
ZERO = qcore.DensityOperator(np.diag([1.0, 0.0]))
PLUS = qcore.DensityOperator(helpers.KET_PLUS)
P_ZERO = qcore.Projector(np.diag([1.0, 0.0]))
P_PLUS = qcore.Projector(helpers.KET_PLUS)


def test_truth_value_examples():
    assert truth_value(EYE, ZERO, P_ZERO) == 1.0
    assert truth_value(HGATE, ZERO, P_ZERO) == pytest.approx(0.5, abs=1e-12)
    assert truth_value(XGATE, ZERO, P_ZERO) == pytest.approx(0.0, abs=1e-12)
    # phase gate on |+> against the |+> event: cos^2(pi/8)
    t = qcore.UnitaryGate(np.diag([1.0, np.exp(1j * np.pi / 4)]))
    want = abs((1 + np.exp(1j * np.pi / 4)) / 2) ** 2
    assert truth_value(t, PLUS, P_PLUS) == pytest.approx(want, abs=1e-12)


def test_truth_value_matches_independent_oracle():
    gen = helpers.rng(101)
    for dim in (2, 4):
        for _ in range(50):
            u = qcore.UnitaryGate(helpers.random_unitary(gen, dim))
            rho = qcore.DensityOperator(helpers.random_density(gen, dim))
            p = qcore.Projector(helpers.random_projector(gen, dim))
            want = helpers.truth_value_oracle(u.matrix, rho.matrix, p.matrix)
            assert truth_value(u, rho, p) == pytest.approx(want, abs=1e-12)


def test_equiv_rho_P_pointwise():
    rep = equiv_rho_P(EYE, ZGATE, ZERO, P_ZERO)
    assert rep.holds and rep.lhs == rep.rhs == 1.0
    # I and X disagree on the state |0><0| yet agree at the event |+><+|
    rep = equiv_rho_P(EYE, XGATE, ZERO, P_PLUS)
    assert rep.holds
    assert rep.lhs == pytest.approx(0.5, abs=1e-12)
    rep = equiv_rho_P(EYE, XGATE, ZERO, P_ZERO)
    assert not rep.holds and rep.lhs == 1.0 and rep.rhs == pytest.approx(0.0)


def test_equiv_rho_with_witness():
    assert equiv_rho(EYE, ZGATE, ZERO).holds
    assert equiv_rho(EYE, XGATE, PLUS).holds
    rep = equiv_rho(EYE, ZGATE, PLUS)
    assert not rep.holds
    w = rep.witness_event
    gap = abs(truth_value(EYE, PLUS, w) - truth_value(ZGATE, PLUS, w))
    assert gap > 1e-6


def test_equiv_P_with_witness():
    assert equiv_P(EYE, ZGATE, P_ZERO).holds
    rep = equiv_P(EYE, ZGATE, P_PLUS)
    assert not rep.holds
    rho = rep.witness_state
    gap = abs(truth_value(EYE, rho, P_PLUS) - truth_value(ZGATE, rho, P_PLUS))
    assert gap > 1e-6


def test_equiv_total_recovers_global_phase():
    rep = equiv_total(HGATE, HGATE)
    assert rep.holds and rep.theta == 0.0 and rep.strict_equal
    v = qcore.UnitaryGate(np.exp(1j * np.pi / 3) * helpers.HADAMARD)
    rep = equiv_total(HGATE, v)
    assert rep.holds and not rep.strict_equal
    assert rep.theta == pytest.approx(-np.pi / 3, abs=1e-12)
    # recovered phase reproduces U from V
    assert np.max(np.abs(np.exp(1j * rep.theta) * v.matrix
                         - HGATE.matrix)) < 1e-12


def test_equiv_total_failure_gives_separating_context():
    rep = equiv_total(EYE, ZGATE)
    assert not rep.holds
    # Z's eigenphases 0 and pi span an arc of exactly pi: the two ends with
    # weights 1/2 give |+><+|, which Z moves to the orthogonal |-><-|
    assert np.max(np.abs(rep.witness_state.matrix - helpers.KET_PLUS)) < 1e-9
    gap = abs(truth_value(EYE, rep.witness_state, rep.witness_event)
              - truth_value(ZGATE, rep.witness_state, rep.witness_event))
    assert gap == pytest.approx(1.0, abs=1e-12)


def test_a_failing_report_equals_itself_when_computed_again():
    h = gates.compose_word(gates.parse_word("H"))
    z = gates.compose_word(gates.parse_word("Z"))
    first, again = equiv_total(h, z), equiv_total(h, z)
    assert not first.holds and first.witness_state is not None
    assert first == again and hash(first) == hash(again)
    assert first != equiv_total(z, h)


def test_equiv_total_witness_separates_random_pairs():
    gen = helpers.rng(103)
    for dim in (2, 4):
        for _ in range(20):
            u = qcore.UnitaryGate(helpers.random_unitary(gen, dim))
            v = qcore.UnitaryGate(helpers.random_unitary(gen, dim))
            rep = equiv_total(u, v)
            if rep.holds:
                continue
            gap = abs(truth_value(u, rep.witness_state, rep.witness_event)
                      - truth_value(v, rep.witness_state, rep.witness_event))
            assert gap > 1e-8


# failing pairs whose event used to hang on which end eigh's rounding put
# first, or not: the latter print the same bytes as before
_FAILING_WORDS = [("H", "Z"), ("H", "X"), ("X", "Z"), ("T", "Z"),
                  ("width=2; H[0]; CNOT[0,1]", "width=2; CNOT[0,1]; H[0]"),
                  ("width=3; QFT[0,1,2]", "width=3; QFT[0,1,2]; T[1]")]


def test_equiv_total_event_favours_the_first_gate_by_the_hull_bound():
    # the event is the +s eigenvector of |U psi><U psi| - |V psi><V psi|,
    # chosen by rule: U's truth value there exceeds V's by s = sqrt(1 - r^2)
    gen = helpers.rng(26)
    pairs = [tuple(gates.compose_word(gates.parse_word(w)).matrix for w in words)
             for words in _FAILING_WORDS]
    pairs += [(helpers.random_unitary(gen, dim), helpers.random_unitary(gen, dim))
              for dim in (2, 3, 4, 8, 16) for _ in range(4)]
    for u, v in pairs:
        for a, b in ((u, v), (v, u)):
            rep = equiv_total(qcore.UnitaryGate(a), qcore.UnitaryGate(b))
            assert not rep.holds
            rho, p = rep.witness_state.matrix, rep.witness_event.matrix
            gap = helpers.truth_value_oracle(a, rho, p) - helpers.truth_value_oracle(b, rho, p)
            r = helpers.hull_distance(np.linalg.eigvals(b.conj().T @ a))
            assert gap == pytest.approx(math.sqrt(1 - r * r), abs=1e-9)


def _separation_and_s(u: np.ndarray, v: np.ndarray, rho: np.ndarray,
                      p: np.ndarray) -> tuple:
    """At 50 digits, with psi the witness state's vector, a = U psi and
    b = V psi: <a|P|a> - <b|P|b>, and s, the largest eigenvalue of
    |a><a| - |b><b|, which is sqrt(1 - |<a|b>|^2) for unit a and b."""
    with mpmath.workdps(50):
        mat = lambda m: mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row]
                                       for row in m.tolist()])
        k = int(np.argmax(np.diagonal(rho).real))
        psi = mat(rho[:, [k]])
        psi /= mpmath.norm(psi)
        a, b, event = mat(u) * psi, mat(v) * psi, mat(p)
        dot = lambda x, y: sum(mpmath.conj(x[i]) * y[i] for i in range(len(x)))
        big, small, c = dot(a, a).real, dot(b, b).real, dot(a, b)
        half = (big - small) / 2
        s = half + mpmath.sqrt(half ** 2 + big * small - abs(c) ** 2)
        return float((dot(a, event * a) - dot(b, event * b)).real), float(s)


def test_equiv_total_event_separates_by_s_to_1e_14():
    # V = U W with W = exp(i eps H), H's eigenvalues spanning [-1, 1], so s
    # is about sin(eps), from 1e-10 to 1; the closed form's s avoids the
    # cancellation of sqrt(1 - |c|^2), which loses every digit below 1e-8
    gen = helpers.rng(14)
    for eps in np.logspace(-10, 0.19, 30):
        dim = int(gen.integers(2, 17))
        u, q = helpers.random_unitary(gen, dim), helpers.random_unitary(gen, dim)
        lam = np.concatenate([[-1.0, 1.0], gen.uniform(-1, 1, dim - 2)])
        v = u @ (q * np.exp(1j * eps * lam)) @ q.conj().T
        rep = equiv_total(qcore.UnitaryGate(u), qcore.UnitaryGate(v), tol=0)
        assert not rep.holds
        sep, s = _separation_and_s(u, v, rep.witness_state.matrix, rep.witness_event.matrix)
        assert s == pytest.approx(math.sin(eps), rel=0.05)
        assert abs(sep - s) <= 1e-14
        # the arc's ends are eps apart from 0 on either side, so the witness
        # reaches the hull bound sin(eps), even where eigenvalues within
        # 1e-11 of each other make one run
        assert abs(sep - math.sin(eps)) <= 1e-15


def _callers(name: str) -> set:
    """The functions of logic that call ``name``."""
    return {fn.name for fn in ast.walk(ast.parse(inspect.getsource(logic)))
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name}


def test_a_failing_equiv_total_takes_one_eigh_and_no_eig():
    # the event is in closed form, so only _unitary_eig solves an
    # eigenproblem; the closed form is one function, which the context
    # deciders' rank-one case shares
    gen = helpers.rng(5)
    u, v = (qcore.UnitaryGate(helpers.random_unitary(gen, 32)) for _ in "uv")
    with _counting("eigh", "eig", "eigvalsh") as calls:
        assert not equiv_total(u, v).holds
    assert calls() == (1, 0, 0)
    assert _callers("_top_pair") == {"_positive_part", "equiv_total"}


@contextlib.contextmanager
def _counting(*names):
    """Count calls of the named np.linalg functions; yields a function that
    returns the counts in the order named."""
    with contextlib.ExitStack() as stack:
        mocks = [stack.enter_context(mock.patch.object(
            np.linalg, name, wraps=getattr(np.linalg, name))) for name in names]
        yield lambda: tuple(m.call_count for m in mocks)


def test_a_witness_is_checked_as_its_vector():
    # a densely built rank-one event is factored on first use by one step
    # of pivoted Cholesky; the rank-one deciders are in closed form, and the
    # witness is built from its unit vector: no eigh, eigvalsh or eig at all
    gen = helpers.rng(8)
    u, v = (qcore.UnitaryGate(helpers.random_unitary(gen, 16)) for _ in "uv")
    psi = helpers.random_unitary(gen, 16)[:, 0]
    p = qcore.Projector(np.outer(psi, psi.conj()))
    with _counting("eigh", "eigvalsh", "eig") as calls:
        first = equiv_P(u, v, p)
    assert not first.holds and calls() == (0, 0, 0)
    with _counting("eigh", "eigvalsh", "eig") as calls:
        rep = leq_P(u, v, p)
        built = leq_P(u, v, qcore._onto(qcore.Projector, psi))
    assert calls() == (0, 0, 0) and not rep.holds and not built.holds
    # leq_P decides exactly as equiv_P, witness bytes included
    assert rep.witness_state.matrix.tobytes() == first.witness_state.matrix.tobytes()


class _Products(np.ndarray):
    """An array that records the shapes of the matrix products it enters."""

    seen: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _Products.seen.append(tuple(np.shape(x) for x in inputs))
        plain = [x.view(np.ndarray) if isinstance(x, _Products) else x for x in inputs]
        out = getattr(ufunc, method)(*plain, **kwargs)
        return out.view(_Products) if isinstance(out, np.ndarray) else out


def test_rank_one_context_deciders_solve_no_eigenproblem_and_form_no_square_product():
    # with the context's factor in hand, every context decider is matrix-
    # vector products and closed forms: nothing of d x d x d work
    gen = helpers.rng(81)
    dim = 32
    u, v = (qcore.UnitaryGate(helpers.random_unitary(gen, dim)) for _ in "uv")
    rho = qcore.DensityOperator(helpers.random_pure(gen, dim))
    p = qcore.Projector(helpers.random_pure(gen, dim))
    rho._factors, p._factors          # one pivoted Cholesky step each, on first use
    for gate in (u, v):
        object.__setattr__(gate, "matrix", gate.matrix.view(_Products))
    _Products.seen = []
    with _counting("eigh", "eigvalsh", "eig") as calls:
        reports = [getattr(logic, rel)(a, b, *[rho if what == "state" else p
                                               for what in logic.CONTEXT[rel]])
                   for rel in CONTEXT_DECIDERS for a, b in ((u, v), (v, u))]
    assert calls() == (0, 0, 0)
    assert _Products.seen and all(shape[-1][-1] == 1 for shape in _Products.seen)
    assert sum(not r.holds for r in reports) >= 8


def test_a_job_of_dense_rank_one_contexts_solves_no_eigenproblem_but_equiv_totals(monkeypatch):
    # the shape of a benchmark circuits job: a dense pure state and a dense
    # rank-one event at d = 128 are checked and factored by one step of
    # pivoted Cholesky, so across every decider in both orders and hierarchy_check,
    # on a failing pair and on a holding one, no eigvalsh runs and every
    # eigh or eig is _unitary_eig's, for a failing equiv_total
    gen = helpers.rng(29)
    dim = 128
    u, v = (qcore.UnitaryGate(helpers.random_unitary(gen, dim)) for _ in "uv")
    near = qcore.UnitaryGate(np.exp(0.3j) * u.matrix)
    rho_matrix, p_matrix = helpers.random_pure(gen, dim), helpers.random_pure(gen, dim)
    callers = []
    for name in ("eigh", "eig"):
        def spy(*args, solve=getattr(np.linalg, name), **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return solve(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    with _counting("eigvalsh") as calls:
        rho, p = qcore.DensityOperator(rho_matrix), qcore.Projector(p_matrix)
        verdicts = []
        for a, b in ((u, v), (u, near)):
            for rel in logic.RELATIONS:
                context = [rho if what == "state" else p for what in logic.CONTEXT[rel]]
                verdicts += [getattr(logic, rel)(x, y, *context).holds
                             for x, y in ((a, b), (b, a))]
            hierarchy_check(a, b, rho, p)
    assert calls() == (0,)
    assert callers and set(callers) == {"_unitary_eig"}
    # of the failing pair's 14 verdicts only one holds: leq_rho_P in one order
    assert verdicts[:14].count(False) == 13 and verdicts[14:] == [True] * 14
    assert rho._factors[0].shape == p._factors[0].shape == (dim, 1)


def test_logic_builds_no_state_or_event_from_a_matrix(monkeypatch):
    # every state and event logic returns is built by qcore._onto from its
    # orthonormal columns, checked as those columns: a witness event onto a
    # positive part of rank two included
    built = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
             for node in ast.walk(ast.parse(inspect.getsource(logic)))
             if isinstance(node, ast.Call)}
    assert not built & {"DensityOperator", "Projector"}
    assert "_onto" in built
    columns = []
    onto = qcore._onto
    monkeypatch.setattr(logic, "_onto", lambda cls, q: columns.append(q) or onto(cls, q))
    gen = helpers.rng(31)
    u, v = (qcore.UnitaryGate(helpers.random_unitary(gen, 8)) for _ in "uv")
    rho = qcore.DensityOperator(0.6 * helpers.random_pure(gen, 8) + 0.4 * helpers.random_pure(gen, 8))
    rep = equiv_rho(u, v, rho)
    assert not rep.holds and [q.shape for q in columns] == [(8, 2)]
    assert np.max(np.abs(columns[0].conj().T @ columns[0] - np.eye(2))) <= 1e-14
    assert rep.witness_event.rank == 2
    assert np.trace(rep.witness_event.matrix).real == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(ValidationFailure) as exc:
        qcore._onto(qcore.Projector, np.eye(8, 2) * [1.0, 1 + 1e-8])
    assert exc.value.invariant == "orthonormal"


@pytest.mark.parametrize("word", ["H", "width=2; H[0]; CNOT[0,1]; H[1]",
                                  "width=3; QFT[0,1,2]; T[1]"])
def test_equiv_total_of_a_gate_and_itself_at_tol_0_gives_a_finite_witness(word):
    # V*U misses I by rounding: if its eigenvalues come out equal, the gap
    # is 0 and the relation holds at tol = 0; else it fails by rounding,
    # and U psi and V psi agree, so s is 0 and the event is |U psi><U psi|
    u = gates.compose_word(gates.parse_word(word))
    a = u.matrix @ helpers.random_pure(helpers.rng(3), u.dim)[:, 0]
    s, e = logic._top_pair(a, a)
    assert s == 0 and np.array_equal(e, a / np.linalg.norm(a))
    rep = equiv_total(u, u, tol=0)
    if not rep.holds:
        rho, p = rep.witness_state.matrix, rep.witness_event.matrix
        assert np.isfinite(p).all() and np.trace(p).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(p - u.matrix @ rho @ u.matrix.conj().T)) <= 1e-12


@pytest.mark.parametrize("word", ["H", "width=6; QFT[0,1,2,3,4,5]"])
def test_equiv_total_of_a_gate_valid_at_a_looser_tolerance_gives_a_unit_event(word):
    # U is unitary only within 1e-8, at its tolerance 1e-7: U psi has norm
    # 1 + 3e-9, so the event onto it is normalized before it is checked
    m = gates.compose_word(gates.parse_word(word)).matrix * (1 + 3e-9)
    u = qcore.UnitaryGate(m, 1e-7)
    a = m[:, 0]
    _, e = logic._top_pair(a, a)
    assert np.trace(qcore._onto(qcore.Projector, e).matrix).real == pytest.approx(1.0, abs=1e-15)
    rep = equiv_total(u, u, tol=0)
    assert rep.holds or np.trace(rep.witness_event.matrix).real == pytest.approx(1.0, abs=1e-15)


def test_equiv_total_separates_wide_pairs_at_a_loose_tol():
    # at width 5 and up a pure state's evolved entries are small, so at
    # tol = 0.2 equiv_rho often holds at every candidate state; the witness
    # must still separate the two gates
    gen = helpers.rng(2024)
    for width in (5, 6, 7) * 8:
        dim = 2 ** width
        u, v = (qcore.UnitaryGate(helpers.random_unitary(gen, dim)) for _ in "uv")
        rep = equiv_total(u, v, tol=0.2)
        assert not rep.holds
        rho, p = rep.witness_state.matrix, rep.witness_event.matrix
        assert (helpers.truth_value_oracle(u.matrix, rho, p)
                != helpers.truth_value_oracle(v.matrix, rho, p))


def _witness_separation(u: np.ndarray, v: np.ndarray) -> float:
    rep = equiv_total(qcore.UnitaryGate(u), qcore.UnitaryGate(v))
    assert not rep.holds
    rho, p = rep.witness_state.matrix, rep.witness_event.matrix
    return abs(helpers.truth_value_oracle(u, rho, p) - helpers.truth_value_oracle(v, rho, p))


PHASE_KINDS = ("straddle", "degenerate", "conjugate", "quarter", "near-one")


def _phase_family(kind: str, dim: int, gen: np.random.Generator) -> np.ndarray:
    """Eigenphases of V*U: phases that straddle +-pi within an arc of width
    up to 2pi, or a few phases repeated, with antipodal pairs and one
    eigenvalue written both as -pi and as pi; conjugate pairs theta and
    -theta + delta, whose cosines lie delta |sin theta| apart on either
    side of the cut between runs; every phase +-pi/2, one run of equal
    cosine; or every phase within 1e-3 of 0."""
    if kind == "straddle":
        width = gen.uniform(1e-3, 2 * np.pi)
        phases = np.pi + gen.uniform(-width / 2, width / 2, dim)
        phases[:2] = np.pi - width / 2, np.pi + width / 2
        return phases
    if kind == "quarter":
        return gen.choice([np.pi / 2, -np.pi / 2], dim)
    if kind == "near-one":
        return gen.uniform(-1e-3, 1e-3, dim)
    theta, other = gen.uniform(-np.pi, np.pi, 2)
    if kind == "conjugate":
        palette = np.array([theta, -theta + 10 ** gen.uniform(-9, -4), other])
    else:
        palette = np.array([np.pi, -np.pi, theta, theta + np.pi, other])
    return palette[gen.integers(0, len(palette), dim)]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 16), st.sampled_from(("random",) + PHASE_KINDS),
       st.integers(0, 2 ** 32 - 1))
def test_equiv_total_witness_reaches_the_hull_bound(dim, kind, seed):
    # at a pure state U psi and V psi lie sqrt(1 - |<psi|V*U|psi>|^2) apart,
    # and <psi|V*U|psi> ranges over the convex hull of V*U's eigenvalues, so
    # no context separates by more than sqrt(1 - r^2), r the hull's distance
    # from 0; the witness must reach it
    gen = helpers.rng(seed)
    v = helpers.random_unitary(gen, dim)
    if kind == "random":
        u = helpers.random_unitary(gen, dim)
        evals = np.linalg.eigvals(v.conj().T @ u)
    else:
        evals = np.exp(1j * _phase_family(kind, dim, gen))
        if np.allclose(evals, evals[0]):
            return
        w = helpers.random_unitary(gen, dim)
        u = v @ (w * evals) @ w.conj().T
    r = helpers.hull_distance(evals)
    assert _witness_separation(u, v) == pytest.approx(math.sqrt(1 - r * r), abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 32), st.sampled_from(("random",) + PHASE_KINDS),
       st.integers(0, 2 ** 32 - 1))
def test_unitary_eig_returns_an_orthonormal_eigenbasis(dim, kind, seed):
    # inside a run of equal cosine eig settles the basis exactly; across a
    # cut of width g eigh's vectors leak about eps / g into the other runs
    gen = helpers.rng(seed)
    if kind == "random":
        m = helpers.random_unitary(gen, dim)
        phases = np.angle(np.linalg.eigvals(m))
    else:
        phases = _phase_family(kind, dim, gen)
        w = helpers.random_unitary(gen, dim)
        m = (w * np.exp(1j * phases)) @ w.conj().T
    evals, q = logic._unitary_eig(m)
    assert np.max(np.abs(q.conj().T @ q - np.eye(dim))) <= 1e-12
    gaps = np.diff(np.sort(np.cos(phases)))
    cuts = gaps[gaps > logic._COS_RUN / 2]
    leak = 1e-14 / cuts.min() if cuts.size else 0.0
    assert np.max(np.abs(m @ q - q * evals)) <= 1e-12 + leak


def test_equiv_total_takes_eig_only_on_a_run_of_equal_cosine():
    def eig_shapes(u, v):
        with mock.patch.object(np.linalg, "eig", wraps=np.linalg.eig) as eig:
            assert not equiv_total(qcore.UnitaryGate(u), qcore.UnitaryGate(v)).holds
        return [c.args[0].shape for c in eig.call_args_list]

    # a random pair's cosines are all apart: one eigh and no eig
    gen = helpers.rng(5)
    assert eig_shapes(helpers.random_unitary(gen, 32), helpers.random_unitary(gen, 32)) == []
    # every eigenvalue +-i: one run of cosine 0, the whole 4 x 4 block
    w = helpers.random_unitary(gen, 4)
    u = (w * np.array([1j, -1j, 1j, -1j])) @ w.conj().T
    assert eig_shapes(u, np.eye(4)) == [(4, 4)]
    assert _witness_separation(u, np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    # a run of one repeated eigenvalue is diagonal already
    u = (w * np.array([1j, 1j, 1j, 1.0])) @ w.conj().T
    assert eig_shapes(u, np.eye(4)) == []


def test_equiv_total_witness_across_pi_and_with_repeated_eigenvalues():
    # phases -3.1 and 3.1 straddle +-pi: no arc shorter than pi holds the
    # spectrum, so 0 is in the hull and the witness separates fully
    u = np.diag(np.exp(1j * np.array([-3.1, 0.0, 3.1, 0.0])))
    assert _witness_separation(u, np.eye(4)) >= 0.999
    # -1 written as both -pi and pi is one eigenvalue, and each eigenvalue
    # is repeated: one eigenvector per distinct eigenvalue
    gen = helpers.rng(12)
    w = helpers.random_unitary(gen, 12)
    phases = np.array([np.pi, -np.pi, -2.0, 0.0, 0.5] * 3)[:12]
    u = (w * np.exp(1j * phases)) @ w.conj().T
    assert _witness_separation(u, np.eye(12)) == pytest.approx(1.0, abs=1e-9)
    # a spectrum in an arc shorter than pi: the arc's ends, r = cos(arc / 2)
    u = np.diag(np.exp(1j * np.array([0.2, 0.2, 1.0, 1.4])))
    assert _witness_separation(u, np.eye(4)) == pytest.approx(math.sin(0.6), abs=1e-12)


def test_leq_rho_P():
    assert leq_rho_P(XGATE, EYE, ZERO, P_ZERO).holds       # 0 <= 1
    assert not leq_rho_P(EYE, XGATE, ZERO, P_ZERO).holds   # 1 <= 0 fails
    rep = leq_rho_P(HGATE, EYE, ZERO, P_ZERO)
    assert rep.holds and rep.lhs == pytest.approx(0.5) and rep.rhs == 1.0


def test_leq_rho_and_leq_P_witnesses():
    rep = leq_rho(EYE, XGATE, ZERO)
    assert not rep.holds
    w = rep.witness_event
    assert truth_value(EYE, ZERO, w) > truth_value(XGATE, ZERO, w) + 1e-6
    rep = leq_P(EYE, ZGATE, P_PLUS)
    assert not rep.holds
    s = rep.witness_state
    assert truth_value(EYE, s, P_PLUS) > truth_value(ZGATE, s, P_PLUS) + 1e-6


def test_leq_between_unitary_conjugates_means_equality():
    # V rho V* - U rho U* has zero trace, so semidefinite order between the
    # two evolved states forces them equal; check both routes agree
    gen = helpers.rng(107)
    for _ in range(40):
        u = qcore.UnitaryGate(helpers.random_unitary(gen, 2))
        v = qcore.UnitaryGate(helpers.random_unitary(gen, 2))
        rho = qcore.DensityOperator(helpers.random_density(gen, 2))
        assert leq_rho(u, v, rho).holds == equiv_rho(u, v, rho).holds


def test_hierarchy_verdicts_on_known_gaps():
    # equal action on |0><0| without global-phase equality
    rep = hierarchy_check(EYE, ZGATE, ZERO, P_ZERO)
    assert rep.verdicts == (False, True, True)
    rep = hierarchy_check(EYE, XGATE, PLUS, P_ZERO)
    assert rep.verdicts == (False, True, True)
    # equal truth value without equal action on the state
    rep = hierarchy_check(EYE, XGATE, ZERO, P_PLUS)
    assert rep.verdicts == (False, False, True)
    rep = hierarchy_check(HGATE, HGATE, ZERO, P_ZERO)
    assert rep.verdicts == (True, True, True)


def test_hierarchy_never_violated_randomized():
    gen = helpers.rng(109)
    for dim in (2, 4):
        for _ in range(100):
            u = qcore.UnitaryGate(helpers.random_unitary(gen, dim))
            v = u if gen.random() < 0.3 else qcore.UnitaryGate(
                helpers.random_unitary(gen, dim))
            rho = qcore.DensityOperator(helpers.random_density(gen, dim))
            p = qcore.Projector(helpers.random_projector(gen, dim))
            rep = hierarchy_check(u, v, rho, p)
            t, s, pt = rep.verdicts
            assert (not t or s) and (not s or pt)


def test_equiv_P_implies_pointwise():
    gen = helpers.rng(113)
    for _ in range(60):
        u = qcore.UnitaryGate(helpers.random_unitary(gen, 2))
        v = qcore.UnitaryGate(helpers.random_unitary(gen, 2))
        p = qcore.Projector(helpers.random_projector(gen, 2))
        if equiv_P(u, v, p).holds:
            rho = qcore.DensityOperator(helpers.random_density(gen, 2))
            assert equiv_rho_P(u, v, rho, p).holds


def _near_identity(gen, dim: int, eps: float) -> np.ndarray:
    """exp(i eps H) for a random Hermitian H of operator norm 1."""
    a = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    lam, q = np.linalg.eigh(a + a.conj().T)
    return (q * np.exp(1j * eps * lam / np.abs(lam).max())) @ q.conj().T


def _pair_at_entry_gap(gen, dim: int, rho: np.ndarray, target: float):
    """V = exp(i eps H) with max|rho - V rho V*| close to ``target``, and the
    top eigenvector of that difference as an event."""
    seed = int(gen.integers(2 ** 32))
    rotation = lambda eps: _near_identity(helpers.rng(seed), dim, eps)
    diff = lambda v: rho - v @ rho @ v.conj().T
    eps = 1e-4
    for _ in range(3):          # eps -> max|D| is nearly linear: rescale it
        eps *= target / np.max(np.abs(diff(rotation(eps))))
    v = rotation(eps)
    d = diff(v)
    top = np.linalg.eigh(d)[1][:, -1]
    return v, np.outer(top, top.conj()), float(np.max(np.abs(d)))


def test_hierarchy_check_passes_where_entries_agree_within_tol_but_states_do_not():
    # the re-anchor's case: rho random pure in C^8, U = I, V = exp(i eps H),
    # max|D| = 0.95e-3 at tol 1e-3, P the top eigenvector of D.  Compared
    # entry by entry the evolved states agreed, and equiv_rho_P at P then
    # failed: HierarchyViolation in 50 cases of 50.  The trace distance
    # sees what P sees
    gen = helpers.rng(950)
    eye = qcore.UnitaryGate(np.eye(8))
    for _ in range(50):
        rho = helpers.random_pure(gen, 8)
        v, p, entry = _pair_at_entry_gap(gen, 8, rho, 0.95e-3)
        assert entry == pytest.approx(0.95e-3, rel=1e-6)
        args = (eye, qcore.UnitaryGate(v), qcore.DensityOperator(rho), qcore.Projector(p))
        rep = hierarchy_check(*args, tol=1e-3)
        assert rep.verdicts == (False, False, False)
        # the trace distance is reached at P by equiv_rho_P's own truth values
        gap, _ = logic._gap("equiv_rho", *args[:3])
        assert rep.pointwise.lhs - rep.pointwise.rhs == pytest.approx(gap, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 16), st.sampled_from([1e-9, 1e-6, 1e-3, 0.1]),
       st.floats(0.1, 1.0), st.sampled_from(["pure", "mixed"]), st.integers(0, 2 ** 32 - 1))
def test_hierarchy_check_never_raises_near_tol(dim, tol, scale, state, seed):
    # total => state => pointwise are theorems of the one meaning of tol:
    # pairs whose entries differ by up to tol, where the trace distance
    # and the truth value at D's top eigenvector straddle it
    gen = helpers.rng(seed)
    rho = helpers.random_pure(gen, dim) if state == "pure" else helpers.random_density(gen, dim)
    v, p, _ = _pair_at_entry_gap(gen, dim, rho, scale * tol)
    rep = hierarchy_check(qcore.UnitaryGate(np.eye(dim)), qcore.UnitaryGate(v),
                          qcore.DensityOperator(rho), qcore.Projector(p), tol)
    t, s, pt = rep.verdicts
    assert (not t or s) and (not s or pt)


def _mp(m: np.ndarray):
    return mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in m.tolist()])


def _gap_at_50_digits(y: np.ndarray, z: np.ndarray, weights, largest: bool) -> float:
    """The sum of the positive eigenvalues of D = Y S Y* - Z S Z*, or its
    largest, for Y and Z given as 50-digit products: D = W M W* with
    W = [Y, Z] and M = diag(S, -S), so D's nonzero eigenvalues are those of
    M W*W, whose Gram matrix carries no cancellation at 50 digits."""
    w = mpmath.matrix(y.rows, y.cols + z.cols)
    for i in range(y.rows):
        for j in range(y.cols):
            w[i, j], w[i, y.cols + j] = y[i, j], z[i, j]
    m = mpmath.diag(list(weights) + [-x for x in weights])
    lam = sorted(mpmath.re(e) for e in mpmath.eig(m * (w.H * w), left=False, right=False))
    return float(lam[-1] if largest else sum(x for x in lam if x > 0))


@pytest.mark.parametrize("rank", [1, 2])
def test_gaps_at_d_128_equal_a_50_digit_reference(rank):
    # V = U exp(i eps H): gaps from about 1e-10 to 1e-6, where the textbook
    # sqrt(1 - |<U psi|V psi>|^2) loses every digit below 1e-8
    gen = helpers.rng(128 + rank)
    dim, weights = 128, [1.0] if rank == 1 else [0.7, 0.3]
    u = helpers.random_unitary(gen, dim)
    cols = helpers.random_unitary(gen, dim)[:, :rank]
    rho = qcore.DensityOperator((cols * weights) @ cols.conj().T)
    p = qcore.Projector(cols @ cols.conj().T)
    seen = []
    with mpmath.workdps(50):
        mu, mcols = _mp(u), _mp(cols)
        forward, back = mu * mcols, mu.H * mcols
        for eps in np.logspace(-10, -6, 5):
            v = u @ _near_identity(gen, dim, eps)
            mv = _mp(v)
            for relation, context, y, z, scale in (
                    ("equiv_rho", rho, forward, mv * mcols, weights),
                    ("equiv_P", p, back, mv.H * mcols, [1.0] * rank)):
                got = getattr(logic, relation)(qcore.UnitaryGate(u), qcore.UnitaryGate(v),
                                               context, tol=0)
                gap, _ = logic._gap(relation, qcore.UnitaryGate(u), qcore.UnitaryGate(v), context)
                want = _gap_at_50_digits(y, z, scale, relation == "equiv_P")
                assert not got.holds and abs(gap - want) <= 1e-15
                seen.append(want)
    assert min(seen) < 2e-10 and max(seen) > 3e-7


def test_equiv_total_of_one_run_of_close_eigenvalues_takes_the_run_as_its_arc():
    # eigenphases 0.9e-11 apart chain into one run of width 5.7e-10: the
    # gap is sin(alpha / 2) over the whole run, not 0
    gen = helpers.rng(64)
    w = helpers.random_unitary(gen, 64)
    phases = 0.9e-11 * np.arange(64)
    u = qcore.UnitaryGate((w * np.exp(1j * phases)) @ w.conj().T)
    eye = qcore.UnitaryGate(np.eye(64))
    gap, _ = logic._separating_state(eye.matrix @ u.matrix)
    assert gap == pytest.approx(math.sin(phases[-1] / 2), rel=1e-4)
    rep = equiv_total(u, eye, tol=1e-10)
    assert not rep.holds and equiv_total(u, eye, tol=3e-10).holds
    sep = _separation(u, eye, rep)
    assert sep == pytest.approx(gap, rel=1e-4)
    rho = rep.witness_state
    assert hierarchy_check(u, eye, rho, rep.witness_event, tol=1e-10).verdicts == (False, False, False)


@pytest.mark.parametrize("dim", [2, 4])
def test_every_decider_at_the_zero_and_the_identity_event(dim):
    # the zero event has a factor of no columns, and every gap at it is 0;
    # the identity event sees nothing of U either
    gen = helpers.rng(dim)
    u, v = (qcore.UnitaryGate(helpers.random_unitary(gen, dim)) for _ in "uv")
    rho = qcore.DensityOperator(helpers.random_density(gen, dim))
    zero, one = qcore.Projector(np.zeros((dim, dim))), qcore.Projector(np.eye(dim))
    assert zero._factors[0].shape == (dim, 0) and one._factors[0].shape == (dim, dim)
    built = qcore._onto(qcore.Projector, np.zeros((dim, 0)))
    assert built == zero and built._factors[0].shape == (dim, 0)
    uniform = qcore.DensityOperator(np.eye(dim) / dim)
    for p, value in ((zero, 0.0), (one, 1.0), (built, 0.0)):
        assert truth_value(u, rho, p) == pytest.approx(value, abs=1e-15)
        for relation in CONTEXT_DECIDERS:
            context = [uniform if what == "state" else p for what in logic.CONTEXT[relation]]
            for a, b in ((u, v), (v, u)):
                assert getattr(logic, relation)(a, b, *context).holds
                assert getattr(logic, relation)(a, b, *context, tol=1e-14).holds
    assert not equiv_total(u, v).holds


def test_leq_decides_exactly_as_equiv():
    # both differences are traceless, and at an event their spectra are
    # symmetric: the one-sided gap is the two-sided one, witness included
    gen = helpers.rng(77)
    for dim in (2, 3, 8):
        for _ in range(10):
            u, v = (qcore.UnitaryGate(helpers.random_unitary(gen, dim)) for _ in "uv")
            rho = qcore.DensityOperator(helpers.random_density(gen, dim))
            p = qcore.Projector(helpers.random_projector(gen, dim))
            for tol in (1e-9, 0.3, 0.9):
                for leq, equiv, context in ((leq_rho, equiv_rho, rho), (leq_P, equiv_P, p)):
                    a, b = leq(u, v, context, tol), equiv(u, v, context, tol)
                    assert a.holds == b.holds and a.witness_state == b.witness_state
                    assert a.witness_event == b.witness_event


def test_equiv_rho_is_a_congruence_for_appending_letters():
    # the trace distance is unitarily invariant, so a pair within tol stays
    # within it after any letter G: 200 seeded cases on C^4 near tol, where
    # comparing entries broke this in 143 of 200
    letters = [gates.compose_word(w) for w in gates.enumerate_polynomials(
        gates.generator_set("G2", phases=(0.7, 2.1)), 2, 1) if len(w)]
    gen = helpers.rng(200)
    held = 0
    for case in range(200):
        rho = qcore.DensityOperator(helpers.random_pure(gen, 4) if case % 2
                                    else helpers.random_density(gen, 4))
        u = helpers.random_unitary(gen, 4)
        seed = int(gen.integers(2 ** 32))
        rotation = lambda eps: _near_identity(helpers.rng(seed), 4, eps)
        # the trace distance is nearly linear in eps: land it near tol = 1e-3
        probe, _ = logic._gap("equiv_rho", qcore.UnitaryGate(u),
                              qcore.UnitaryGate(u @ rotation(1e-4)), rho)
        v = u @ rotation(1e-4 * gen.uniform(0.5, 1.5) * 1e-3 / probe)
        if not equiv_rho(qcore.UnitaryGate(u), qcore.UnitaryGate(v), rho, tol=1e-3).holds:
            continue
        held += 1
        for g in letters:
            assert equiv_rho(qcore.UnitaryGate(g.matrix @ u), qcore.UnitaryGate(g.matrix @ v),
                             rho, tol=1e-3).holds
    assert held >= 50


def test_dimension_checks():
    big = qcore.UnitaryGate(np.eye(4))
    with pytest.raises(DimensionMismatch):
        equiv_total(EYE, big)
    with pytest.raises(DimensionMismatch):
        equiv_rho_P(EYE, XGATE, ZERO, qcore.Projector(np.eye(4)))


DECIDERS = {
    "equiv_rho_P": (ZERO, P_ZERO), "equiv_rho": (ZERO,), "equiv_P": (P_ZERO,),
    "equiv_total": (), "leq_rho_P": (ZERO, P_ZERO), "leq_rho": (ZERO,), "leq_P": (P_ZERO,),
}


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_deciders_and_quotient_refuse_a_negative_or_nan_tolerance(tol):
    words = [gates.parse_word("width=1; H[0]")] * 2
    calls = [(getattr(logic, rel), (EYE, EYE, *context, tol))
             for rel, context in DECIDERS.items()]
    calls += [(quotient, (words, rel, ZERO, P_ZERO, tol))
              for rel in ("equiv_rho_P", "equiv_rho")]
    for fn, args in calls:
        with pytest.raises(ValidationFailure) as exc:
            fn(*args)
        assert exc.value.invariant == "tolerance"


def test_evolved_states_are_not_revalidated():
    # U rho U* is a state up to rounding, but its entrywise Hermitian gap
    # (1.8e-9 here) is not unitarily invariant; qcore.conjugate still refuses
    # it, the truth value and the deciders take it as it is
    rho = qcore.DensityOperator(helpers.SKEWED_UNIFORM)
    word = gates.parse_word("width=2; H[0]; H[1]")
    hh, eye = gates.compose_word(word), gates.compose_word(gates.parse_word("width=2"))
    p = qcore.Projector(helpers.basis_state(4, 0))
    assert truth_value(hh, rho, p) == pytest.approx(0.25, abs=1e-12)
    assert equiv_rho_P(hh, eye, rho, p).lhs == pytest.approx(0.25, abs=1e-12)
    assert equiv_rho(hh, eye, rho).holds and leq_rho(hh, eye, rho).holds
    for relation in ("equiv_rho_P", "equiv_rho"):
        assert quotient([word], relation, rho, p).classes == ((word,),)


def _separation(u, v, rep, rho=None, p=None) -> float:
    """U's truth value minus V's at a report's witness, the fixed part of
    the context filled in, by direct numpy."""
    rho = rep.witness_state.matrix if rep.witness_state is not None else rho.matrix
    p = rep.witness_event.matrix if rep.witness_event is not None else p.matrix
    return (helpers.truth_value_oracle(u.matrix, rho, p)
            - helpers.truth_value_oracle(v.matrix, rho, p))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 3]),
       st.sampled_from(["random", "phase", "same"]), st.sampled_from([1e-9, 1e-3, 0.3]))
def test_deciders_equal_the_validated_evolution_bit_for_bit(seed, width, pair, tol):
    # the deciders read the state through its factor; qcore.conjugate builds
    # and validates each evolved state in full.  Verdicts agree bit for bit
    # with the trace distance of the validated states, and a witness reaches it
    gen = helpers.rng(seed)
    dim = 2 ** width
    u = qcore.UnitaryGate(helpers.random_unitary(gen, dim))
    v = {"random": qcore.UnitaryGate(helpers.random_unitary(gen, dim)),
         "phase": qcore.UnitaryGate(np.exp(0.4j) * u.matrix), "same": u}[pair]
    rho = qcore.DensityOperator(helpers.random_pure(gen, dim) if seed % 2
                                else helpers.random_density(gen, dim))
    p = qcore.Projector(helpers.random_projector(gen, dim))
    assert truth_value(u, rho, p) == pytest.approx(
        qcore.born(qcore.conjugate(u, rho), p), abs=1e-14)
    diff = qcore.conjugate(u, rho).matrix - qcore.conjugate(v, rho).matrix
    distance = float(np.abs(np.linalg.eigvalsh(diff)).sum() / 2)
    for fn, a, b in ((equiv_rho, u, v), (equiv_rho, v, u), (leq_rho, u, v), (leq_rho, v, u)):
        rep = fn(a, b, rho, tol)
        assert rep.holds == (distance <= tol)
        if not rep.holds:
            assert _separation(a, b, rep, rho) == pytest.approx(distance, abs=1e-13)


def test_truth_values_deciders_and_quotient_build_no_density_operator(monkeypatch):
    built = []
    check = qcore.DensityOperator.__post_init__
    monkeypatch.setattr(qcore.DensityOperator, "__post_init__",
                        lambda self: built.append(self) or check(self))
    words = gates.enumerate_polynomials(gates.generator_set("G1"), 1, 2)
    us = [gates.compose_word(w) for w in words]
    for u in us:
        truth_value(u, ZERO, P_PLUS)
        for v in (us[0], us[-1]):
            equiv_rho(u, v, PLUS)
            leq_rho(u, v, PLUS)
    for relation in ("equiv_rho_P", "equiv_rho"):
        quotient(words, relation, PLUS, P_ZERO)
    assert built == []
    qcore.conjugate(HGATE, ZERO)
    assert len(built) == 1


def test_report_validation_and_json():
    with pytest.raises(ValueError):
        EquivalenceReport("nonsense", True, 1e-9)
    rep = equiv_total(EYE, ZGATE)
    d = rep.to_json_dict()
    assert d["relation"] == "equiv_total" and d["holds"] is False
    assert set(d["witness"]) == {"state", "event"}
    assert d["witness"]["state"]["dim"] == 2
    d2 = equiv_rho_P(EYE, ZGATE, ZERO, P_ZERO).to_json_dict()
    assert d2["lhs"] == 1.0 and d2["rhs"] == 1.0 and "witness" not in d2


def test_quotient_pointwise_depth_two():
    g1 = gates.generator_set("G1")
    words = gates.enumerate_polynomials(g1, 1, 2)
    part = quotient(words, "equiv_rho_P", ZERO, P_ZERO)
    assert part.keys == ((1.0,), (0.5,))
    named = [[gates.format_word(w) for w in cls] for cls in part.classes]
    assert named[0] == ["width=1", "width=1; T[0]",
                        "width=1; H[0]; H[0]", "width=1; T[0]; T[0]"]
    assert named[1] == ["width=1; H[0]", "width=1; H[0]; T[0]",
                        "width=1; T[0]; H[0]"]


def test_quotient_pointwise_depth_three_new_value():
    g1 = gates.generator_set("G1")
    words = gates.enumerate_polynomials(g1, 1, 3)
    part = quotient(words, "equiv_rho_P", ZERO, P_ZERO)
    assert len(part.classes) == 3
    assert part.keys[2] == (0.853553391,)   # cos^2(pi/8), reached by H T H
    assert [gates.format_word(w) for w in part.classes[2]] == [
        "width=1; H[0]; T[0]; H[0]"]
    assert part.keys[2][0] == pytest.approx(np.cos(np.pi / 8) ** 2, abs=1e-9)


def test_quotient_honours_tol_within_one_key():
    # truth values 4.2e-11 apart share the 9-digit key but not the class
    words = [gates.parse_word(f"width=1; H[0]; R({phi})[0]; H[0]")
             for phi in ("1.0", "1.0000000001")]
    apart = quotient(words, "equiv_rho_P", ZERO, P_ZERO, tol=1e-12)
    assert len(apart.classes) == 2
    u, v = (gates.compose_word(w) for w in words)
    assert not equiv_rho_P(u, v, ZERO, P_ZERO, tol=1e-12).holds
    assert len(quotient(words, "equiv_rho_P", ZERO, P_ZERO).classes) == 1
    assert len(quotient(words, "equiv_rho", ZERO, tol=1e-12).classes) == 2


def test_quotient_fixed_state_is_finer():
    g1 = gates.generator_set("G1")
    words = gates.enumerate_polynomials(g1, 1, 2)
    part = quotient(words, "equiv_rho", ZERO)
    assert len(part.classes) == 3
    named = [[gates.format_word(w) for w in cls] for cls in part.classes]
    # T's phase is invisible on |0><0| but H T and H differ as states
    assert named[1] == ["width=1; H[0]", "width=1; T[0]; H[0]"]
    assert named[2] == ["width=1; H[0]; T[0]"]
    d = part.to_json_dict()
    assert d["count"] == 3 and d["relation"] == "equiv_rho"


def test_quotient_input_validation():
    g1 = gates.generator_set("G1")
    words = gates.enumerate_polynomials(g1, 1, 1)
    with pytest.raises(ValueError):
        quotient(words, "equiv_total", ZERO)
    with pytest.raises(ValueError):
        quotient(words, "equiv_rho_P", ZERO)       # missing event
    with pytest.raises(DimensionMismatch):
        quotient(words, "equiv_rho", qcore.DensityOperator(np.eye(4) / 4))
    assert quotient([], "equiv_rho", ZERO).classes == ()
    # the register dimension is not formed, so a huge width is a mismatch
    wide = [gates.parse_word("width=100000; H[0]")]
    for relation, event in (("equiv_rho", None), ("equiv_rho_P", P_ZERO)):
        with pytest.raises(DimensionMismatch):
            quotient(wide, relation, qcore.DensityOperator(np.eye(4) / 4), event)


# small word lists: G1 at widths 1-2, G2 at width 2 over a phase grid
QUOTIENT_POOLS = (
    gates.enumerate_polynomials(gates.generator_set("G1"), 1, 4),
    gates.enumerate_polynomials(gates.generator_set("G1"), 2, 2),
    gates.enumerate_polynomials(gates.generator_set("G2", phases=(0.7, 2.3)), 2, 2),
)


@st.composite
def quotient_cases(draw):
    pool = draw(st.sampled_from(QUOTIENT_POOLS))
    words = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=25))
    dim = 2 ** words[0].width
    gen = helpers.rng(draw(st.integers(0, 2 ** 16)))
    rho = draw(st.sampled_from([helpers.basis_state(dim, 0), np.eye(dim) / dim,
                                helpers.random_pure(gen, dim)]))
    p = draw(st.sampled_from([helpers.basis_state(dim, dim - 1),
                              helpers.random_projector(gen, dim)]))
    relation = draw(st.sampled_from(["equiv_rho_P", "equiv_rho"]))
    tol = draw(st.sampled_from([1e-9, 1e-3, 0.05, 0.3]))
    return words, relation, rho, p, tol


@settings(max_examples=150, deadline=None)
@given(quotient_cases())
def test_quotient_members_near_first_and_representatives_apart(case):
    words, relation, rho, p, tol = case
    part = quotient(words, relation, qcore.DensityOperator(rho),
                    qcore.Projector(p), tol)
    assert Counter(w for cls in part.classes for w in cls) == Counter(words)
    assert len(part.keys) == len(part.classes)

    # the package's own truth values, so that comparisons at tol are exact;
    # evolved states validated by qcore.conjugate, apart by their trace
    # distance, which another route computes to within 1e-14
    def invariant(word):
        u = gates.compose_word(word)
        if relation == "equiv_rho_P":
            return truth_value(u, qcore.DensityOperator(rho), qcore.Projector(p))
        return qcore.conjugate(u, qcore.DensityOperator(rho)).matrix

    def distance(a, b):
        if relation == "equiv_rho_P":
            return abs(a - b)
        return np.abs(np.linalg.eigvalsh(a - b)).sum() / 2

    slack = 0.0 if relation == "equiv_rho_P" else 1e-14
    reps = []
    for cls in part.classes:
        first = invariant(cls[0])
        for w in cls[1:]:
            assert distance(invariant(w), first) <= tol + slack
        for earlier in reps:
            assert distance(first, earlier) > tol - slack
        reps.append(first)


def test_quotient_joins_the_first_representative_within_tol():
    # truth values 1.0, 0.8, 0.9 at |0>: 0.9 is within 0.15 of both classes
    words = [gates.parse_word("width=1")] + [
        gates.parse_word(f"width=1; H[0]; R({2 * math.acos(math.sqrt(t))!r})[0]; H[0]")
        for t in (0.8, 0.9)]
    part = quotient(words, "equiv_rho_P", ZERO, P_ZERO, tol=0.15)
    assert part.classes == ((words[0], words[2]), (words[1],))



CONTEXT_DECIDERS = [r for r in logic.RELATIONS if r != "equiv_total"]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 3]),
       st.sampled_from(["random", "phase", "same"]), st.sampled_from(["pure", "mixed"]),
       st.sampled_from([1e-9, 1e-3, 0.3]))
def test_context_deciders_equal_the_oracle_bit_for_bit(seed, width, pair, state, tol):
    # verdicts equal the dense oracle's bit for bit; a pointwise report's
    # truth values equal the oracle's, and a failing quantified relation's
    # witness separates U over V by the oracle's gap, which exceeds tol
    gen = helpers.rng(seed)
    dim = 2 ** width
    u = qcore.UnitaryGate(helpers.random_unitary(gen, dim))
    v = {"random": qcore.UnitaryGate(helpers.random_unitary(gen, dim)),
         "phase": qcore.UnitaryGate(np.exp(0.4j) * u.matrix), "same": u}[pair]
    rho = qcore.DensityOperator(helpers.random_pure(gen, dim) if state == "pure"
                                else helpers.random_density(gen, dim))
    p = qcore.Projector(helpers.random_projector(gen, dim))
    for relation in CONTEXT_DECIDERS:
        context = [rho if what == "state" else p for what in logic.CONTEXT[relation]]
        for a, b in ((u, v), (v, u)):
            got = getattr(logic, relation)(a, b, *context, tol)
            gap, over = helpers.decider_oracle(relation, a, b, *context)
            assert (got.relation, got.tolerance, got.holds) == (relation, tol, gap <= tol)
            if len(context) == 2:
                assert got.lhs - got.rhs == pytest.approx(over, abs=1e-14)
                assert got.witness_state is got.witness_event is None
            elif got.holds:
                assert got.witness_state is got.witness_event is None
            else:
                sep = _separation(a, b, got, *(context if context[0] is rho else (None, p)))
                assert sep == pytest.approx(over, abs=1e-13) and sep > tol


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([QUOTIENT_POOLS[0], QUOTIENT_POOLS[2]]),   # G1 width 1, G2 width 2
       st.sampled_from(["equiv_rho_P", "equiv_rho"]),
       st.sampled_from(["pure", "mixed"]), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1e-9, 1e-3, 0.3]))
def test_quotient_agrees_with_the_pairwise_deciders(words, relation, state, seed, tol):
    gen = helpers.rng(seed)
    dim = 2 ** words[0].width
    rho = qcore.DensityOperator(helpers.random_pure(gen, dim) if state == "pure"
                                else helpers.random_density(gen, dim))
    p = qcore.Projector(helpers.random_projector(gen, dim))
    context = {"state": rho, "event": p}
    decide = lambda a, b: getattr(logic, relation)(
        a, b, *(context[what] for what in logic.CONTEXT[relation]), tol).holds
    part = quotient(words, relation, rho, p, tol)
    firsts = [gates.compose_word(cls[0]) for cls in part.classes]
    for first, cls in zip(firsts, part.classes):
        assert all(decide(gates.compose_word(w), first) for w in cls[1:])
    for a, b in itertools.combinations(firsts, 2):
        assert not decide(a, b)


# the word sets of the partition sweep: every partition equals the oracle's
SWEEP = {
    "G1 width 1 length 10": gates.enumerate_polynomials(gates.generator_set("G1"), 1, 10),
    "G1 width 2 length 4": gates.enumerate_polynomials(gates.generator_set("G1"), 2, 4),
    "G2 width 2 length 3": gates.enumerate_polynomials(
        gates.generator_set("G2", phases=(0.7, 2.3)), 2, 3),
    "G2 width 3 length 3": gates.enumerate_polynomials(
        gates.generator_set("G2", phases=(0.7, 2.3)), 3, 3),
    "G3 width 2 length 3": gates.enumerate_polynomials(
        gates.generator_set("G3", phases=(0.7, 2.3)), 2, 3),
}
CONTEXT_KINDS = ("basis:0", "pure", "mixed", "maximally mixed")
EXACT_KINDS = ("basis:0", "maximally mixed")


def _context(kind: str, dim: int, gen) -> qcore.DensityOperator:
    return qcore.DensityOperator({
        "basis:0": lambda: helpers.basis_state(dim, 0),
        "pure": lambda: helpers.random_pure(gen, dim),
        "mixed": lambda: helpers.random_density(gen, dim),
        "maximally mixed": lambda: np.eye(dim) / dim,
    }[kind]())


def _assert_quotient_equals_the_oracle(words, rho, p, tol, exact_keys=True):
    # keys round the invariant to 9 digits, and the two routes compute it by
    # different arithmetic ((UF)S(UF)* against U rho U*, about 1e-16 apart):
    # at a context with exact entries (basis:0, maximally mixed) the keys are
    # equal, elsewhere an entry near a rounding midpoint may move one unit
    for relation in ("equiv_rho_P", "equiv_rho"):
        got = quotient(words, relation, rho, p, tol)
        want = helpers.quotient_oracle(words, relation, rho, p, tol)
        assert got.classes == want.classes
        if exact_keys:
            assert got.keys == want.keys
        else:
            assert np.allclose(np.array(got.keys), np.array(want.keys), rtol=0, atol=1.5e-9)


@pytest.mark.parametrize("name, kind", zip(SWEEP, ("basis:0", "pure", "mixed",
                                                   "basis:0", "maximally mixed")))
def test_quotient_equals_the_oracle_on_the_sweep(name, kind):
    words = SWEEP[name]
    dim = 2 ** words[0].width
    gen = helpers.rng(len(words))
    rho = _context(kind, dim, gen)
    _assert_quotient_equals_the_oracle(
        words, rho, qcore.Projector(helpers.random_pure(gen, dim)), 1e-9,
        exact_keys=kind in EXACT_KINDS)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(SWEEP)), st.data(), st.sampled_from(CONTEXT_KINDS),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([1e-12, 1e-9, 1e-3, 0.3]))
def test_quotient_equals_the_oracle_on_any_word_list(name, data, kind, seed, tol):
    # shuffled, with repeats, and not closed under prefixes
    words = data.draw(st.lists(st.sampled_from(SWEEP[name]), min_size=1, max_size=60))
    dim = 2 ** words[0].width
    gen = helpers.rng(seed)
    rho = _context(kind, dim, gen)
    p = qcore.Projector(helpers.random_projector(gen, dim, rank=1 + seed % dim))
    _assert_quotient_equals_the_oracle(words, rho, p, tol, exact_keys=kind in EXACT_KINDS)


@pytest.mark.parametrize("kind", CONTEXT_KINDS)
def test_quotient_in_chunks_equals_the_oracle(monkeypatch, kind):
    # seven full-rank words per chunk: chunks cut through shared prefixes
    words = SWEEP["G1 width 2 length 4"]
    gen = helpers.rng(17)
    rho = _context(kind, 4, gen)
    monkeypatch.setattr(logic, "_CHUNK_BYTES", 7 * 16 * 4 * 4)
    _assert_quotient_equals_the_oracle(words, rho, qcore.Projector(
        helpers.random_projector(gen, 4, rank=2)), 1e-9, exact_keys=kind in EXACT_KINDS)


def test_quotient_in_batches_that_cut_through_a_chunk_equals_the_oracle(monkeypatch):
    # a rank-two state at d = 8: U F takes 256 bytes a word and U rho U*
    # 1,024, so each chunk of eleven words is formed in batches of two
    words = gates.enumerate_polynomials(gates.generator_set("G2", phases=(0.7, 2.3)), 3, 2)
    gen = helpers.rng(23)
    rho = qcore.DensityOperator(0.7 * helpers.random_pure(gen, 8)
                                + 0.3 * helpers.random_pure(gen, 8))
    monkeypatch.setattr(logic, "_CHUNK_BYTES", 11 * 16 * 8 * 2)
    factor, signs = rho._factors
    assert factor.shape == (8, 2)
    starts = [start for start, _ in logic._word_invariants(words, factor, signs, None, 0.0)]
    assert starts[:7] == [0, 2, 4, 6, 8, 10, 11]
    _assert_quotient_equals_the_oracle(words, rho, qcore.Projector(
        helpers.random_projector(gen, 8, rank=3)), 1e-9, exact_keys=False)


@pytest.mark.parametrize("relation", ["equiv_rho_P", "equiv_rho"])
def test_quotient_merges_two_words_exactly_tol_apart(relation):
    # tol is the distance of the two invariants as the call itself computes
    # them (the representatives at tol = 0), so the probe filter must keep
    # a match at equality; where the oracle's route gives the same distance,
    # the partitions are the oracle's too
    words = SWEEP["G1 width 1 length 10"][:31]
    event = qcore.Projector(helpers.random_pure(helpers.rng(5), 2))
    zero = ZERO.matrix

    def distance(x, y):
        # truth values, or the trace distance by eigvalsh, as the call takes it
        if relation == "equiv_rho_P":
            return abs(x - y)
        return float(np.abs(np.linalg.eigvalsh(x - y)).sum() / 2)

    def invariant(w):
        u = gates.compose_word(w)
        if relation == "equiv_rho_P":
            return truth_value(u, ZERO, event)
        return u.matrix @ zero @ u.matrix.conj().T

    pairs = same = 0
    for a, b in itertools.combinations(words, 2):
        apart = quotient([a, b], relation, ZERO, event, 0.0)
        if len(apart.classes) == 1:
            continue
        tol = distance(*apart._reps)
        part = quotient([a, b], relation, ZERO, event, tol)
        # an entry of the difference exceeds the trace distance only by
        # rounding, where the two are equal; the call then rejects on it
        if relation == "equiv_rho" and np.max(np.abs(apart._reps[0] - apart._reps[1])) > tol:
            assert part.classes == ((a,), (b,))
            continue
        assert part.classes == ((a, b),)
        pairs += 1
        oracle = [invariant(w) for w in (a, b)]
        if distance(*oracle) == tol:
            assert part == helpers.quotient_oracle([a, b], relation, ZERO, event, tol)
            same += 1
    assert pairs >= 100 and same >= pairs // 2


@pytest.mark.parametrize("relation", ["equiv_rho_P", "equiv_rho"])
def test_quotient_joins_across_a_rounding_boundary(relation):
    # truth values 0.8000000005 -/+ 1e-13 at |0>: their 9-digit keys differ,
    # yet they lie within tol, so the second word joins the first's class
    values = [0.8 + 0.5e-9 - 1e-13, 0.8 + 0.5e-9 + 1e-13]
    words = [gates.parse_word(f"width=1; H[0]; R({2 * math.acos(math.sqrt(t))!r})[0]; H[0]")
             for t in values]
    part = quotient(words, relation, ZERO, P_ZERO)
    assert part.classes == (tuple(words),)
    single = [quotient([w], relation, ZERO, P_ZERO).keys[0] for w in words]
    assert single[0] != single[1]
    assert part.keys == (single[0],)


def test_quotient_keys_equal_the_oracles_with_their_types():
    words = SWEEP["G2 width 2 length 3"][:120]
    rho = qcore.DensityOperator(helpers.basis_state(4, 0))
    event = qcore.Projector(helpers.basis_state(4, 3))
    for relation in ("equiv_rho_P", "equiv_rho"):
        got = quotient(words, relation, rho, event)
        want = helpers.quotient_oracle(words, relation, rho, event)
        assert got.keys == want.keys and type(got.keys) is type(want.keys) is tuple
        assert [list(map(type, k)) for k in got.keys] == [list(map(type, k)) for k in want.keys]
        assert got == want and hash(got) == hash(want)
        assert got == QuotientPartition(relation, got.classes, got.keys)
        assert got != QuotientPartition(relation, got.classes[::-1], got.keys[::-1])


def test_quotient_keeps_a_negative_eigenvalue_and_a_skew_part():
    # a state valid at its tolerance: one eigenvalue is -1e-7, and the
    # off-diagonal imaginary part makes Tr(sigma P) non-real by 7e-2
    words = SWEEP["G1 width 2 length 4"][:40]
    negative = qcore.DensityOperator(np.diag([0.6 + 1e-7, 0.4, 0.0, -1e-7]), 1e-6)
    _assert_quotient_equals_the_oracle(words, negative, qcore.Projector(
        helpers.basis_state(4, 3)), 1e-9)
    skew = np.eye(8) / 8 + 0.01j * (np.ones((8, 8)) - np.eye(8))
    rho = qcore.DensityOperator(skew, 0.02)
    uniform = qcore.Projector(np.ones((8, 8)) / 8)
    words = gates.enumerate_polynomials(gates.generator_set("G1"), 3, 1)
    part = quotient(words, "equiv_rho", rho)
    assert part == helpers.quotient_oracle(words, "equiv_rho", rho)
    with pytest.raises(NonRealTrace) as got:
        quotient(words, "equiv_rho_P", rho, uniform)
    with pytest.raises(NonRealTrace) as want:
        helpers.quotient_oracle(words, "equiv_rho_P", rho, uniform)
    assert str(got.value) == str(want.value) == "imaginary part 7.000e-02 exceeds 2.0e-02"


def test_quotient_applies_each_letter_once_per_length(monkeypatch):
    calls, built = [], []
    kernel, check = gates._apply, qcore.UnitaryGate.__post_init__
    monkeypatch.setattr(gates, "_apply", lambda spec, m, width: calls.append(
        spec) or kernel(spec, m, width))
    monkeypatch.setattr(qcore.UnitaryGate, "__post_init__",
                        lambda self: built.append(self) or check(self))
    words = SWEEP["G2 width 2 length 3"]
    rho = qcore.DensityOperator(np.eye(4) / 4)
    quotient(words, "equiv_rho", rho)
    assert len(calls) == 3 * 8      # three lengths, eight letters
    # any list: one call per (length, last letter) among the listed prefixes
    picked = [words[i] for i in (300, 7, 300, 584, 12)]
    calls.clear()
    quotient(picked, "equiv_rho", rho)
    assert len(calls) == len({(k, w.word[k - 1]) for w in picked
                              for k in range(1, len(w) + 1)})
    assert built == []              # no word is composed into a gate
    # compose_word runs the same engine: one call per letter, one gate built
    calls.clear()
    chain = gates.parse_word("width=7; " + "; ".join(
        ["H[0]", "CNOT[0,6]", "TOFFOLI[1,2,3]", "XX(0.4)[5,2]"] * 3))
    gates.compose_word(chain)
    assert calls == list(chain.word) and len(calls) == 12 and len(built) == 1
