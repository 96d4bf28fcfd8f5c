"""Probabilistic truth values of gates and the hierarchy of relations on them.

The truth value of a gate U at a state rho and an event P is
Tr(U rho U* P).  Identifying gates that agree on more or fewer contexts
yields a strict hierarchy of equivalence relations:

    equal up to global phase  =>  same action on a fixed state  =>
    same truth value at a fixed (state, event) pair,

and dually for the "less true than" preorders.  Every relation here is
decided exactly by linear algebra, not by sampling, under one meaning of
``tol``: a relation holds when no context in its scope separates the two
truth values by more than ``tol``.  At a (state, event) pair that is one
difference of two numbers.  Over the events at a state it is the trace
distance (1/2)||U rho U* - V rho V*||_1, over the states at an event
||U* P U - V* P V||_op, and over every context sin(alpha / 2), alpha the
shortest arc that holds V*U's eigenphases (Helstrom, 1976; Nielsen and
Chuang, section 9.2).  Each difference is traceless, and at an event its
spectrum is symmetric, so the largest gap by which U's truth value exceeds
V's is the same number: ``leq_rho`` and ``leq_P`` decide exactly as
``equiv_rho`` and ``equiv_P``.  So total => state => pointwise holds at
every ``tol``.

Every context relation reads its context through a factor, rho = F S F* or
P = G S G*, kept on the operator: one step of pivoted Cholesky for a
context of rank one (``qcore._rank_one``), so a dense pure state or
rank-one event takes no eigensolve, else one eigh (``qcore._factor``).  It
works with Y = U F and Z = V F at a state, Y = U* G and Z = V* G at an
event; no U rho U* is formed.  ``quotient`` groups words under the same rule.
Failed quantified relations come with a witness on which U's truth value
exceeds V's by the gap that decided the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, HierarchyViolation, InvalidArgument
from .gates import GateWord, _evolve_words, format_word
from .qcore import (
    DEFAULT_TOL,
    DensityOperator,
    Projector,
    UnitaryGate,
    _onto,
    _probability,
    check_tol,
    entry_key,
    matrix_to_json,
)

# the context each relation is decided at, in the order its function takes it
CONTEXT = {"equiv_rho_P": ("state", "event"), "equiv_rho": ("state",),
           "equiv_P": ("event",), "equiv_total": (),
           "leq_rho_P": ("state", "event"), "leq_rho": ("state",),
           "leq_P": ("event",)}
RELATIONS = tuple(CONTEXT)


def truth_value(u: UnitaryGate, rho: DensityOperator, p: Projector) -> float:
    """Tr(U rho U* P), the probability that P holds after U runs on rho:
    Sum_j s_j <Y_j, P Y_j> with Y = U F on the factor rho = F S F*."""
    _same_dim(u.dim, rho.dim, p.dim)
    factor, signs = rho._factors
    return _truth_values(u.matrix @ factor, signs, p,
                         max(u.tolerance, rho.tolerance, p.tolerance))[0]


def _truth_values(y: np.ndarray, signs: np.ndarray, p: Projector, tol: float) -> list[float]:
    """Sum_j s_j <Y_j, P Y_j> for each block of len(signs) columns of y, as
    probabilities at ``tol``."""
    traces = (np.einsum("ij,ij->j", y.conj(), p.matrix @ y).reshape(-1, len(signs)) @ signs)
    return [_probability(t, tol) for t in traces.tolist()]


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of one relation query.

    ``lhs``/``rhs`` are the two compared truth values for the pointwise
    relations and None for the quantified ones.  When a quantified relation
    fails, ``witness_state``/``witness_event`` hold a context on which the
    two gates demonstrably disagree.  ``theta`` is the recovered global
    phase for the total relation.
    """

    relation: str
    holds: bool
    tolerance: float
    lhs: float | None = None
    rhs: float | None = None
    theta: float | None = None
    strict_equal: bool | None = None
    witness_state: DensityOperator | None = None
    witness_event: Projector | None = None

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise InvalidArgument(f"unknown relation {self.relation!r}")

    def to_json_dict(self) -> dict:
        out: dict = {"relation": self.relation, "holds": self.holds,
                     "tolerance": self.tolerance}
        for key in ("lhs", "rhs", "theta", "strict_equal"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        witness = {key: matrix_to_json(op.matrix) for key, op in
                   (("state", self.witness_state), ("event", self.witness_event))
                   if op is not None}
        if witness:
            out["witness"] = witness
        return out


def _same_dim(*dims: int):
    if len(set(dims)) > 1:
        raise DimensionMismatch(f"dimensions differ: {dims}")


def _check_context(tol: float, *dims: int):
    check_tol(tol)
    _same_dim(*dims)


def _top_pair(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """s, the largest eigenvalue of |a><a| - |b><b|, and a unit eigenvector
    e for it (Helstrom, 1976).

    With c = <a|b> and b' = e^{-i arg c} b, so that <a|b'> = |c|,
    s = (Re<a - b', a + b'> + |a - b'| |a + b'|) / 2, which is
    sqrt(1 - |c|^2) for unit a and b and is taken without cancellation;
    e is along (s + <b|b>) a - conj(c) b.  If s or that vector is 0, a and
    b agree to rounding and e is a / |a|.
    """
    c = np.vdot(a, b)
    turned = np.exp(-1j * np.angle(c)) * b
    minus, plus = a - turned, a + turned
    s = float(np.vdot(minus, plus).real + np.linalg.norm(minus) * np.linalg.norm(plus)) / 2
    e = (s + np.vdot(b, b).real) * a - c.conjugate() * b
    n = np.linalg.norm(e)
    return s, e / n if s > 0 and n else a / np.linalg.norm(a)


def _positive_part(y: np.ndarray, z: np.ndarray,
                   signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positive eigenvalues of D = Y S Y* - Z S Z*, largest first, and
    orthonormal eigenvectors for them, for real signs s.

    D = (Y + Z) S (Y - Z)* / 2 + (Y - Z) S (Y + Z)* / 2, so it lives on the
    span of Y + Z and Y - Z and is formed from the difference Y - Z itself,
    without cancellation.  One column of sign +1 is :func:`_top_pair`'s
    closed form.  Otherwise a QR of [Y + Z, Y - Z] = Q [K+, K-] gives
    D = Q H Q*, H the Hermitian part of K+ S K-*, and one eigh of H, which
    is 2r x 2r for rank r (d x d with no QR, Q = I, from rank d / 2 on); no
    Gram matrix is formed, whose eigenvalues near 0 would carry errors of
    about sqrt(eps).
    """
    if signs.tolist() == [1.0]:
        s, e = _top_pair(y[:, 0], z[:, 0])
        if s > 0:
            return np.array([s]), e[:, None]
        return np.zeros(0), np.zeros((len(y), 0))
    rank = len(signs)
    k = np.hstack([y + z, y - z])
    # past rank d / 2 the span is the whole space, and D is formed in place
    q, k = np.linalg.qr(k) if 2 * rank < len(y) else (None, k)
    h = (k[:, :rank] * signs) @ k[:, rank:].conj().T
    lam, x = np.linalg.eigh((h + h.conj().T) / 2)
    keep = np.flatnonzero(lam > 0)[::-1]
    return lam[keep], x[:, keep] if q is None else q @ x[:, keep]


def _hermitian_part(factor: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns of a factor whose signs are real, with those signs: the
    factor of the matrix's Hermitian part, the part a truth value reads."""
    real = signs.imag == 0
    return factor[:, real], signs[real].real


def _gap(relation: str, u: UnitaryGate, v: UnitaryGate,
         context: DensityOperator | Projector) -> tuple[float, np.ndarray]:
    """The largest gap by which U's truth value exceeds V's over the
    contexts a quantified relation ranges over, and orthonormal columns on
    which it is reached.

    At a state rho it ranges over events: the gap is the sum of the
    positive eigenvalues of D = U rho U* - V rho V*, reached at the
    projector onto their eigenvectors.  At an event P it ranges over
    states: the gap is D's largest eigenvalue, D = U* P U - V* P V, reached
    at the pure state of its eigenvector.  Only the Hermitian part of the
    context counts, the part a truth value reads.
    """
    factor, signs = _hermitian_part(*context._factors)
    if CONTEXT[relation] == ("state",):
        lam, vecs = _positive_part(u.matrix @ factor, v.matrix @ factor, signs)
        return float(lam.sum()), vecs
    lam, vecs = _positive_part(u.matrix.conj().T @ factor, v.matrix.conj().T @ factor, signs)
    return float(lam[:1].sum()), vecs[:, :1]


def _decide(relation: str, u: UnitaryGate, v: UnitaryGate,
            rho: DensityOperator | None, p: Projector | None,
            tol: float) -> EquivalenceReport:
    """Decide a context relation: it holds when U's truth value exceeds V's
    by at most ``tol`` at every context in its scope, and for the
    equivalences also V's exceeds U's by at most ``tol``; the two gaps of a
    quantified relation are equal, so one is computed.

    At a (state, event) pair the report carries both truth values.  A
    failing quantified relation carries the context of :func:`_gap`, on
    which U's truth value exceeds V's by the gap: an event at a fixed
    state, a pure state at a fixed event.
    """
    _check_context(tol, *(op.dim for op in (u, v, rho, p) if op is not None))
    if rho is not None and p is not None:
        a, b = truth_value(u, rho, p), truth_value(v, rho, p)
        holds = abs(a - b) <= tol if relation.startswith("equiv") else a <= b + tol
        return EquivalenceReport(relation, holds, tol, lhs=a, rhs=b)
    gap, vecs = _gap(relation, u, v, p if rho is None else rho)
    if gap <= tol:
        return EquivalenceReport(relation, True, tol)
    if p is None:
        return EquivalenceReport(relation, False, tol, witness_event=_onto(Projector, vecs))
    return EquivalenceReport(relation, False, tol, witness_state=_onto(DensityOperator, vecs))


def equiv_rho_P(u: UnitaryGate, v: UnitaryGate, rho: DensityOperator,
                p: Projector, tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Do U and V have truth values within ``tol`` at this one (state,
    event) pair?  The report carries both truth values."""
    return _decide("equiv_rho_P", u, v, rho, p, tol)


def equiv_rho(u: UnitaryGate, v: UnitaryGate, rho: DensityOperator,
              tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Do U and V give every event truth values within ``tol`` at ``rho``?

    The largest such gap is the trace distance (1/2)||U rho U* - V rho V*||_1,
    the sum of the positive eigenvalues of the difference, taken from the
    factor of rho (:func:`_gap`).  On failure the witness event is the
    projector onto the difference's positive part, on which U's truth value
    exceeds V's by that distance.
    """
    return _decide("equiv_rho", u, v, rho, None, tol)


def equiv_P(u: UnitaryGate, v: UnitaryGate, p: Projector,
            tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Do U and V give event ``p`` truth values within ``tol`` at every state?

    The largest such gap is ||U* P U - V* P V||_op, the difference's largest
    eigenvalue (its spectrum is symmetric), taken from the factor of P
    (:func:`_gap`).  On failure the witness is the pure state of its top
    eigenvector, on which U's truth value exceeds V's by that norm.
    """
    return _decide("equiv_P", u, v, None, p, tol)


def equiv_total(u: UnitaryGate, v: UnitaryGate,
                tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Do U and V give truth values within ``tol`` at every state and event?

    The largest gap over all contexts is sin(alpha / 2), alpha the shortest
    arc that holds every eigenphase of m = V*U, and 1 when no arc shorter
    than pi does; it is 0 exactly when m is a global phase e^{i theta}
    times the identity, which truth values cannot see.  Each eigenvalue of
    m lies within ||m - e^{i theta} I||_F of e^{i theta}, so sin(alpha / 2)
    is at most that distance, and a distance within ``tol`` decides with
    no eigensolve.  The report carries theta (from the first diagonal entry
    of m larger than ``tol``) plus a strict flag for literal matrix
    equality within ``tol``.  On failure the (state, event) pair that
    separates U and V most is attached (:func:`_separating_state`).
    """
    _check_context(tol, u.dim, v.dim)
    m = v.matrix.conj().T @ u.matrix
    diag = np.diagonal(m)
    nz = np.flatnonzero(np.abs(diag) > tol)
    theta = float(np.angle(diag[nz[0]])) if nz.size else 0.0
    strict = float(np.max(np.abs(u.matrix - v.matrix))) <= tol
    holds = EquivalenceReport("equiv_total", True, tol, theta=theta, strict_equal=strict)
    if np.linalg.norm(m - np.exp(1j * theta) * np.eye(u.dim)) <= tol:
        return holds
    gap, psi = _separating_state(m)
    if gap <= tol:
        return holds
    _, event = _top_pair(u.matrix @ psi, v.matrix @ psi)
    return EquivalenceReport("equiv_total", False, tol, theta=theta,
                             strict_equal=strict, witness_state=_onto(DensityOperator, psi),
                             witness_event=_onto(Projector, event))


def _separating_state(m: np.ndarray) -> tuple[float, np.ndarray]:
    """sin(alpha / 2) for m = V*U, and the pure state psi that separates U
    and V most, at which U psi and V psi lie that far apart.

    At a pure state psi, U psi and V psi lie sqrt(1 - |<psi|m|psi>|^2)
    apart, and <psi|m|psi> ranges over the convex hull of m's eigenvalues.
    psi superposes eigenvectors of at most three distinct eigenvalues,
    weighted to the hull's point nearest 0, at distance r: the midpoint of
    the ends of an arc of at most pi that holds every eigenphase, where
    sqrt(1 - r^2) = sin(alpha / 2) is half the chord between the ends, or
    else 0, inside the triangle of an eigenvalue, the last one less than pi
    after it and the first one at least pi after it, where it is 1.  The
    event on which U's truth value exceeds V's by that much is
    :func:`_top_pair` of U psi and V psi.
    """
    evals, evecs = _unitary_eig(m)
    order = np.argsort(np.angle(evals))
    # runs by phase of eigenvalues within 1e-11 of the one before, idx their
    # first indices and last their last: eigensolvers spread a repeated
    # eigenvalue over 3e-14 at d = 1024, and np.angle may put one at -pi and pi
    repeat = np.abs(evals[order] - evals[np.roll(order, 1)]) <= 1e-11
    starts = np.flatnonzero(~repeat)
    if starts.size:
        idx, last = order[starts], order[np.roll(starts, -1) - 1]
    else:
        # one run, perhaps across -pi and pi: its ends are the phases
        # furthest below and above one of its eigenvalues
        rel = np.angle(evals * evals[0].conjugate())
        idx, last = np.argmin(rel, keepdims=True), np.argmax(rel, keepdims=True)
    # phases after the first, in [0, 2 pi), and the gaps between neighbours
    after = np.angle(evals[idx]) - np.angle(evals[idx[0]])
    gaps = np.diff(after, append=2 * np.pi)
    j = int(np.argmax(gaps))
    if gaps[j] >= np.pi:
        pick, weights = [last[j], idx[(j + 1) % len(idx)]], [0.5, 0.5]
        gap = float(abs(evals[pick[0]] - evals[pick[1]])) / 2
    else:
        b = int(np.flatnonzero(after < np.pi)[-1])
        sb, sc = after[b], after[b + 1]
        pick = [idx[0], idx[b], idx[b + 1]]
        weights = np.maximum([np.sin(sc - sb), -np.sin(sc), np.sin(sb)], 0.0)
        gap = 1.0
    psi = evecs[:, pick] @ np.sqrt(weights)
    return gap, psi / np.linalg.norm(psi)


# neighbouring cosines further apart than this end a run.  Across a cut of
# width g, eigh's vectors leak about eps / g into the other run, at most
# about 2e-10 here; that moves <psi|m|psi> and the separation sqrt(1 - r^2)
# by far less than the 1e-9 the witness is held to
_COS_RUN = 1e-6
# a run's block with no entry off its diagonal above this is diagonal: the
# run holds one eigenvalue, whose eigh vectors leave entries of about 2e-15
# at d = 1024, and each column is an eigenvector within sqrt(k) * 1e-13
_DIAGONAL = 1e-13


def _unitary_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and an orthonormal eigenbasis Q of the unitary m.

    One eigh of the Hermitian part (m + m*)/2 gives the cosines of m's
    eigenphases and a basis Q in which Q*mQ is block diagonal over the runs
    of equal cosine.  A run of one, or a run whose block is diagonal, holds
    eigenpairs already.  Any other run holds an eigenphase and its negative
    and is finished by eig of its own block, whose vectors QR makes
    orthonormal: eig's are not within a repeated eigenvalue, and elsewhere
    QR moves them by eps.
    """
    cos, q = np.linalg.eigh((m + m.conj().T) / 2)
    mq = m @ q
    evals = np.einsum("ij,ij->j", q.conj(), mq)
    for run in np.split(np.arange(len(cos)), np.flatnonzero(np.diff(cos) > _COS_RUN) + 1):
        if len(run) == 1:
            continue
        block = q[:, run].conj().T @ mq[:, run]
        if np.max(np.abs(block - np.diag(evals[run]))) > _DIAGONAL:
            evals[run], rot = np.linalg.eig(block)
            q[:, run] = q[:, run] @ np.linalg.qr(rot)[0]
    return evals, q


def leq_rho_P(u: UnitaryGate, v: UnitaryGate, rho: DensityOperator,
              p: Projector, tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Is U's truth value at (rho, p) at most V's plus ``tol``?"""
    return _decide("leq_rho_P", u, v, rho, p, tol)


def leq_rho(u: UnitaryGate, v: UnitaryGate, rho: DensityOperator,
            tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Is U's truth value at rho at most V's plus ``tol`` for every event?

    U's exceeds V's by at most the sum of the positive eigenvalues of
    U rho U* - V rho V*, reached at the projector onto their eigenvectors.
    The difference is traceless, so that is the trace distance, and this
    decides exactly as :func:`equiv_rho`, witness included.
    """
    return _decide("leq_rho", u, v, rho, None, tol)


def leq_P(u: UnitaryGate, v: UnitaryGate, p: Projector,
          tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Is U's truth value for event p at most V's plus ``tol`` at every state?

    U's exceeds V's by at most the largest eigenvalue of U* P U - V* P V,
    reached at the pure state of its eigenvector.  The difference of two
    projections of one rank has a symmetric spectrum, so that is the
    operator norm, and this decides exactly as :func:`equiv_P`.
    """
    return _decide("leq_P", u, v, None, p, tol)


@dataclass(frozen=True)
class HierarchyReport:
    """The three stacked relations evaluated on one (U, V, rho, P) tuple."""

    total: EquivalenceReport
    state: EquivalenceReport
    pointwise: EquivalenceReport

    @property
    def verdicts(self) -> tuple[bool, bool, bool]:
        return (self.total.holds, self.state.holds, self.pointwise.holds)


def hierarchy_check(u: UnitaryGate, v: UnitaryGate, rho: DensityOperator,
                    p: Projector, tol: float = DEFAULT_TOL) -> HierarchyReport:
    """Evaluate total, fixed-state, and pointwise equivalence together.

    Under the one meaning of ``tol`` the implications total => state =>
    pointwise are theorems: every context of a narrower relation lies in
    the scope of a wider one, so its gap is at most the wider gap.  They
    are asserted, and a violation raises :class:`HierarchyViolation`.  The
    gaps are computed by different arithmetic, so it can fire only if two
    of them lie within rounding (about 1e-16 of the truth values) of
    ``tol`` on either side, or on a defect in the deciders.
    """
    total = equiv_total(u, v, tol)
    state = equiv_rho(u, v, rho, tol)
    point = equiv_rho_P(u, v, rho, p, tol)
    if total.holds and not state.holds:
        raise HierarchyViolation("equiv_total held but equiv_rho failed")
    if state.holds and not point.holds:
        raise HierarchyViolation("equiv_rho held but equiv_rho_P failed")
    return HierarchyReport(total, state, point)


# ---------------------------------------------------------------------------
# quotients of word lists


@dataclass(frozen=True, eq=False)
class QuotientPartition:
    """Words grouped into classes of the chosen relation.

    Classes appear in order of their first member; ``keys`` holds one
    canonical rounded key per class (the truth value for the pointwise
    relation, the evolved state's entries for the fixed-state one).
    A partition built by ``quotient`` holds each class's representative
    invariant rather than its key, and builds the keys from those whenever
    they are read.  Equality and the hash are those of (relation, classes,
    keys).
    """

    relation: str
    classes: tuple[tuple[GateWord, ...], ...]
    _keys: tuple[tuple, ...] | None = field(default=None, repr=False)
    _reps: tuple = field(default=(), repr=False)

    @property
    def keys(self) -> tuple[tuple, ...]:
        if self._keys is not None:
            return self._keys
        if self.relation == "equiv_rho_P":
            return tuple((round(float(r), 9) + 0.0,) for r in self._reps)
        return tuple(entry_key(r, 9) for r in self._reps)

    def _fields(self) -> tuple:
        return self.relation, self.classes, self.keys

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def to_json_dict(self) -> dict:
        return {
            "relation": self.relation,
            "classes": [[format_word(w) for w in cls] for cls in self.classes],
            "count": len(self.classes),
        }


# a chunk of evolved factors, and a batch of invariants, stay within this
# many bytes
_CHUNK_BYTES = 2 << 20


def _word_invariants(words: list[GateWord], factor: np.ndarray, signs: np.ndarray,
                     p: Projector | None, pair_tol: float):
    """Each word's invariant, in batches of the list as given: its truth
    value Sum_j s_j <(UF)_j, P (UF)_j> if ``p`` is given, else its evolved
    state (UF) S (UF)*.  Yields (index of the batch's first word, batch).

    Words are evolved in chunks, each holding at most ``_CHUNK_BYTES`` of
    U F, so the working set is bounded whatever the rank of rho; at a
    rank-one context, up to 2**17 / dim words share one chunk.  A chunk's
    evolved states are formed in batches of at most ``_CHUNK_BYTES`` too,
    dim * dim * 16 bytes per word.
    """
    dim, rank = factor.shape
    step = max(1, _CHUNK_BYTES // (16 * dim * rank))
    per = step if p is not None else max(1, _CHUNK_BYTES // (16 * dim * dim))
    for start in range(0, len(words), step):
        states = _evolve_words(words[start:start + step], factor)
        if p is not None:
            yield start, np.array(_truth_values(states.reshape(dim, -1), signs, p, pair_tol))
            continue
        for i in range(0, states.shape[1], per):
            y = states[:, i:i + per, :].transpose(1, 0, 2)
            yield start + i, (y * signs) @ y.conj().transpose(0, 2, 1)


def quotient(words: Sequence[GateWord], relation: str, rho: DensityOperator,
             p: Projector | None = None, tol: float = DEFAULT_TOL) -> QuotientPartition:
    """Partition words by equiv_rho or equiv_rho_P at a fixed context.

    Words are evolved from their prefixes, one kernel call per letter and
    length, on a factor F of the context with rho = F S F* (S the signs of
    rho's eigenvalues).  Any word list is accepted: unordered, with
    repeats, or not closed under prefixes.  A word's invariant is its
    truth value Sum_j s_j <(UF)_j, P (UF)_j>, or the evolved Hermitian part
    of rho, (UF) S (UF)* over the columns of real sign.  Memory is one chunk of at most 2 MiB of U F (at a
    rank-one context, 2**17 / dim words per chunk), one batch of at most
    2 MiB of invariants, and one invariant per class, its representative,
    stored once; ``keys`` are built from the representatives when read.

    A word W is within ``tol`` of a representative R under the deciders'
    rule: truth values at most ``tol`` apart, or evolved states at trace
    distance (1/2)||R - W||_1 at most ``tol``.  D = R - W has rank at most
    2r, r the rank of the factor, and is traceless, so
    max|D| <= ||D||_op <= (1/2)||D||_1 <= r ||D||_op <= r d max|D|: an
    entry above ``tol`` rejects, r d max|D| within ``tol`` accepts, and only
    between the two does one eigvalsh of D decide.

    Words are keyed by their rounded invariant (9 decimal digits) for
    near-constant-time grouping.  A key hit joins that class only if the
    word is within ``tol`` of its representative; a miss, or a hit that is
    too far, joins the first representative in class order within ``tol``,
    so values that straddle a rounding boundary merge instead of splitting
    and values that share a key but lie further apart stay apart.  Each
    representative R keeps a probe <R, x>: its real and imaginary parts
    weighted by one fixed real vector x with ||x||_1 = 1.  Since
    |<R - W, x>| <= max|R - W|, only the representatives whose probe lies
    within ``tol`` of the word's, plus a bound on the probes' rounding, are
    compared in full.  A class's key is its representative's;
    the factor's arithmetic differs from composing U by about 1e-16, so at
    a context with inexact entries a key can differ from the composed
    route's by one unit in its ninth digit.
    """
    check_tol(tol)
    if relation not in ("equiv_rho", "equiv_rho_P"):
        raise InvalidArgument(f"quotient supports equiv_rho and equiv_rho_P, got {relation!r}")
    if relation == "equiv_rho_P" and p is None:
        raise InvalidArgument("equiv_rho_P needs an event")
    words = list(words)
    if not words:
        return QuotientPartition(relation, (), ())
    width = words[0].width
    for w in words:
        if w.width != width:
            raise DimensionMismatch(f"word widths differ: {w.width} vs {width}")
    for what, op in (("state", rho), ("event", p)):
        # log2 of a power of two is exact, and no 2**width is formed
        if op is not None and math.log2(op.dim) != width:
            raise DimensionMismatch(f"{what} dim {op.dim} vs register width {width}")

    factor, signs = rho._factors
    if relation == "equiv_rho_P":
        # truth_value's tolerance for a gate, which has the default
        event, pair_tol = p, max(DEFAULT_TOL, rho.tolerance, p.tolerance)
        within = lambda a, b: abs(a - b) <= tol
    else:
        factor, signs = _hermitian_part(factor, signs)
        event, pair_tol = None, 0.0
        wide = len(signs) * rho.dim

        def within(a, b):
            diff = a - b
            top = np.abs(diff).max()
            return top <= tol and (wide * top <= tol
                                   or np.abs(np.linalg.eigvalsh(diff)).sum() <= 2 * tol)
    # the probe weights: m real numbers with no structure of their own and
    # sum |x| = 1, one per real entry of an invariant (m = 1 gives x = [1])
    m = 1 if event is not None else 2 * rho.dim ** 2
    x = (np.arange(1, m + 1) * 0.6180339887498949) % 1.0 - 0.5
    x /= np.abs(x).sum()
    # both probes' rounding: m products of entries at most Sum|lambda| =
    # ||F||^2 in modulus, with weights of total 1, summed in any order
    bound = np.vdot(factor, factor).real
    margin = 4 * (m + 2) * np.finfo(float).eps * (bound + tol)
    # np.round(v, 9) is rint(v * 1e9) / 1e9, so two invariants round alike
    # exactly when their integers rint(v * 1e9) agree; int32 holds those
    # while |v| <= Sum|lambda| < 2
    digits = np.int32 if bound < 2 else np.int64
    classes: list[list[GateWord]] = []
    reps: list = []                         # one invariant per class
    probes = np.empty(len(words))           # <R, x> per class, in class order
    by_key: dict = {}
    for start, batch in _word_invariants(words, factor, signs, event, pair_tol):
        if event is not None:
            values = batch.tolist()
            keys = [round(v, 9) + 0.0 for v in values]
        else:
            values = batch
            scaled = batch.view(float) * 1e9
            keys = [row.tobytes() for row in np.rint(scaled, out=scaled).astype(digits)]
        batch_probes = (batch.view(float).reshape(len(batch), m) @ x).tolist()
        for w, data, key, probe in zip(words[start:], values, keys, batch_probes):
            idx = by_key.get(key)
            if idx is None or not within(reps[idx], data):
                near = np.abs(probes[:len(reps)] - probe) <= tol + margin
                idx = next((int(c) for c in near.nonzero()[0]
                            if within(reps[c], data)), None)
            if idx is None:
                probes[len(reps)] = probe
                reps.append(data if event is not None else data.copy())
                classes.append([w])
                by_key[key] = len(classes) - 1
            else:
                classes[idx].append(w)
                by_key.setdefault(key, idx)
    return QuotientPartition(relation, tuple(tuple(c) for c in classes),
                             _reps=tuple(reps))
