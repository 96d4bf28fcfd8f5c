"""Probabilistic truth values of gates and the hierarchy of relations on them.

The truth value of a gate U at a state rho and an event P is
Tr(U rho U* P).  Identifying gates that agree on more or fewer contexts
yields a strict hierarchy of equivalence relations:

    equal up to global phase  =>  same action on a fixed state  =>
    same truth value at a fixed (state, event) pair,

and dually for the "less true than" preorders.  Every relation here is
decided exactly by linear algebra, not by sampling.  A context fixes one
invariant of a gate: the truth value at (rho, P), the evolved state
U rho U* at rho alone, and the evolved event U* P U at P alone.  Each
relation at a context is one comparison of the two gates' invariants,
equality or order, and ``quotient`` groups words by the same invariants.
Failed quantified relations come with an explicit separating witness.
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
    _evolve,
    _pairing,
    _probability,
    _rank_one,
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
    """Tr(U rho U* P), the probability that P holds after U runs on rho."""
    return _pairing(_evolve(u, rho.matrix), p, max(u.tolerance, rho.tolerance))


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


def _check_context(tol: float, *dims: int):
    check_tol(tol)
    if len(set(dims)) > 1:
        raise DimensionMismatch(f"dimensions differ: {dims}")


def _witness(diff: np.ndarray, *, most_negative: bool = False) -> np.ndarray:
    """The unit eigenvector w of diff's Hermitian part whose eigenvalue is
    largest in magnitude (ties toward the positive end), or most negative:
    |w><w| is the event or state on which two invariants differ most."""
    evals, evecs = np.linalg.eigh((diff + diff.conj().T) / 2)
    top = not most_negative and abs(evals[-1]) >= abs(evals[0])
    w = evecs[:, -1 if top else 0]
    return w / np.linalg.norm(w)


def _invariant(u: UnitaryGate, rho: DensityOperator | None,
               p: Projector | None):
    """What a context sees of U: the truth value at (rho, p), U rho U* at
    rho alone, U* P U at p alone."""
    if rho is None:
        return u.matrix.conj().T @ p.matrix @ u.matrix
    if p is None:
        return _evolve(u, rho.matrix)
    return truth_value(u, rho, p)


def _decide(relation: str, u: UnitaryGate, v: UnitaryGate,
            rho: DensityOperator | None, p: Projector | None,
            tol: float) -> EquivalenceReport:
    """Compare the invariants of U and V at a context for equality, or for
    order (U's at most V's).

    Evolved states or events are equal when every entry agrees within
    ``tol``, and ordered when V's minus U's is positive semidefinite within
    ``tol``.  A failing comparison is witnessed by :func:`_witness` of the
    difference: an event at a fixed state, a state at a fixed event.
    """
    _check_context(tol, *(op.dim for op in (u, v, rho, p) if op is not None))
    equal = relation.startswith("equiv")
    if rho is not None and p is not None:
        a, b = _invariant(u, rho, p), _invariant(v, rho, p)
        holds = abs(a - b) <= tol if equal else a <= b + tol
        return EquivalenceReport(relation, holds, tol, lhs=a, rhs=b)
    # U's minus V's for equality, V's minus U's for order
    first, second = (u, v) if equal else (v, u)
    diff = _invariant(first, rho, p) - _invariant(second, rho, p)
    if equal:
        holds = float(np.max(np.abs(diff))) <= tol
    else:
        holds = float(np.linalg.eigvalsh((diff + diff.conj().T) / 2)[0]) >= -tol
    if holds:
        return EquivalenceReport(relation, True, tol)
    w = _witness(diff, most_negative=not equal)
    if p is None:
        return EquivalenceReport(relation, False, tol, witness_event=_rank_one(Projector, w))
    return EquivalenceReport(relation, False, tol, witness_state=_rank_one(DensityOperator, w))


def equiv_rho_P(u: UnitaryGate, v: UnitaryGate, rho: DensityOperator,
                p: Projector, tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Do U and V have the same truth value at this one (state, event) pair?"""
    return _decide("equiv_rho_P", u, v, rho, p, tol)


def equiv_rho(u: UnitaryGate, v: UnitaryGate, rho: DensityOperator,
              tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Do U and V send ``rho`` to the same state (all events agree)?

    Decided by comparing U rho U* and V rho V* entrywise; equality of the
    evolved states is the same as agreement of Tr(. P) for every event P.
    On failure, the spectral top of the difference gives a separating event.
    """
    return _decide("equiv_rho", u, v, rho, None, tol)


def equiv_P(u: UnitaryGate, v: UnitaryGate, p: Projector,
            tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Do U and V give event ``p`` the same truth value at every state?

    Equivalent to U* P U = V* P V; a failing pair is separated by the state
    built from the top eigenvector of the difference.
    """
    return _decide("equiv_P", u, v, None, p, tol)


def equiv_total(u: UnitaryGate, v: UnitaryGate,
                tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Do U and V agree on every state and every event?

    That holds exactly when V* U is a global phase e^{i theta} times the
    identity; truth values cannot see theta.  The report carries theta
    (from the first nonzero diagonal entry) plus a strict flag for literal
    matrix equality.  On failure the (state, event) pair that separates U
    and V most is attached (:func:`_separating_context`).
    """
    _check_context(tol, u.dim, v.dim)
    m = v.matrix.conj().T @ u.matrix
    diag = np.diagonal(m)
    nz = np.flatnonzero(np.abs(diag) > tol)
    theta = float(np.angle(diag[nz[0]])) if nz.size else 0.0
    gap = float(np.max(np.abs(m - np.exp(1j * theta) * np.eye(u.dim))))
    strict = float(np.max(np.abs(u.matrix - v.matrix))) <= tol
    if gap <= tol:
        return EquivalenceReport("equiv_total", True, tol,
                                 theta=theta, strict_equal=strict)
    rho, p = _separating_context(u, v, m)
    return EquivalenceReport("equiv_total", False, tol, theta=theta,
                             strict_equal=strict, witness_state=rho,
                             witness_event=p)


def _separating_context(u: UnitaryGate, v: UnitaryGate,
                        m: np.ndarray) -> tuple[DensityOperator, Projector]:
    """The (state, event) pair that separates U and V most, given m = V*U.

    At a pure state psi, U psi and V psi lie sqrt(1 - |<psi|m|psi>|^2)
    apart, and <psi|m|psi> ranges over the convex hull of m's eigenvalues.
    psi superposes eigenvectors of at most three distinct eigenvalues,
    weighted to the hull's point nearest 0, at distance r: the midpoint of
    the ends of an arc of at most pi that holds every eigenphase, or else
    0, inside the triangle of an eigenvalue, the last one less than pi
    after it and the first one at least pi after it.  With a = U psi,
    b = V psi and c = <a|b>, the event is onto e = (1 + s) a - conj(c) b,
    the +s eigenvector of |a><a| - |b><b|: U's truth value exceeds V's by
    s = sqrt(1 - r^2), the most any context can, taken without cancellation
    as |a - e^{-i arg c} b| sqrt((1 + |c|) / 2).  If s or e is 0, a and b
    agree to rounding and the event is onto a.
    """
    evals, evecs = _unitary_eig(m)
    order = np.argsort(np.angle(evals))
    # runs by phase of eigenvalues within 1e-11 of the one before, idx their
    # first indices and last their last: eigensolvers spread a repeated
    # eigenvalue over 3e-14 at d = 1024, and np.angle may put one at -pi and pi
    repeat = np.abs(evals[order] - evals[np.roll(order, 1)]) <= 1e-11
    starts = np.flatnonzero(~repeat)
    idx = order[starts] if starts.size else order[:1]
    last = order[np.roll(starts, -1) - 1] if starts.size else idx
    # phases after the first, in [0, 2 pi), and the gaps between neighbours
    after = np.angle(evals[idx]) - np.angle(evals[idx[0]])
    gaps = np.diff(after, append=2 * np.pi)
    j = int(np.argmax(gaps))
    if gaps[j] >= np.pi:
        pick, weights = [last[j], idx[(j + 1) % len(idx)]], [0.5, 0.5]
    else:
        b = int(np.flatnonzero(after < np.pi)[-1])
        sb, sc = after[b], after[b + 1]
        pick = [idx[0], idx[b], idx[b + 1]]
        weights = np.maximum([np.sin(sc - sb), -np.sin(sc), np.sin(sb)], 0.0)
    psi = evecs[:, pick] @ np.sqrt(weights)
    psi = psi / np.linalg.norm(psi)
    a, b = u.matrix @ psi, v.matrix @ psi
    c = np.vdot(a, b)
    s = np.linalg.norm(a - np.exp(-1j * np.angle(c)) * b) * math.sqrt((1 + abs(c)) / 2)
    e = (1 + s) * a - c.conjugate() * b
    n = np.linalg.norm(e)
    event = e / n if s and n else a / np.linalg.norm(a)
    return _rank_one(DensityOperator, psi), _rank_one(Projector, event)


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
    """Is U's truth value at (rho, p) at most V's?"""
    return _decide("leq_rho_P", u, v, rho, p, tol)


def leq_rho(u: UnitaryGate, v: UnitaryGate, rho: DensityOperator,
            tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Is U's truth value at rho at most V's for every event?

    Holds exactly when V rho V* - U rho U* is positive semidefinite.  The
    most negative eigenvector supplies a violating event otherwise.
    """
    return _decide("leq_rho", u, v, rho, None, tol)


def leq_P(u: UnitaryGate, v: UnitaryGate, p: Projector,
          tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Is U's truth value for event p at most V's at every state?

    Holds exactly when V* P V - U* P U is positive semidefinite; failing,
    the most negative eigenvector gives a violating state.
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

    The implications total => state => pointwise are asserted; a violation
    raises :class:`HierarchyViolation`, which signals a bug in the relation
    code rather than bad input.
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


def _factor(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F and the diagonal of S with rho = F S F* to rounding.

    rho = A + iB with A and B Hermitian; B is zero unless rho is Hermitian
    only within its tolerance.  F holds the eigenvectors of A and of B
    scaled by sqrt|lambda|, and S the signs of A's eigenvalues and i times
    those of B's, for the eigenvalues above numpy's ``matrix_rank`` cutoff
    d * eps * max|lambda|.  A pure state gives one column.  The small
    negative eigenvalues a state admits within its tolerance are kept with
    sign -1, not clipped.
    """
    evals, evecs = [], []
    for part, unit in (((rho + rho.conj().T) / 2, 1), ((rho - rho.conj().T) / 2j, 1j)):
        if part.any():
            lam, vec = np.linalg.eigh(part)
            evals.append(lam * unit)
            evecs.append(vec)
    lam, vec = np.concatenate(evals), np.hstack(evecs)
    mags = np.abs(lam)
    keep = mags > len(rho) * np.finfo(float).eps * mags.max()
    return vec[:, keep] * np.sqrt(mags[keep]), lam[keep] / mags[keep]


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
            flat = states.reshape(dim, -1)
            traces = (np.einsum("ij,ij->j", flat.conj(), p.matrix @ flat)
                      .reshape(-1, rank) @ signs)
            yield start, np.array([_probability(t, pair_tol) for t in traces.tolist()])
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
    truth value Sum_j s_j <(UF)_j, P (UF)_j>, or its evolved state
    (UF) S (UF)*.  Memory is one chunk of at most 2 MiB of U F (at a
    rank-one context, 2**17 / dim words per chunk), one batch of at most
    2 MiB of invariants, and one invariant per class, its representative,
    stored once; ``keys`` are built from the representatives when read.

    Words are keyed by their rounded invariant (9 decimal digits) for
    near-constant-time grouping.  A key hit joins that class only if the
    word is within ``tol`` of its representative; a miss, or a hit that is
    too far, joins the first representative in class order within ``tol``,
    so values that straddle a rounding boundary merge instead of splitting
    and values that share a key but differ by more than ``tol`` stay
    apart.  Each representative R keeps a probe <R, x>: its real and
    imaginary parts weighted by one fixed real vector x with ||x||_1 = 1.
    Since |<R - W, x>| <= max|R - W|, only the representatives whose probe
    lies within ``tol`` of the word's, plus a bound on the probes'
    rounding, are compared in full.  A class's key is its representative's;
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

    factor, signs = _factor(rho.matrix)
    if relation == "equiv_rho_P":
        # truth_value's tolerance for a gate, which has the default
        event, pair_tol = p, max(DEFAULT_TOL, rho.tolerance, p.tolerance)
        dist = lambda a, b: abs(a - b)
    else:
        event, pair_tol = None, 0.0
        dist = lambda a, b: np.abs(a - b).max()
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
            if idx is None or dist(reps[idx], data) > tol:
                near = np.abs(probes[:len(reps)] - probe) <= tol + margin
                idx = next((int(c) for c in near.nonzero()[0]
                            if dist(reps[c], data) <= tol), None)
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
