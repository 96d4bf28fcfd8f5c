"""Probabilistic truth values of gates and the hierarchy of relations on them.

The truth value of a gate U at a state rho and an event P is
Tr(U rho U* P).  Identifying gates that agree on more or fewer contexts
yields a strict hierarchy of equivalence relations:

    equal up to global phase  =>  same action on a fixed state  =>
    same truth value at a fixed (state, event) pair,

and dually for the "less true than" preorders.  Every relation here is
decided exactly by linear algebra, not by sampling; a sampled-context
variant is provided separately and is clearly labeled approximate.
Failed quantified relations come with an explicit separating witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, HierarchyViolation, ValidationFailure
from .gates import GateWord, compose_word, format_word
from .qcore import (
    DEFAULT_TOL,
    DensityOperator,
    Projector,
    UnitaryGate,
    born,
    conjugate,
    entry_key,
    matrix_to_json,
)

RELATIONS = ("equiv_rho_P", "equiv_rho", "equiv_P", "equiv_total",
             "leq_rho_P", "leq_rho", "leq_P")


def truth_value(u: UnitaryGate, rho: DensityOperator, p: Projector) -> float:
    """Tr(U rho U* P), the probability that P holds after U runs on rho."""
    return born(conjugate(u, rho), p)


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
            raise ValueError(f"unknown relation {self.relation!r}")

    def to_json_dict(self) -> dict:
        out: dict = {
            "relation": self.relation,
            "holds": self.holds,
            "tolerance": self.tolerance,
        }
        if self.lhs is not None:
            out["lhs"] = self.lhs
        if self.rhs is not None:
            out["rhs"] = self.rhs
        if self.theta is not None:
            out["theta"] = self.theta
        if self.strict_equal is not None:
            out["strict_equal"] = self.strict_equal
        witness = {}
        if self.witness_state is not None:
            witness["state"] = matrix_to_json(self.witness_state.matrix)
        if self.witness_event is not None:
            witness["event"] = matrix_to_json(self.witness_event.matrix)
        if witness:
            out["witness"] = witness
        return out


def _check_dims(*dims: int):
    if len(set(dims)) > 1:
        raise DimensionMismatch(f"dimensions differ: {dims}")


def _top_eigenvector(herm: np.ndarray, *, most_negative: bool = False) -> np.ndarray:
    """Eigenvector of largest |eigenvalue| (ties resolved toward the positive
    end), or of the most negative eigenvalue."""
    evals, evecs = np.linalg.eigh((herm + herm.conj().T) / 2)
    if most_negative:
        idx = 0
    else:
        idx = len(evals) - 1 if abs(evals[-1]) >= abs(evals[0]) else 0
    v = evecs[:, idx]
    return v / np.linalg.norm(v)


def _rank_one(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def equiv_rho_P(u: UnitaryGate, v: UnitaryGate, rho: DensityOperator,
                p: Projector, tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Do U and V have the same truth value at this one (state, event) pair?"""
    _check_dims(u.dim, v.dim, rho.dim, p.dim)
    lhs = truth_value(u, rho, p)
    rhs = truth_value(v, rho, p)
    return EquivalenceReport("equiv_rho_P", abs(lhs - rhs) <= tol, tol,
                             lhs=lhs, rhs=rhs)


def equiv_rho(u: UnitaryGate, v: UnitaryGate, rho: DensityOperator,
              tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Do U and V send ``rho`` to the same state (all events agree)?

    Decided by comparing U rho U* and V rho V* entrywise; equality of the
    evolved states is the same as agreement of Tr(. P) for every event P.
    On failure, the spectral top of the difference gives a separating event.
    """
    _check_dims(u.dim, v.dim, rho.dim)
    a = conjugate(u, rho).matrix
    b = conjugate(v, rho).matrix
    gap = float(np.max(np.abs(a - b)))
    if gap <= tol:
        return EquivalenceReport("equiv_rho", True, tol)
    witness = Projector(_rank_one(_top_eigenvector(a - b)))
    return EquivalenceReport("equiv_rho", False, tol, witness_event=witness)


def equiv_P(u: UnitaryGate, v: UnitaryGate, p: Projector,
            tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Do U and V give event ``p`` the same truth value at every state?

    Equivalent to U* P U = V* P V; a failing pair is separated by the state
    built from the top eigenvector of the difference.
    """
    _check_dims(u.dim, v.dim, p.dim)
    a = u.matrix.conj().T @ p.matrix @ u.matrix
    b = v.matrix.conj().T @ p.matrix @ v.matrix
    gap = float(np.max(np.abs(a - b)))
    if gap <= tol:
        return EquivalenceReport("equiv_P", True, tol)
    witness = DensityOperator(_rank_one(_top_eigenvector(a - b)))
    return EquivalenceReport("equiv_P", False, tol, witness_state=witness)


def equiv_total(u: UnitaryGate, v: UnitaryGate,
                tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Do U and V agree on every state and every event?

    That holds exactly when V* U is a global phase e^{i theta} times the
    identity; truth values cannot see theta.  The report carries theta
    (from the first nonzero diagonal entry) plus a strict flag for literal
    matrix equality.  On failure a separating (state, event) pair is
    attached.
    """
    _check_dims(u.dim, v.dim)
    m = v.matrix.conj().T @ u.matrix
    diag = np.diagonal(m)
    nz = np.flatnonzero(np.abs(diag) > tol)
    theta = float(np.angle(diag[nz[0]])) if nz.size else 0.0
    gap = float(np.max(np.abs(m - np.exp(1j * theta) * np.eye(u.dim))))
    strict = float(np.max(np.abs(u.matrix - v.matrix))) <= tol
    if gap <= tol:
        return EquivalenceReport("equiv_total", True, tol,
                                 theta=theta, strict_equal=strict)
    rho, p = _separating_context(u, v, m, tol)
    return EquivalenceReport("equiv_total", False, tol, theta=theta,
                             strict_equal=strict, witness_state=rho,
                             witness_event=p)


def _separating_context(u: UnitaryGate, v: UnitaryGate, m: np.ndarray,
                        tol: float) -> tuple[DensityOperator, Projector]:
    """A (state, event) pair on which u and v disagree, given m = V*U not
    scalar.

    A superposition of two eigenvectors of m with distinct eigenphases is
    moved differently by U and V; the separating event then comes from
    :func:`equiv_rho`.  A seeded random search backs this up in case of
    eigensolver ties.
    """
    evals, evecs = np.linalg.eig(m)
    order = np.argsort(np.angle(evals))
    candidates = []
    lo, hi = order[0], order[-1]
    if abs(evals[lo] - evals[hi]) > tol:
        w = evecs[:, lo] + evecs[:, hi]
        candidates.append(w / np.linalg.norm(w))
    rng = np.random.default_rng(7)
    for _ in range(32):
        w = rng.standard_normal(u.dim) + 1j * rng.standard_normal(u.dim)
        candidates.append(w / np.linalg.norm(w))
    best: tuple[float, DensityOperator, Projector] | None = None
    for w in candidates:
        rho = DensityOperator(_rank_one(w))
        rep = equiv_rho(u, v, rho, tol)
        if rep.holds:
            continue
        p = rep.witness_event
        sep = abs(truth_value(u, rho, p) - truth_value(v, rho, p))
        if best is None or sep > best[0]:
            best = (sep, rho, p)
        if sep > 10 * tol:
            break
    if best is None:
        raise HierarchyViolation(
            "equiv_total failed but no separating context was found")
    return best[1], best[2]


def leq_rho_P(u: UnitaryGate, v: UnitaryGate, rho: DensityOperator,
              p: Projector, tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Is U's truth value at (rho, p) at most V's?"""
    _check_dims(u.dim, v.dim, rho.dim, p.dim)
    lhs = truth_value(u, rho, p)
    rhs = truth_value(v, rho, p)
    return EquivalenceReport("leq_rho_P", lhs <= rhs + tol, tol, lhs=lhs, rhs=rhs)


def leq_rho(u: UnitaryGate, v: UnitaryGate, rho: DensityOperator,
            tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Is U's truth value at rho at most V's for every event?

    Holds exactly when V rho V* - U rho U* is positive semidefinite.  The
    most negative eigenvector supplies a violating event otherwise.
    """
    _check_dims(u.dim, v.dim, rho.dim)
    diff = conjugate(v, rho).matrix - conjugate(u, rho).matrix
    low = float(np.linalg.eigvalsh((diff + diff.conj().T) / 2)[0])
    if low >= -tol:
        return EquivalenceReport("leq_rho", True, tol)
    witness = Projector(_rank_one(_top_eigenvector(diff, most_negative=True)))
    return EquivalenceReport("leq_rho", False, tol, witness_event=witness)


def leq_P(u: UnitaryGate, v: UnitaryGate, p: Projector,
          tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Is U's truth value for event p at most V's at every state?

    Holds exactly when V* P V - U* P U is positive semidefinite; failing,
    the most negative eigenvector gives a violating state.
    """
    _check_dims(u.dim, v.dim, p.dim)
    diff = (v.matrix.conj().T @ p.matrix @ v.matrix
            - u.matrix.conj().T @ p.matrix @ u.matrix)
    low = float(np.linalg.eigvalsh((diff + diff.conj().T) / 2)[0])
    if low >= -tol:
        return EquivalenceReport("leq_P", True, tol)
    witness = DensityOperator(_rank_one(_top_eigenvector(diff, most_negative=True)))
    return EquivalenceReport("leq_P", False, tol, witness_state=witness)


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


@dataclass(frozen=True)
class QuotientPartition:
    """Words grouped into classes of the chosen relation.

    Classes appear in order of their first member; ``keys`` holds one
    canonical rounded key per class (the truth value for the pointwise
    relation, the evolved state's entries for the fixed-state one).
    """

    relation: str
    classes: tuple[tuple[GateWord, ...], ...]
    keys: tuple[tuple, ...]

    def to_json_dict(self) -> dict:
        return {
            "relation": self.relation,
            "classes": [[format_word(w) for w in cls] for cls in self.classes],
            "count": len(self.classes),
        }


def quotient(words: Sequence[GateWord], relation: str, rho: DensityOperator,
             p: Projector | None = None, tol: float = DEFAULT_TOL) -> QuotientPartition:
    """Partition words by equiv_rho or equiv_rho_P at a fixed context.

    Words are keyed by their rounded invariant (9 decimal digits) for
    near-constant-time grouping.  A key hit joins that class only if the
    word is within ``tol`` of its representative; a miss, or a hit that is
    too far, is compared against every representative at ``tol``, so values
    that straddle a rounding boundary merge instead of splitting and values
    that share a key but differ by more than ``tol`` stay apart.
    """
    if relation not in ("equiv_rho", "equiv_rho_P"):
        raise ValueError(f"quotient supports equiv_rho and equiv_rho_P, got {relation!r}")
    if relation == "equiv_rho_P" and p is None:
        raise ValueError("equiv_rho_P needs an event")
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

    classes: list[list[GateWord]] = []
    keys: list[tuple] = []
    by_key: dict[tuple, int] = {}
    # class representatives, stacked; complex holds a truth value exactly
    shape = rho.matrix.shape if relation == "equiv_rho" else ()
    reps = np.empty((0,) + shape, dtype=complex)
    for w in words:
        u = compose_word(w)
        if relation == "equiv_rho":
            data = conjugate(u, rho).matrix
            key = entry_key(data, 9)
        else:
            data = truth_value(u, rho, p)
            key = (round(data, 9) + 0.0,)
        dist = np.abs(reps - data).max(axis=tuple(range(1, reps.ndim)))
        idx = by_key.get(key)
        if idx is None or dist[idx] > tol:
            near = np.flatnonzero(dist <= tol)
            idx = int(near[0]) if near.size else None
        if idx is None:
            classes.append([w])
            reps = np.concatenate([reps, [data]])
            keys.append(key)
            by_key[key] = len(classes) - 1
        else:
            classes[idx].append(w)
            by_key.setdefault(key, idx)
    return QuotientPartition(relation,
                             tuple(tuple(c) for c in classes),
                             tuple(keys))


def equiv_rho_on_bases(u: UnitaryGate, v: UnitaryGate, rho: DensityOperator,
                       bases: Sequence[UnitaryGate],
                       tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Approximate fixed-state equivalence probed on listed bases only.

    Each basis is given as a unitary whose columns are the measurement
    vectors; only rank-one events from those columns are compared, so a
    "holds" verdict here is weaker than :func:`equiv_rho` and should be
    treated as a screening result.
    """
    _check_dims(u.dim, v.dim, rho.dim)
    for basis in bases:
        _check_dims(u.dim, basis.dim)
        for k in range(basis.dim):
            p = Projector(_rank_one(basis.matrix[:, k]))
            rep = equiv_rho_P(u, v, rho, p, tol)
            if not rep.holds:
                return EquivalenceReport("equiv_rho", False, tol, witness_event=p)
    return EquivalenceReport("equiv_rho", True, tol)
