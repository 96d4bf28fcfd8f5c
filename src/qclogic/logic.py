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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, HierarchyViolation
from .gates import GateWord, _apply, format_word
from .qcore import (
    DEFAULT_TOL,
    DensityOperator,
    Projector,
    UnitaryGate,
    _evolve,
    _pairing,
    _probability,
    check_tol,
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


def _check_context(tol: float, *dims: int):
    check_tol(tol)
    if len(set(dims)) > 1:
        raise DimensionMismatch(f"dimensions differ: {dims}")


def _rank_one(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


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
    ``tol``.  A failing comparison is witnessed by the eigenvector of the
    difference whose eigenvalue is largest in magnitude (equality) or most
    negative (order): an event at a fixed state, a state at a fixed event.
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
    evals, evecs = np.linalg.eigh((diff + diff.conj().T) / 2)
    top = equal and abs(evals[-1]) >= abs(evals[0])
    w = evecs[:, len(evals) - 1 if top else 0]
    w = _rank_one(w / np.linalg.norm(w))
    if p is None:
        return EquivalenceReport(relation, False, tol, witness_event=Projector(w))
    return EquivalenceReport(relation, False, tol, witness_state=DensityOperator(w))


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
    matrix equality.  On failure a separating (state, event) pair is
    attached.
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
    eigensolver ties.  The search stops at the first candidate whose
    truth values differ by more than 10 tol, or keeps the one where they
    differ most.  Candidates are not screened by ``equiv_rho`` at ``tol``:
    at a loose ``tol`` the evolved states of a wide register can agree
    entrywise within ``tol`` (their entries shrink as the dimension grows)
    while a truth value still tells U and V apart.
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
        # at tolerance 0 every candidate that moves at all gets a witness,
        # the same one equiv_rho gives at tol when it fails there
        rep = equiv_rho(u, v, rho, 0.0)
        if rep.holds:
            continue
        p = rep.witness_event
        sep = abs(truth_value(u, rho, p) - truth_value(v, rho, p))
        if best is None or sep > best[0]:
            best = (sep, rho, p)
        if sep > 10 * tol:
            break
    if best is None or best[0] == 0:
        raise HierarchyViolation(
            "equiv_total failed but no separating context was found")
    return best[1], best[2]


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


def _evolve_words(words: list[GateWord], factor: np.ndarray) -> np.ndarray:
    """U F for each word's product U, as a (dim, len(words), rank) array.

    Every prefix of a listed word is a node of a trie, so any word list
    takes this path.  The nodes of one length are evolved from their
    parents with one kernel call per last letter, on the parents' blocks
    side by side, and a length's states are dropped once the next length
    is built.
    """
    width = words[0].width
    dim, rank = factor.shape
    # levels[k] numbers the nodes of length k by (parent node, last letter);
    # the root, the empty word, is node 0 of length 0
    levels: list[dict] = [{}]
    ends: list[list[tuple[int, int]]] = [[]]   # per length: (word, node)
    for i, w in enumerate(words):
        node = 0
        for k, spec in enumerate(w.word, 1):
            if k == len(levels):
                levels.append({})
                ends.append([])
            node = levels[k].setdefault((node, spec), len(levels[k]))
        ends[len(w.word)].append((i, node))
    out = np.empty((dim, len(words), rank), dtype=complex)
    states = factor[:, None, :]
    for k, level in enumerate(levels):
        if k:
            groups: dict = {}
            for (parent, spec), node in level.items():
                parents, nodes = groups.setdefault(spec, ([], []))
                parents.append(parent)
                nodes.append(node)
            children = np.empty((dim, len(level), rank), dtype=complex)
            for spec, (parents, nodes) in groups.items():
                block = states[:, parents, :].reshape(dim, -1)
                children[:, nodes, :] = _apply(spec, block, width).reshape(
                    dim, len(nodes), rank)
            states = children
        if ends[k]:
            ids, nodes = zip(*ends[k])
            out[:, ids, :] = states[:, nodes, :]
    return out


def _rounded(state: np.ndarray) -> np.ndarray:
    """Real and imaginary parts side by side, to 9 digits; -0.0 and 0.0
    become one."""
    return np.round(state.view(float), 9) + 0.0


# the evolved factors of one chunk of words stay within this many bytes
_CHUNK_BYTES = 2 << 20


def _word_invariants(words: list[GateWord], relation: str, rho: DensityOperator,
                     p: Projector | None):
    """Each word's invariant, in order: its truth value
    Sum_j s_j <(UF)_j, P (UF)_j>, or its evolved state (UF) S (UF)*.

    Words are evolved in chunks of the list as given, each holding at most
    ``_CHUNK_BYTES`` of U F, so the working set is bounded whatever the
    rank of rho; at a rank-one context, up to 2**17 / dim words share one
    chunk.
    """
    factor, signs = _factor(rho.matrix)
    dim, rank = factor.shape
    step = max(1, _CHUNK_BYTES // (16 * dim * rank))
    for start in range(0, len(words), step):
        states = _evolve_words(words[start:start + step], factor)
        if relation == "equiv_rho_P":
            # truth_value's tolerance for a gate, which has the default
            pair_tol = max(DEFAULT_TOL, rho.tolerance, p.tolerance)
            flat = states.reshape(dim, -1)
            traces = (np.einsum("ij,ij->j", flat.conj(), p.matrix @ flat)
                      .reshape(-1, rank) @ signs)
            yield from (_probability(complex(t), pair_tol) for t in traces)
        else:
            for i in range(states.shape[1]):
                y = states[:, i, :]
                yield (y * signs) @ y.conj().T


def quotient(words: Sequence[GateWord], relation: str, rho: DensityOperator,
             p: Projector | None = None, tol: float = DEFAULT_TOL) -> QuotientPartition:
    """Partition words by equiv_rho or equiv_rho_P at a fixed context.

    Words are evolved from their prefixes, one kernel call per letter and
    length, on a factor F of the context with rho = F S F* (S the signs of
    rho's eigenvalues).  Any word list is accepted: unordered, with
    repeats, or not closed under prefixes.  Words are evolved in chunks
    of at most 2 MiB of U F (at a rank-one context, 2**17 / dim words per
    chunk); memory is that chunk plus one evolved state per class.
    A word's invariant is its truth value Sum_j s_j <(UF)_j, P (UF)_j>, or
    its evolved state (UF) S (UF)*.

    Words are keyed by their rounded invariant (9 decimal digits) for
    near-constant-time grouping.  A key hit joins that class only if the
    word is within ``tol`` of its representative; a miss, or a hit that is
    too far, is compared against every representative at ``tol``, so values
    that straddle a rounding boundary merge instead of splitting and values
    that share a key but differ by more than ``tol`` stay apart.  A class's
    key is its representative's; the factor's arithmetic differs from
    composing U by about 1e-16, so at a context with inexact entries a key
    can differ from the composed route's by one unit in its ninth digit.
    """
    check_tol(tol)
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
    by_key: dict = {}
    # class representatives, stacked; complex holds a truth value exactly
    reps = np.empty((0,) + (rho.matrix.shape if relation == "equiv_rho" else ()),
                    dtype=complex)
    for w, data in zip(words, _word_invariants(words, relation, rho, p)):
        key = (round(data, 9) + 0.0 if relation == "equiv_rho_P"
               else _rounded(data).tobytes())
        idx = by_key.get(key)
        if idx is None or np.abs(reps[idx] - data).max() > tol:
            dist = np.abs(reps - data).max(axis=tuple(range(1, reps.ndim)))
            near = np.flatnonzero(dist <= tol)
            idx = int(near[0]) if near.size else None
        if idx is None:
            classes.append([w])
            reps = np.concatenate([reps, [data]])
            by_key[key] = len(classes) - 1
        else:
            classes[idx].append(w)
            by_key.setdefault(key, idx)
    del by_key   # before the public keys, which take far more room
    # a class's key is its first word's, the rounded representative
    if relation == "equiv_rho_P":
        keys = [(round(float(r.real), 9) + 0.0,) for r in reps]
    else:
        keys = [tuple(map(tuple, _rounded(r).reshape(-1, 2).tolist())) for r in reps]
    return QuotientPartition(relation,
                             tuple(tuple(c) for c in classes),
                             tuple(keys))
