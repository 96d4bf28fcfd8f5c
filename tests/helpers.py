"""Shared samplers and small independent oracles for the test suite.

The oracles here deliberately avoid the package's own code paths: matrix
products are spelled out with plain numpy (or plain Python for the smallest
cases) so expected values come from a second route.  The exception is
``quotient_oracle``, which composes each word with the package's kernel: it
is the per-word route that the prefix-shared ``quotient`` must reproduce.
"""

from __future__ import annotations

import numpy as np

from qclogic import logic
from qclogic.gates import compose_word
from qclogic.logic import EquivalenceReport, QuotientPartition
from qclogic.omlattice import LawReport
from qclogic.qcore import DensityOperator, Projector, entry_key


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_density(gen: np.random.Generator, dim: int) -> np.ndarray:
    a = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_unitary(gen: np.random.Generator, dim: int) -> np.ndarray:
    a = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_projector(gen: np.random.Generator, dim: int,
                     rank: int | None = None) -> np.ndarray:
    if rank is None:
        rank = int(gen.integers(0, dim + 1))
    u = random_unitary(gen, dim)
    cols = u[:, :rank]
    return cols @ cols.conj().T


def random_pure(gen: np.random.Generator, dim: int) -> np.ndarray:
    v = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def basis_state(dim: int, k: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    m[k, k] = 1.0
    return m


KET_PLUS = np.full((2, 2), 0.5, dtype=complex)
KET_MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

# I/4 + i (0.9e-9 / 4) J with J the all-ones matrix: a valid state at the
# default tolerance (Hermitian gap 4.5e-10), which H[0]; H[1] evolves into
# I/4 + 0.9e-9 i |00><00|, whose entrywise Hermitian gap is 1.8e-9
SKEWED_UNIFORM = np.eye(4) / 4 + 1j * (0.9e-9 / 4) * np.ones((4, 4))


def truth_value_oracle(u: np.ndarray, rho: np.ndarray, p: np.ndarray) -> float:
    """Tr(U rho U* P) by direct numpy, no package code."""
    return float(np.trace(u @ rho @ u.conj().T @ p).real)


# The six context deciders, each written out on its own with its own
# evolution and comparison; logic decides all six through one comparison of
# invariants and must agree with these bit for bit.
def _top_eigenvector(herm: np.ndarray, *, most_negative: bool = False) -> np.ndarray:
    """Eigenvector of largest |eigenvalue| (ties toward the positive end),
    or of the most negative eigenvalue."""
    evals, evecs = np.linalg.eigh((herm + herm.conj().T) / 2)
    if most_negative:
        idx = 0
    else:
        idx = len(evals) - 1 if abs(evals[-1]) >= abs(evals[0]) else 0
    v = evecs[:, idx]
    return v / np.linalg.norm(v)


def _rank_one(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def decider_oracle(relation: str, u, v, *context, tol: float) -> EquivalenceReport:
    """The report of ``logic.<relation>(u, v, *context, tol)``, for context
    dimensions that agree and a valid tolerance."""
    evolve = lambda g, rho: g.matrix @ rho.matrix @ g.matrix.conj().T
    pull_back = lambda g, p: g.matrix.conj().T @ p.matrix @ g.matrix
    truth = lambda g, rho, p: min(1.0, max(0.0, complex(
        np.trace(evolve(g, rho) @ p.matrix)).real))
    if relation == "equiv_rho_P":
        rho, p = context
        lhs, rhs = truth(u, rho, p), truth(v, rho, p)
        return EquivalenceReport(relation, abs(lhs - rhs) <= tol, tol, lhs=lhs, rhs=rhs)
    if relation == "leq_rho_P":
        rho, p = context
        lhs, rhs = truth(u, rho, p), truth(v, rho, p)
        return EquivalenceReport(relation, lhs <= rhs + tol, tol, lhs=lhs, rhs=rhs)
    if relation == "equiv_rho":
        (rho,) = context
        a, b = evolve(u, rho), evolve(v, rho)
        if float(np.max(np.abs(a - b))) <= tol:
            return EquivalenceReport(relation, True, tol)
        witness = Projector(_rank_one(_top_eigenvector(a - b)))
        return EquivalenceReport(relation, False, tol, witness_event=witness)
    if relation == "equiv_P":
        (p,) = context
        a, b = pull_back(u, p), pull_back(v, p)
        if float(np.max(np.abs(a - b))) <= tol:
            return EquivalenceReport(relation, True, tol)
        witness = DensityOperator(_rank_one(_top_eigenvector(a - b)))
        return EquivalenceReport(relation, False, tol, witness_state=witness)
    if relation == "leq_rho":
        (rho,) = context
        diff = evolve(v, rho) - evolve(u, rho)
        if float(np.linalg.eigvalsh((diff + diff.conj().T) / 2)[0]) >= -tol:
            return EquivalenceReport(relation, True, tol)
        witness = Projector(_rank_one(_top_eigenvector(diff, most_negative=True)))
        return EquivalenceReport(relation, False, tol, witness_event=witness)
    if relation == "leq_P":
        (p,) = context
        diff = pull_back(v, p) - pull_back(u, p)
        if float(np.linalg.eigvalsh((diff + diff.conj().T) / 2)[0]) >= -tol:
            return EquivalenceReport(relation, True, tol)
        witness = DensityOperator(_rank_one(_top_eigenvector(diff, most_negative=True)))
        return EquivalenceReport(relation, False, tol, witness_state=witness)
    raise ValueError(f"no context decider {relation!r}")


def quotient_oracle(words, relation: str, rho, p=None, tol: float = 1e-9):
    """``logic.quotient`` word by word, for valid arguments: each word
    composed on its own, its invariant taken by ``logic._invariant``, keyed
    by ``entry_key(..., 9)``, and compared against every representative; the
    route that evolving words from their prefixes replaced."""
    classes, keys, by_key = [], [], {}
    event = p if relation == "equiv_rho_P" else None
    reps = np.empty((0,) + (rho.matrix.shape if event is None else ()), dtype=complex)
    for w in words:
        data = logic._invariant(compose_word(w), rho, event)
        key = entry_key(data, 9) if event is None else (round(data, 9) + 0.0,)
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
    return QuotientPartition(relation, tuple(tuple(c) for c in classes), tuple(keys))


def dense_embedding(spec, width: int) -> np.ndarray:
    """A gate's 2**width x 2**width matrix: its block (the package's own)
    tensored with the identity on the other wires, then wire axes permuted
    into place; the route the gate kernel replaced."""
    block = spec.block()
    k = len(spec.wires)
    full = np.kron(block, np.eye(2 ** (width - k), dtype=complex))
    order = list(spec.wires) + [w for w in range(width) if w not in spec.wires]
    if order != list(range(width)):
        tens = full.reshape([2] * (2 * width))
        src = list(range(2 * width))
        dst = [order[j] for j in range(width)] + [width + order[j] for j in range(width)]
        full = np.moveaxis(tens, src, dst).reshape(2 ** width, 2 ** width)
    return full


def mat2_mult(a, b):
    """2x2 complex product on plain nested lists, for package-free checks."""
    return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]


def mat2_trace(a) -> complex:
    return a[0][0] + a[1][1]


# reversible classical gates on basis indices; wire 0 is the high bit
def bit_of(index: int, wire: int, width: int) -> int:
    return (index >> (width - 1 - wire)) & 1


def flip_bit(index: int, wire: int, width: int) -> int:
    return index ^ (1 << (width - 1 - wire))


def classical_step(name: str, wires: tuple[int, ...], index: int, width: int) -> int:
    if name == "X":
        return flip_bit(index, wires[0], width)
    if name == "CNOT":
        return (flip_bit(index, wires[1], width)
                if bit_of(index, wires[0], width) else index)
    if name == "TOFFOLI":
        c1, c2, t = wires
        return (flip_bit(index, t, width)
                if bit_of(index, c1, width) and bit_of(index, c2, width) else index)
    raise ValueError(name)


# Projector-lattice oracles: the join and the order decided numerically, on
# their own, where projection_oml reads both off its meet table.
def proj_meet(p: np.ndarray, q: np.ndarray, tol: float) -> np.ndarray:
    """Projector onto the directions that both p and q move by at most tol."""
    eye = np.eye(p.shape[0])
    _, s, vh = np.linalg.svd(np.vstack([eye - p, eye - q]))
    basis = vh[int(np.sum(s > tol)):].conj().T
    return basis @ basis.conj().T


def proj_join(p: np.ndarray, q: np.ndarray, tol: float) -> np.ndarray:
    """Projector onto range(p) + range(q): the complement of the meet of the
    complements."""
    eye = np.eye(p.shape[0])
    return eye - proj_meet(eye - p, eye - q, tol)


def proj_leq(mats, tol: float) -> np.ndarray:
    """[a, b]: is max |m_b m_a - m_a| <= tol, that is, range(m_a) in range(m_b)?"""
    return np.array([[np.abs(b @ a - a).max() <= tol for b in mats] for a in mats])


# The full lattice law battery, every law computed on its own tables: the
# seventeen laws (sixteen required, then distributivity) in report order,
# each with its first witness.  The package computes only the ten required
# laws that are not theorems of earlier ones, and must agree with this.
def _first_pair(mask: np.ndarray) -> tuple[int, ...] | None:
    if not mask.any():
        return None
    a, b = np.unravel_index(int(np.argmax(mask)), mask.shape)
    return (int(a), int(b))


def _first_triple(n: int, slab_for) -> tuple[int, ...] | None:
    for a in range(n):
        slab = slab_for(a)
        if slab.any():
            b, c = np.unravel_index(int(np.argmax(slab)), slab.shape)
            return (a, int(b), int(c))
    return None


def law_battery(labels, leq, meet, join, ortho, zero, one) -> list[LawReport]:
    n = len(labels)
    idx = np.arange(n)
    reports: list[LawReport] = []

    def report(law: str, witness: tuple[int, ...] | None):
        reports.append(LawReport(law, witness is None, None if witness is None
                                 else tuple(labels[i] for i in witness)))

    refl = ~leq[idx, idx]
    report("reflexive", (int(np.argmax(refl)),) if refl.any() else None)
    report("antisymmetric", _first_pair(leq & leq.T & ~np.eye(n, dtype=bool)))
    closure = (leq.astype(np.int64) @ leq.astype(np.int64) > 0) & ~leq
    if closure.any():
        a, c = np.unravel_index(int(np.argmax(closure)), closure.shape)
        b = int(np.argmax(leq[a, :] & leq[:, c]))
        report("transitive", (int(a), b, int(c)))
    else:
        report("transitive", None)
    bounds_bad = ~leq[zero, :] | ~leq[:, one]
    report("bounded", (int(np.argmax(bounds_bad)),) if bounds_bad.any() else None)

    leq_t = leq.T

    def meet_glb_slab(a: int) -> np.ndarray:
        m = meet[a]
        bad_lower = ~(leq[m, a] & leq[m, idx])
        bad_greatest = leq[:, a] & leq_t & ~leq_t[m]
        return bad_lower[:, None] | bad_greatest

    def join_lub_slab(a: int) -> np.ndarray:
        j = join[a]
        bad_upper = ~(leq[a, j] & leq[idx, j])
        bad_least = leq[a, :] & leq & ~leq[j, :]
        return bad_upper[:, None] | bad_least

    report("meet-is-glb", _first_triple(n, meet_glb_slab))
    report("join-is-lub", _first_triple(n, join_lub_slab))
    report("meet-commutative", _first_pair(meet != meet.T))
    report("join-commutative", _first_pair(join != join.T))

    def assoc_slab(table):
        return lambda a: table[table[a], :] != table[a][table]

    report("meet-associative", _first_triple(n, assoc_slab(meet)))
    report("join-associative", _first_triple(n, assoc_slab(join)))
    absorb1 = meet[idx[:, None], join] != idx[:, None]
    absorb2 = join[idx[:, None], meet] != idx[:, None]
    report("absorption", _first_pair(absorb1 | absorb2))
    consistency = ((meet == idx[:, None]) != leq) | ((join == idx[None, :]) != leq)
    report("order-consistency", _first_pair(consistency))

    invol = ortho[ortho] != idx
    report("ortho-involution", (int(np.argmax(invol)),) if invol.any() else None)
    comp_bad = (meet[idx, ortho] != zero) | (join[idx, ortho] != one)
    report("ortho-complement", (int(np.argmax(comp_bad)),) if comp_bad.any() else None)
    reversed_leq = leq[np.ix_(ortho, ortho)]
    report("ortho-order-reversing", _first_pair(leq & ~reversed_leq.T))
    om_rhs = join[idx[:, None], meet[ortho]]
    report("orthomodular", _first_pair(leq & (om_rhs != idx[None, :])))

    def distributive_slab(a: int) -> np.ndarray:
        ma = meet[a]
        return ma[join] != join[ma[:, None], ma[None, :]]

    report("distributive", _first_triple(n, distributive_slab))
    return reports
