"""Shared samplers and small independent oracles for the test suite.

The oracles here deliberately avoid the package's own code paths: matrix
products are spelled out with plain numpy (or plain Python for the smallest
cases) so expected values come from a second route.  The exceptions are
``quotient_oracle`` and ``compose_word_loop``, which apply the package's
kernel one word and one letter at a time (``quotient_oracle`` reads truth
values through ``logic.truth_value``): they are the per-word routes that
the prefix engine behind ``quotient`` and ``compose_word`` must reproduce.
The circuit walks evaluate each gate through the public ``eval_gate``.
So are the scheme-layer references at the end, which go through the
validated objects (``pushforward``, ``compose_automorphisms``, ``born`` on a
``Projector``) and loop over elements, where the package composes one index
array and reads masks.
"""

from __future__ import annotations

import itertools

import numpy as np

from qclogic import logic
from qclogic.classical import And, Not, Or, Var, eval_gate
from qclogic.errors import ArityMismatch, ValidationFailure
from qclogic.gates import _apply, compose_word, fourier_matrix
from qclogic.logic import QuotientPartition
from qclogic.omlattice import (
    GeneralizedReport,
    LatticeAutomorphism,
    LatticeState,
    LawReport,
    compose_automorphisms,
    pushforward,
)
from qclogic.qcore import DensityOperator, Projector, born, entry_key


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


def hull_distance(points) -> float:
    """Distance from 0 to the convex hull of the complex ``points``, by brute
    force over the distinct points: the nearest point of every segment, and
    0 when some triangle holds 0 (on its edge included)."""
    pts = list({complex(round(z.real, 12), round(z.imag, 12)): z
                for z in np.asarray(points, dtype=complex)}.values())
    best = min(abs(z) for z in pts)
    for a, b in itertools.combinations(pts, 2):
        t = min(1.0, max(0.0, (-a * (b - a).conjugate()).real / abs(b - a) ** 2))
        best = min(best, abs(a + t * (b - a)))
    cross = lambda p, q: (p.conjugate() * q).imag
    for a, b, c in itertools.combinations(pts, 3):
        sides = (cross(a, b), cross(b, c), cross(c, a))
        if min(sides) >= 0 or max(sides) <= 0:
            return 0.0
    return best


# The six context deciders' rule written out densely: U rho U* and U* P U
# formed in full, every eigenvalue of their difference taken, and both
# directions of an equivalence's gap; logic decides from the context's
# factor, on the span of Y + Z and Y - Z, and one direction only.
def decider_oracle(relation: str, u, v, *context) -> tuple[float, float]:
    """The gap a context relation compares with ``tol``: the largest amount
    by which U's truth value exceeds V's over the contexts in its scope, or
    for an equivalence the largest amount by which either exceeds the
    other; and the gap of U over V alone, which a witness must reach."""
    if relation in ("equiv_rho_P", "leq_rho_P"):
        rho, p = context
        truth = lambda g: min(1.0, max(0.0, truth_value_oracle(g.matrix, rho.matrix, p.matrix)))
        over = truth(u) - truth(v)
        return (abs(over) if relation.startswith("equiv") else over), over
    (op,) = context
    if isinstance(op, DensityOperator):
        h = (op.matrix + op.matrix.conj().T) / 2
        diff = u.matrix @ h @ u.matrix.conj().T - v.matrix @ h @ v.matrix.conj().T
        lam = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
        over, under = lam[lam > 0].sum(), -lam[lam < 0].sum()
    else:
        diff = (u.matrix.conj().T @ op.matrix @ u.matrix
                - v.matrix.conj().T @ op.matrix @ v.matrix)
        lam = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
        over, under = max(lam[-1], 0.0), max(-lam[0], 0.0)
    return (max(over, under) if relation.startswith("equiv") else over), over


def quotient_oracle(words, relation: str, rho, p=None, tol: float = 1e-9):
    """``logic.quotient`` word by word, for valid arguments: each word
    composed on its own; its invariant its ``logic.truth_value``, or
    U h U* formed densely, h the Hermitian part of rho; keyed by
    ``entry_key(..., 9)``; and compared with every representative, evolved
    states by their trace distance with every eigenvalue taken (those more
    than ``tol`` apart in some entry are that far apart in trace distance
    too).  It is the route that evolving words from their prefixes, and
    bounding the trace distance by the entries, replaced."""
    classes, keys, by_key = [], [], {}
    event = p if relation == "equiv_rho_P" else None
    h = (rho.matrix + rho.matrix.conj().T) / 2
    reps = np.empty((0,) + (rho.matrix.shape if event is None else ()), dtype=complex)
    for w in words:
        u = compose_word(w)
        if event is None:
            data = u.matrix @ h @ u.matrix.conj().T
            key = entry_key(data, 9)
            diff = reps - data
            near = np.abs(diff).max(axis=(1, 2), initial=0.0) <= tol
            near[near] = np.abs(np.linalg.eigvalsh(diff[near])).sum(axis=1) <= 2 * tol
        else:
            data = logic.truth_value(u, rho, event)
            key = (round(data, 9) + 0.0,)
            near = np.abs(reps - data) <= tol
        idx = by_key.get(key)
        if idx is None or not near[idx]:
            hits = np.flatnonzero(near)
            idx = int(hits[0]) if hits.size else None
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


def compose_word_loop(word) -> np.ndarray:
    """A word's product with each letter applied by the kernel to a running
    identity, last letter leftmost; the loop that the prefix engine
    replaced in ``compose_word``."""
    u = np.eye(2 ** word.width, dtype=complex)
    for spec in word.word:
        u = _apply(spec, u, word.width)
    return u


def splitmix64_weights(n: int) -> np.ndarray:
    """``omlattice._fingerprint_weights`` one Python integer at a time: the
    top bits of splitmix64 of 1..n with the lowest bit set, masked mod
    2**64 after each product."""
    mask = (1 << 64) - 1
    shift = 11 + n.bit_length()
    weights = []
    for i in range(1, n + 1):
        z = i * 0x9E3779B97F4A7C15 & mask
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ z >> 27) * 0x94D049BB133111EB & mask
        weights.append((z ^ z >> 31) >> shift | 1)
    return np.array(weights, dtype=np.float64)


def dense_period_branches(n: int, r: int) -> np.ndarray:
    """Row x0 is |F v|**2 for F the package's N x N Fourier matrix and v the
    uniform superposition of x0, x0 + r, ...; the route the FFT replaced."""
    fmat = fourier_matrix(n)
    rows = np.empty((r, n))
    for x0 in range(r):
        v = np.zeros(n, dtype=complex)
        v[x0::r] = 1.0 / np.sqrt(n // r)
        rows[x0] = np.abs(fmat @ v) ** 2
    return rows


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


# Boolean circuits walked one way each, as four separate walks: the
# references for the one fold in ``classical``.  Each evaluation goes
# through the public ``eval_gate``.
def circuit_check_walk(arity: int, root) -> None:
    """The constructor's check: a node, then its right subtree, then its left."""
    if arity < 0:
        raise ArityMismatch(f"arity must be >= 0, got {arity}")
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            if not 0 <= node.index < arity:
                raise ArityMismatch(f"input x{node.index} out of range for arity {arity}")
        elif isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (Or, And)):
            stack.extend((node.left, node.right))
        else:
            raise ValidationFailure("circuit-node", 0.0, f"bad node {node!r}")


def circuit_arity_walk(root) -> int:
    """The arity ``parse_circuit`` infers: one more than the largest input."""
    arity, stack = 0, [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            arity = max(arity, node.index + 1)
        elif isinstance(node, Not):
            stack.append(node.child)
        else:
            stack.extend((node.left, node.right))
    return arity


def circuit_value_walk(root, bits: str) -> int:
    """The value on a bitstring, recursively, each gate by ``eval_gate``."""
    if isinstance(root, Var):
        return int(bits[root.index])
    if isinstance(root, Not):
        return eval_gate("not", (circuit_value_walk(root.child, bits),))
    op = "or" if isinstance(root, Or) else "and"
    return eval_gate(op, (circuit_value_walk(root.left, bits),
                          circuit_value_walk(root.right, bits)))


def circuit_text_walk(root) -> str:
    """The s-expression text, recursively."""
    if isinstance(root, Var):
        return f"x{root.index}"
    if isinstance(root, Not):
        return f"(not {circuit_text_walk(root.child)})"
    op = "or" if isinstance(root, Or) else "and"
    return f"({op} {circuit_text_walk(root.left)} {circuit_text_walk(root.right)})"


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


# ---------------------------------------------------------------------------
# the scheme layer, one validated object at a time


def run_protocol_by_pushforward(scheme, word, readout=None) -> dict[str, float]:
    """``run_protocol`` with the initial state pushed forward, and validated
    again, through one generator at a time."""
    state = scheme.states[scheme.initial]
    for gi in word:
        state = pushforward(scheme.generators[gi], state)
    lat = scheme.lattice
    indices = range(len(lat)) if readout is None else [
        lat.index_of(r) if isinstance(r, str) else int(r) for r in readout]
    return {lat.labels[i]: float(state.values[i]) for i in indices}


def generalized_by_pushforward(relation: str, u, v, nu, element=None,
                               tol: float = 1e-9) -> GeneralizedReport:
    """``generalized_equiv`` or ``generalized_leq``, each word composed by
    ``compose_automorphisms`` and each state pushed forward along it."""
    fu = u if isinstance(u, LatticeAutomorphism) else compose_automorphisms(list(u))
    fv = v if isinstance(v, LatticeAutomorphism) else compose_automorphisms(list(v))
    lat = fu.lattice
    states = [nu] if isinstance(nu, LatticeState) else list(nu)
    keep = range(len(lat)) if element is None else [
        lat.index_of(element) if isinstance(element, str) else int(element)]
    for si, state in enumerate(states):
        a = pushforward(fu, state).values
        b = pushforward(fv, state).values
        for x in keep:
            if (abs(a[x] - b[x]) > tol if relation == "generalized_equiv"
                    else a[x] > b[x] + tol):
                return GeneralizedReport(
                    relation, False, tol, lhs=float(a[x]), rhs=float(b[x]),
                    witness_element=lat.labels[x],
                    witness_state=si if len(states) > 1 else None)
    if element is not None and len(states) == 1:
        return GeneralizedReport(relation, True, tol, lhs=float(a[keep[0]]),
                                 rhs=float(b[keep[0]]))
    return GeneralizedReport(relation, True, tol)


def is_superposition_loop(nu, family, threshold=None) -> tuple[bool, str | None]:
    """``is_superposition`` one element at a time."""
    nu_cut = threshold if threshold is not None else nu.zero_atol
    for x in range(len(nu.lattice)):
        all_zero = all(
            mu.values[x] <= (threshold if threshold is not None else mu.zero_atol)
            for mu in family)
        if all_zero and nu.values[x] > nu_cut:
            return False, nu.lattice.labels[x]
    return True, None


def permutation_mapping_loop(n: int, atom_perm) -> np.ndarray:
    """The element map of ``permutation_automorphism``, one mask and one bit
    at a time: each subset to its preimage under the atom permutation."""
    mapping = np.zeros(n, dtype=np.intp)
    for mask in range(n):
        pre = 0
        for bit in range(len(atom_perm)):
            if (mask >> atom_perm[bit]) & 1:
                pre |= 1 << bit
        mapping[mask] = pre
    return mapping


def gleason_values_by_born(rho, lattice) -> np.ndarray:
    """The values of ``gleason_state``, each matrix wrapped in a validated
    ``Projector`` again and paired by ``born``."""
    return np.array([born(rho, Projector(m)) for m in lattice.matrices])
