"""Shared samplers and small independent oracles for the test suite.

The oracles here deliberately avoid the package's own code paths: matrix
products are spelled out with plain numpy (or plain Python for the smallest
cases) so expected values come from a second route.
"""

from __future__ import annotations

import numpy as np

from qclogic.omlattice import LawReport


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
