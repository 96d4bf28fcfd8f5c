"""Reference computations that the benchmark checks qclogic against.

Nothing here imports qclogic.  Gate words are plain tuples
``(name, wires, param)``; the gate blocks are written from the definitions in
the ``qclogic.gates`` module docstring (wire 0 is the most significant bit,
words run in time order) and applied to state vectors by contracting the
block against its wire axes, so no full register matrix is ever built.
"""

from __future__ import annotations

import math

import numpy as np

# name -> (wire count, takes a phase)
ARITY = {"H": (1, False), "T": (1, False), "X": (1, False), "Z": (1, False),
         "R": (1, True), "CNOT": (2, False), "XX": (2, True),
         "TOFFOLI": (3, False)}


def _permutation_block(k: int, rule) -> np.ndarray:
    """Block of a reversible gate on k wires: basis |b> goes to |rule(b)>."""
    m = np.zeros((2 ** k, 2 ** k), dtype=complex)
    for b in range(2 ** k):
        m[rule(b), b] = 1.0
    return m


def gate_block(name: str, param: float | None = None) -> np.ndarray:
    """The gate's matrix on its own wires, from its textbook definition."""
    if name == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    if name == "T":
        return np.diag([1.0, np.exp(1j * math.pi / 4)])
    if name == "R":
        return np.diag([1.0, np.exp(1j * param)])
    if name == "Z":
        return np.diag([1.0, -1.0]).astype(complex)
    if name == "X":
        return _permutation_block(1, lambda b: b ^ 1)
    if name == "CNOT":   # (control, target): |c t> -> |c, t xor c>
        return _permutation_block(2, lambda b: b ^ (b >> 1))
    if name == "TOFFOLI":  # |a b t> -> |a b, t xor (a and b)>
        return _permutation_block(3, lambda b: b ^ ((b >> 2) & (b >> 1) & 1))
    if name == "XX":     # exp(-i phi X(x)X / 2) = cos(phi/2) I - i sin(phi/2) X(x)X
        xx = _permutation_block(2, lambda b: b ^ 3)
        return math.cos(param / 2) * np.eye(4) - 1j * math.sin(param / 2) * xx
    raise ValueError(f"no oracle for gate {name!r}")


def run_word(word, width: int, vector: np.ndarray) -> np.ndarray:
    """U|psi> for a word of ``(name, wires, param)`` tuples in time order."""
    psi = np.asarray(vector, dtype=complex).reshape([2] * width)
    for name, wires, param in word:
        k = len(wires)
        block = gate_block(name, param).reshape([2] * (2 * k))
        psi = np.tensordot(block, psi, axes=(list(range(k, 2 * k)), list(wires)))
        psi = np.moveaxis(psi, list(range(k)), list(wires))
    return psi.reshape(2 ** width)


def word_matrix(word, width: int) -> np.ndarray:
    """The whole unitary, column by column (small widths only)."""
    eye = np.eye(2 ** width, dtype=complex)
    return np.stack([run_word(word, width, eye[:, j]) for j in range(2 ** width)],
                    axis=1)


def pure_vector(rho: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """The unit vector v with rho = |v><v|; raises if rho is not rank one."""
    rho = np.asarray(rho, dtype=complex)
    j = int(np.argmax(rho.diagonal().real))
    v = rho[:, j] / math.sqrt(rho[j, j].real)
    if np.max(np.abs(rho - np.outer(v, v.conj()))) > tol:
        raise ValueError("matrix is not a rank-one projector")
    return v


def truth_value(word, width: int, psi: np.ndarray, event: np.ndarray) -> float:
    """Tr(U |psi><psi| U* P) = <U psi| P |U psi>."""
    out = run_word(word, width, psi)
    return float(np.real(np.vdot(out, np.asarray(event) @ out)))


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary (QR of a complex Gaussian, phases fixed)."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def group_within(values: np.ndarray, tol: float) -> int:
    """Number of classes when each value joins the first representative
    within ``tol`` of it (values are scalars or flattened arrays)."""
    reps: list[np.ndarray] = []
    for v in values:
        if not any(np.max(np.abs(v - r)) <= tol for r in reps):
            reps.append(v)
    return len(reps)


# ---------------------------------------------------------------------------
# closed forms


def totient(r: int) -> int:
    """Euler's phi by the product over the prime factors of r."""
    out, n, p = r, r, 2
    while p * p <= n:
        if n % p == 0:
            out -= out // p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out -= out // n
    return out


def period_distribution(n: int, r: int) -> np.ndarray:
    """Fourier sampling of an r-periodic function on Z_n: weight 1/r on each
    multiple of n/r, zero elsewhere."""
    dist = np.zeros(n)
    dist[:: n // r] = 1.0 / r
    return dist


def period_success(r: int) -> float:
    """Probability that one draw lands on a multiple of n/r coprime to r."""
    return totient(r) / r


def basis_closure_size(d: int) -> int:
    """Closure of an orthonormal basis of C^d: one element per subset."""
    return 2 ** d


def pair_closure_size() -> int:
    """Two non-commuting rank-one projectors in C^2: 0, 1, P, P', Q, Q'."""
    return 6


def boolean_size(k: int) -> int:
    """Boolean lattice on 2^k atoms."""
    return 2 ** (2 ** k)


def dj_expected(f0: str, f1: str) -> tuple[str, dict[str, float]]:
    """Verdict and first-wire distribution of the one-query constancy test."""
    if f0 == f1:
        return "constant", {"0": 1.0, "1": 0.0}
    return "balanced", {"0": 0.0, "1": 1.0}


def parse_word_text(text: str) -> tuple[int, list]:
    """Read the explicit form ``width=W; NAME(phase)[w,...]; ...``."""
    parts = [p.strip() for p in text.split(";") if p.strip()]
    width = int(parts[0].split("=")[1])
    word = []
    for seg in parts[1:]:
        head, wires = seg[:-1].split("[")
        param = None
        if "(" in head:
            head, arg = head[:-1].split("(")
            param = float(arg)
        word.append((head, tuple(int(w) for w in wires.split(",")), param))
    return width, word
