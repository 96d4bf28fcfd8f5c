"""Validated operator types and the trace pairing they feed.

States are density operators, events are orthogonal projectors, and dynamics
are unitaries; each is a frozen wrapper around a dense complex matrix whose
defining invariants are checked at construction time.  On top of these the
module provides the probability pairing ``born``, a numpy null-space routine
and the commutants computed with it, and the Boolean event algebra generated
by a family of rank-one projectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    NonRealTrace,
    NotOrthonormalFamily,
    SizeCapExceeded,
    ValidationFailure,
)

DEFAULT_TOL = 1e-9

# Dense matrices only; anything past this dimension is out of scope for the
# exhaustive checks this package performs.
MAX_DIM = 2 ** 10


def check_dim(dim: int, *, max_dim: int = MAX_DIM) -> int:
    """Refuse a matrix dimension outside 1..max_dim; call it before
    allocating a dim x dim matrix."""
    if dim < 1:
        raise ValidationFailure("nonempty", 0.0)
    if dim > max_dim:
        raise SizeCapExceeded(f"dimension {dim} exceeds cap {max_dim}")
    return dim


def check_tol(tol: float) -> None:
    """Refuse a tolerance that is negative or NaN."""
    if not tol >= 0:
        raise ValidationFailure("tolerance", tol, "must be >= 0")


def as_square_matrix(data, *, max_dim: int = MAX_DIM) -> np.ndarray:
    """Coerce to a read-only square complex ndarray, or raise."""
    try:
        m = np.array(data, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationFailure("numeric", 0.0, str(exc))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationFailure("square", 0.0, f"shape {m.shape}")
    check_dim(m.shape[0], max_dim=max_dim)
    if not np.all(np.isfinite(m)):
        raise ValidationFailure("finite", float("inf"))
    m.setflags(write=False)
    return m


def trace(matrix) -> complex:
    """Trace of a square matrix as a plain complex number."""
    return complex(np.trace(as_square_matrix(matrix)))


def tensor(a, b) -> np.ndarray:
    """Kronecker product; the first factor occupies the leftmost wires."""
    out = np.kron(as_square_matrix(a), as_square_matrix(b))
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class _Operator:
    """A read-only square complex matrix and the tolerance its defining
    invariants hold at; each operator type checks its own in ``_check``.
    Two operators are equal when type, tolerance and entries all are."""

    matrix: np.ndarray
    tolerance: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_square_matrix(self.matrix))
        check_tol(self.tolerance)
        self._check()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.tolerance == other.tolerance and np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        # -0.0 + 0.0 is 0.0; the byte count of a square matrix fixes its shape
        return hash((type(self), self.tolerance, (self.matrix + 0.0).tobytes()))

    def _check_hermitian(self) -> None:
        gap = float(np.max(np.abs(self.matrix - self.matrix.conj().T)))
        if gap > self.tolerance:
            raise ValidationFailure("hermitian", gap)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class DensityOperator(_Operator):
    """A self-adjoint, positive semidefinite, trace-one matrix."""

    def _check(self) -> None:
        self._check_hermitian()
        tgap = abs(np.trace(self.matrix) - 1.0)
        if tgap > self.tolerance:
            raise ValidationFailure("trace-one", tgap)
        evs = np.linalg.eigvalsh((self.matrix + self.matrix.conj().T) / 2)
        if evs[0] < -self.tolerance:
            raise ValidationFailure("positive", -evs[0])


class Projector(_Operator):
    """A self-adjoint idempotent matrix (an event)."""

    def _check(self) -> None:
        self._check_hermitian()
        igap = float(np.max(np.abs(self.matrix @ self.matrix - self.matrix)))
        if igap > self.tolerance:
            raise ValidationFailure("idempotent", igap)

    @property
    def rank(self) -> int:
        # eigenvalues of a projector cluster at 0 and 1
        return int(round(np.trace(self.matrix).real))


class UnitaryGate(_Operator):
    """A unitary matrix, UU* = U*U = identity."""

    def _check(self) -> None:
        eye = np.eye(self.dim)
        gap = float(np.max(np.abs(self.matrix @ self.matrix.conj().T - eye)))
        gap = max(gap, float(np.max(np.abs(self.matrix.conj().T @ self.matrix - eye))))
        if gap > self.tolerance:
            raise ValidationFailure("unitary", gap)

    def dagger(self) -> "UnitaryGate":
        return UnitaryGate(self.matrix.conj().T, self.tolerance)


_KINDS = {"density": DensityOperator, "projector": Projector, "unitary": UnitaryGate}


def validate(matrix, kind: str, tolerance: float = DEFAULT_TOL):
    """Check a raw matrix against the invariants of ``kind`` and wrap it.

    ``kind`` is one of "density", "projector", "unitary".  Raises
    :class:`ValidationFailure` naming the first violated invariant.
    """
    try:
        cls = _KINDS[kind]
    except KeyError:
        raise InvalidArgument(f"unknown kind {kind!r}; expected one of {sorted(_KINDS)}")
    return cls(matrix, tolerance)


def _rank_one(cls: type, v: np.ndarray):
    """|v><v| as a ``cls``, DensityOperator or Projector, at the default
    tolerance, checked as v alone: finite entries and |<v|v> - 1| within the
    tolerance imply every invariant the dense check tests."""
    if not np.all(np.isfinite(v)):
        raise ValidationFailure("finite", float("inf"))
    gap = abs(np.vdot(v, v).real - 1.0)
    if gap > DEFAULT_TOL:
        raise ValidationFailure("unit-norm", gap)
    matrix = np.outer(v, v.conj())
    matrix.setflags(write=False)
    op = object.__new__(cls)
    op.__dict__.update(matrix=matrix, tolerance=DEFAULT_TOL)
    return op


def _evolve(u: UnitaryGate, rho: np.ndarray) -> np.ndarray:
    """U rho U* for a valid state's matrix rho, not validated again."""
    if u.dim != len(rho):
        raise DimensionMismatch(f"gate dim {u.dim} vs state dim {len(rho)}")
    return u.matrix @ rho @ u.matrix.conj().T


def _pairing(sigma: np.ndarray, p: Projector, tol: float) -> float:
    """:func:`born` for a state's matrix sigma that is valid at ``tol``."""
    if len(sigma) != p.dim:
        raise DimensionMismatch(f"state dim {len(sigma)} vs event dim {p.dim}")
    return _probability(complex(np.trace(sigma @ p.matrix)), max(tol, p.tolerance))


def _probability(t: complex, tol: float) -> float:
    """A trace Tr(sigma P) as a probability: its imaginary part must be
    within ``tol``, and its real part is clamped into [0, 1]."""
    if abs(t.imag) > tol:
        raise NonRealTrace(f"imaginary part {t.imag:.3e} exceeds {tol:.1e}")
    return min(1.0, max(0.0, t.real))


def conjugate(u: UnitaryGate, rho: DensityOperator) -> DensityOperator:
    """Evolve a state: rho -> U rho U*, validated as a state."""
    return DensityOperator(_evolve(u, rho.matrix), max(u.tolerance, rho.tolerance))


def born(sigma: DensityOperator, p: Projector) -> float:
    """Probability Tr(sigma P), clamped into [0, 1].

    The pairing of a valid state with a valid event is real up to rounding;
    a larger imaginary part than the working tolerance raises
    :class:`NonRealTrace`.
    """
    return _pairing(sigma.matrix, p, sigma.tolerance)


# ---------------------------------------------------------------------------
# commutants


def null_space(a, atol: float = 0.0):
    """Orthonormal basis of the null space of ``a``, one vector per column.

    Singular values above both ``10 * max(s) * eps * max(M, N)`` and
    ``atol`` count towards the rank, where M x N is the shape of ``a``; the
    remaining right singular vectors span the null space.  The factor 10
    over the cutoff of ``numpy.linalg.matrix_rank`` is there because the
    inputs are themselves computed: in projector lattice closures the
    singular values that should be zero reach twice that cutoff, which would
    drop a dimension from a meet.

    ``a`` may also be a stack of K matrices, (K, M, N).  They are decomposed
    by one batched SVD, each under its own cutoff, and the result is the
    list of their K bases, each the same array a call on that matrix alone
    returns.
    """
    a = np.asarray(a)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    cutoff = np.maximum(10 * np.max(s, axis=-1, initial=0.0) * np.finfo(float).eps
                        * max(a.shape[-2:]), atol)
    ranks = np.sum(s > cutoff[..., None], axis=-1)
    if a.ndim == 2:
        return vh[ranks:].conj().T
    return [v[r:].conj().T for v, r in zip(vh, ranks.tolist())]


@dataclass(frozen=True)
class OperatorAlgebraBasis:
    """An orthonormal (Hilbert-Schmidt) basis of a subspace of matrices.

    Produced by :func:`commutant`; the span is guaranteed closed under the
    adjoint and to contain the identity when it arises as a commutant.
    """

    dim: int
    basis: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(as_square_matrix(b) for b in self.basis)
        for b in mats:
            if b.shape[0] != self.dim:
                raise DimensionMismatch(
                    f"basis element dim {b.shape[0]} vs declared {self.dim}")
        object.__setattr__(self, "basis", mats)
        if mats:
            stacked = np.stack([b.reshape(-1) for b in mats])
            rank = np.linalg.matrix_rank(stacked)
            if rank != len(mats):
                raise ValidationFailure(
                    "independent", len(mats) - rank, "basis is linearly dependent")

    def __len__(self) -> int:
        return len(self.basis)

    def contains(self, matrix, tol: float = DEFAULT_TOL) -> bool:
        """Least-squares membership test for span(basis)."""
        m = as_square_matrix(matrix)
        if m.shape[0] != self.dim:
            raise DimensionMismatch(f"dim {m.shape[0]} vs {self.dim}")
        if not self.basis:
            return bool(np.max(np.abs(m)) <= tol)
        a = np.stack([b.reshape(-1) for b in self.basis]).T
        coeff, *_ = np.linalg.lstsq(a, m.reshape(-1), rcond=None)
        resid = float(np.max(np.abs(a @ coeff - m.reshape(-1))))
        return resid <= tol


def commutant(matrices: Iterable, dim: int, *, tol: float = DEFAULT_TOL) -> OperatorAlgebraBasis:
    """All X with XY = YX for every Y in ``matrices``, as a basis.

    Solved as one linear system: with row-major vectorization,
    vec(XY - YX) = (I (x) Y^T - Y (x) I) vec(X), so the commutant is the
    null space of the stacked coefficient blocks.  An empty family commutes
    with everything, giving the full matrix algebra.
    """
    check_tol(tol)
    mats = [as_square_matrix(m) for m in matrices]
    for m in mats:
        if m.shape[0] != dim:
            raise DimensionMismatch(f"element dim {m.shape[0]} vs declared {dim}")
    eye = np.eye(dim)
    if not mats:
        units = tuple(
            _unit_matrix(dim, i, j) for i in range(dim) for j in range(dim))
        return OperatorAlgebraBasis(dim, units)
    blocks = [np.kron(eye, y.T) - np.kron(y, eye) for y in mats]
    system = np.vstack(blocks)
    null = null_space(system)
    basis = tuple(null[:, k].reshape(dim, dim) for k in range(null.shape[1]))
    out = OperatorAlgebraBasis(dim, basis)
    if not out.contains(eye, tol):
        raise ValidationFailure("identity-in-span", 1.0,
                                "commutant basis lost the identity")
    return out


def _unit_matrix(dim: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = 1.0
    return m


def double_commutant(matrices: Iterable, dim: int, *, tol: float = DEFAULT_TOL) -> OperatorAlgebraBasis:
    """The algebra generated by ``matrices`` (with identity), via (S')'."""
    first = commutant(matrices, dim, tol=tol)
    return commutant(first.basis, dim, tol=tol)


# ---------------------------------------------------------------------------
# Boolean event algebras


def entry_key(matrix, digits: int) -> tuple:
    """Canonical hashable key: entries rounded to ``digits`` decimals."""
    m = np.asarray(matrix, dtype=complex).reshape(-1)
    # -0.0 and 0.0 must collide
    re = np.round(m.real, digits) + 0.0
    im = np.round(m.imag, digits) + 0.0
    return tuple(zip(re.tolist(), im.tolist()))


def boolean_projections(
    family: Sequence[Projector],
    *,
    tol: float = DEFAULT_TOL,
    max_minimal: int = 16,
) -> list[Projector]:
    """Boolean algebra of events generated by a measurement family.

    ``family`` must be rank-one projectors onto an orthonormal basis (pairwise
    orthogonal, summing to the identity); otherwise
    :class:`NotOrthonormalFamily` is raised.  Such a family is the set of
    minimal projections of the algebra it generates; the returned list holds
    all 2**k of their sums (including 0 and the identity) in a deterministic
    entrywise order.
    """
    check_tol(tol)
    if not family:
        raise NotOrthonormalFamily("empty family")
    dim = family[0].dim
    for p in family:
        if not isinstance(p, Projector):
            raise NotOrthonormalFamily("family members must be projectors")
        if p.dim != dim:
            raise DimensionMismatch(f"member dim {p.dim} vs {dim}")
    total = np.zeros((dim, dim), dtype=complex)
    for i, p in enumerate(family):
        if abs(np.trace(p.matrix).real - 1.0) > tol:
            raise NotOrthonormalFamily(f"member {i} is not rank one")
        for q in family[i + 1:]:
            if np.max(np.abs(p.matrix @ q.matrix)) > tol:
                raise NotOrthonormalFamily("members are not pairwise orthogonal")
        total = total + p.matrix
    if np.max(np.abs(total - np.eye(dim))) > max(tol, dim * tol):
        raise NotOrthonormalFamily("family does not sum to the identity")

    k = len(family)
    if k > max_minimal:
        raise SizeCapExceeded(
            f"{k} minimal projections would give 2**{k} events (cap {max_minimal})")

    events: list[Projector] = []
    for picks in itertools.product((0, 1), repeat=k):
        m = np.zeros((dim, dim), dtype=complex)
        for bit, q in zip(picks, family):
            if bit:
                m = m + q.matrix
        events.append(Projector(m, tol))
    events.sort(key=lambda p: entry_key(p.matrix, 12))
    return events


# ---------------------------------------------------------------------------
# JSON interchange


def _strict(x, kind: type):
    """A field documented as an integer, a list or an object, for ``kind``
    int, list or dict.  An integer is a Python or numpy integer other than a
    bool, returned as a Python int.  Anything else raises ValueError, which
    each JSON reader turns into its own refusal."""
    name, types = {int: ("an integer", (int, np.integer)), list: ("a list", list),
                   dict: ("an object", dict)}[kind]
    if isinstance(x, bool) or not isinstance(x, types):
        raise ValueError(f"expected {name}, got {type(x).__name__}")
    return int(x) if kind is int else x


def matrix_to_json(matrix) -> dict:
    """Serialize to ``{"dim": n, "re": [...], "im": [...]}`` (row-major)."""
    m = as_square_matrix(matrix)
    return {
        "dim": int(m.shape[0]),
        "re": m.real.reshape(-1).tolist(),
        "im": m.imag.reshape(-1).tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`; validates the dimension against
    the cap before allocating, and the type and length of ``re`` and ``im``."""
    try:
        dim = _strict(obj["dim"], int)
        re = obj["re"]
    except (KeyError, TypeError) as exc:
        raise ValidationFailure("matrix-json", 0.0, f"missing field: {exc}")
    except ValueError as exc:
        raise ValidationFailure("matrix-json", 0.0, f"bad dim: {exc}")
    check_dim(dim)
    im = obj["im"] if "im" in obj else [0.0] * (dim * dim)
    if not (isinstance(re, list) and isinstance(im, list)):
        raise ValidationFailure("matrix-json", 0.0, "re and im must be lists")
    if len(re) != dim * dim or len(im) != dim * dim:
        raise ValidationFailure(
            "matrix-json", 0.0,
            f"need {dim * dim} entries, got re={len(re)} im={len(im)}")
    try:
        m = np.array(re, dtype=float).reshape(dim, dim) + 1j * np.array(
            im, dtype=float).reshape(dim, dim)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationFailure("matrix-json", 0.0, f"entries must be numbers: {exc}")
    return as_square_matrix(m)
