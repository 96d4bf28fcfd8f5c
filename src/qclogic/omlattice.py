"""Finite orthomodular lattices as an abstract computational scheme.

A lattice is stored extensionally: labels, the full order relation, meet and
join tables, and the orthocomplement map.  Construction checks the required
laws (order axioms, glb/lub consistency, orthocomplement laws, the
orthomodular law) in order and raises at the first that fails; glb and lub
are checked on the sizes of common down-sets and up-sets, exact counts read
off one float32 product of the order each.  Each law is decided by one
boolean mask, and its witness is read off that mask's first True entry,
with no second scan.  Lattice commutativity,
associativity, absorption and order-consistency are theorems of the first
six, so they are not computed.  Distributivity is only reported, since
quantum event lattices fail it, and is decided by pairwise compatibility,
which is equivalent in an orthomodular lattice.  On top of the lattice
sit finitely additive states, automorphisms (the abstract gates),
pushforwards, generalized equivalence of automorphism words, a superposition
test, and a protocol runner.  Two concrete constructions are provided: the
Boolean lattice of subsets and the lattice generated by closing a family of
projectors under meet and complement, whose joins (by De Morgan) and order
(a <= b exactly when a ^ b = a) are read off the meet table.  Each round of
that closure decomposes its new pairs with batched SVDs, one call per chunk
of pairs.  A lattice given by its order alone has its meet and join tables
read off one matrix product of the order each: the product's entries are
exact integer fingerprints of the common lower (upper) sets, which name each
pair's bound, and an exact check on the same product confirms it; a row
the products miss is derived from the definition, again by counts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

import numpy as np

from .errors import (
    ClosureCapExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidArgument,
    LatticeMismatch,
    NotClosedUnderConjugation,
    SizeCapExceeded,
    ToleranceCollision,
    ValidationFailure,
)
from .qcore import (
    DEFAULT_TOL,
    DensityOperator,
    Projector,
    UnitaryGate,
    _probability,
    _strict,
    check_dim,
    check_tol,
    entry_key,
    null_space,
)

DEFAULT_MAX_ELEMENTS = 512

# hard ceiling for direct construction: every table is n x n, and the
# transitivity check is an n^3 matrix product
MAX_LATTICE = 1024


@dataclass(frozen=True)
class LawReport:
    """One lattice law: its name, whether it holds, and a witness tuple of
    element labels when it does not."""

    law: str
    holds: bool
    witness: tuple[str, ...] | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"law": self.law, "holds": self.holds}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


def _report(labels, law: str, witness: tuple[int, ...] | None) -> LawReport:
    return LawReport(law, witness is None,
                     None if witness is None else tuple(labels[i] for i in witness))


def _first(mask: np.ndarray) -> tuple[int, ...] | None:
    """The indices of the mask's first True entry in row-major order, or
    None when it has none."""
    k = int(np.argmax(mask))
    if not mask.flat[k]:
        return None
    return tuple(int(i) for i in np.unravel_index(k, mask.shape))


def _check_required_laws(labels, leq, meet, join, ortho, zero, one) -> None:
    """Raise :class:`ValidationFailure` at the first required law that fails,
    in ``REQUIRED_LAWS`` order, naming its first witness.

    Meet and join commutativity and associativity, absorption and
    order-consistency are not computed: they are theorems of the order
    axioms, meet-is-glb and join-is-lub (Davey & Priestley, *Introduction to
    Lattices and Order*, 2002, ch. 2), which are all checked before them.
    """
    n = len(labels)
    idx = np.arange(n)

    def check(law: str, witness: tuple[int, ...] | None) -> None:
        if witness is not None:
            raise ValidationFailure(
                law, 1.0, f"witness {tuple(labels[i] for i in witness)}")

    # order axioms
    check("reflexive", _first(~leq[idx, idx]))
    check("antisymmetric", _first(leq & leq.T & ~np.eye(n, dtype=bool)))
    lf = leq.astype(np.float32)
    # exact: every entry of the product is a count <= n <= MAX_LATTICE < 2**24
    first = _first((lf @ lf > 0) & ~leq)
    if first is not None:
        a, c = first
        check("transitive", (a, int(np.argmax(leq[a, :] & leq[:, c])), c))
    check("bounded", _first(~leq[zero, :] | ~leq[:, one]))

    # with rel the order (rel[x, a]: x <= a) t = meet[a, b] is the greatest
    # common lower bound when it is a common bound, rel[t, a] and rel[t, b],
    # and its down-set is as large as the common down-set of a and b: by
    # transitivity the one lies in the other, so equal sizes make them equal
    # (Davey & Priestley, *Introduction to Lattices and Order*, 2002, ch.
    # 2).  With the transposed order the same decides join-is-lub.  Every
    # size is an entry of the exact count product rel^T rel.  The first bad
    # pair names the witness (a, b, c): c is 0 when t is not a common bound,
    # and otherwise the first common bound outside t's set.
    leq_t = np.ascontiguousarray(leq.T)                  # [b, c] = leq[c, b]
    for law, rel, rel_t, rf, table in (("meet-is-glb", leq, leq_t, lf, meet),
                                       ("join-is-lub", leq_t, leq, lf.T, join)):
        sizes = rf.T @ rf                                # [a, b]: |common set|
        bad = ~(np.take_along_axis(rel_t, table, axis=1)     # rel[table[a, b], a]
                & np.take_along_axis(rel, table, axis=0))    # rel[table[a, b], b]
        bad |= sizes.diagonal().take(table) != sizes
        del sizes
        first = _first(bad)
        del bad
        if first is not None:
            a, b = first
            t = table[a, b]
            c = int(np.argmax(rel[:, a] & rel[:, b] & ~rel[:, t])) \
                if rel[t, a] and rel[t, b] else 0
            check(law, (a, b, c))
    del lf

    check("ortho-involution", _first(ortho[ortho] != idx))
    check("ortho-complement", _first((meet[idx, ortho] != zero) | (join[idx, ortho] != one)))
    reversed_leq = leq[np.ix_(ortho, ortho)]             # [a, b] = leq[ortho[a], ortho[b]]
    check("ortho-order-reversing", _first(leq & ~reversed_leq.T))

    inner = meet[ortho]                                   # [a, b] = meet[ortho[a], b]
    om_rhs = join[idx[:, None], inner]                    # [a, b] = join[a, inner[a, b]]
    check("orthomodular", _first(leq & (om_rhs != idx[None, :])))


def _distributive_report(labels, meet, join, ortho) -> LawReport:
    """Distributivity of an orthomodular lattice.

    Such a lattice is distributive exactly when every pair is compatible,
    (a ^ b) v (a ^ b') = a, and a triple is distributive as soon as one of
    its elements is compatible with the other two (Foulis-Holland; Kalmbach,
    *Orthomodular Lattices*, 1983).  So one n x n gather decides the law,
    and the first counterexample starts at the first a that is not
    compatible with everything: only that a's (b, c) slab is built.
    """
    n = len(labels)
    first = _first((join[meet, meet[:, ortho]] != np.arange(n)[:, None]).any(axis=1))
    if first is None:
        return LawReport("distributive", True)
    a, = first
    ma = meet[a]
    # a ^ (b v c) against (a ^ b) v (a ^ c)
    return _report(labels, "distributive", first + _first(ma[join] != join[np.ix_(ma, ma)]))


REQUIRED_LAWS = (
    "reflexive", "antisymmetric", "transitive", "bounded",
    "meet-is-glb", "join-is-lub", "meet-commutative", "join-commutative",
    "meet-associative", "join-associative", "absorption", "order-consistency",
    "ortho-involution", "ortho-complement", "ortho-order-reversing",
    "orthomodular",
)

INFORMATIONAL_LAWS = ("distributive",)


@dataclass(frozen=True, eq=False)
class FiniteOML:
    """A finite orthomodular lattice given by tables.

    ``leq`` is the full order relation as a boolean matrix; ``meet``,
    ``join`` are n x n index tables; ``ortho`` maps each element index to
    its orthocomplement.  Construction raises on the first required law
    that fails, so a built lattice satisfies them all.  Identity of the
    object is used to tie states and automorphisms to their lattice, so
    build one lattice and share it.
    """

    labels: tuple[str, ...]
    leq: np.ndarray
    meet: np.ndarray
    join: np.ndarray
    ortho: np.ndarray
    zero: int
    one: int

    def __post_init__(self):
        labels = tuple(str(s) for s in self.labels)
        n = len(labels)
        if n < 1:
            raise ValidationFailure("nonempty", 0.0, "lattice needs elements")
        if n > MAX_LATTICE:
            raise SizeCapExceeded(f"{n} elements exceeds hard cap {MAX_LATTICE}")
        if len(set(labels)) != n:
            raise ValidationFailure("labels-unique", 0.0)
        object.__setattr__(self, "labels", labels)
        leq = np.array(self.leq, dtype=bool)
        meet = np.array(self.meet, dtype=np.intp)
        join = np.array(self.join, dtype=np.intp)
        ortho = np.array(self.ortho, dtype=np.intp)
        for name, arr, shape in (("leq", leq, (n, n)), ("meet", meet, (n, n)),
                                 ("join", join, (n, n)), ("ortho", ortho, (n,))):
            if arr.shape != shape:
                raise ValidationFailure("table-shape", 0.0,
                                        f"{name} has shape {arr.shape}, want {shape}")
        for name, arr in (("meet", meet), ("join", join), ("ortho", ortho)):
            if arr.size and (arr.min() < 0 or arr.max() >= n):
                raise ValidationFailure("table-range", 0.0, f"{name} indexes out of range")
        if not (0 <= self.zero < n and 0 <= self.one < n):
            raise IndexOutOfRange(f"zero/one {self.zero}/{self.one} out of range")
        for arr in (leq, meet, join, ortho):
            arr.setflags(write=False)
        object.__setattr__(self, "leq", leq)
        object.__setattr__(self, "meet", meet)
        object.__setattr__(self, "join", join)
        object.__setattr__(self, "ortho", ortho)
        _check_required_laws(labels, leq, meet, join, ortho, self.zero, self.one)

    def __len__(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise IndexOutOfRange(f"no element labeled {label!r}")


def verify_laws(lattice: FiniteOML) -> list[LawReport]:
    """The law reports of a built lattice: every required law holds, since
    the constructor refused any table that breaks one and the tables are
    read-only, followed by distributivity."""
    return [LawReport(law, True) for law in REQUIRED_LAWS] + [
        _distributive_report(lattice.labels, lattice.meet, lattice.join, lattice.ortho)]


def atom_indices(lattice: FiniteOML) -> list[int]:
    """Elements covering zero (exactly one strict lower bound)."""
    strict_below = lattice.leq.sum(axis=0) - 1
    return [int(i) for i in range(len(lattice))
            if i != lattice.zero and strict_below[i] == 1]


# ---------------------------------------------------------------------------
# constructions


def boolean_oml(n_bits: int, *, max_elements: int = DEFAULT_MAX_ELEMENTS) -> FiniteOML:
    """The Boolean lattice of all subsets of {0,1}^n_bits.

    Element index doubles as the subset bitmask over atoms, so the tables
    are pure bit arithmetic.  2**(2**n_bits) elements; anything over
    ``max_elements`` is refused.
    """
    if n_bits < 0:
        raise ValidationFailure("register-size", 0.0, "negative width")
    if n_bits > 64:     # refused before the power is formed
        raise SizeCapExceeded(f"2**{n_bits} atoms cannot be masked into an int64")
    atoms = 2 ** n_bits
    if atoms > 62:
        raise SizeCapExceeded(f"{atoms} atoms cannot be masked into an int64")
    n = 2 ** atoms
    if n > max_elements:
        raise SizeCapExceeded(
            f"Boolean lattice on {atoms} atoms has {n} elements (cap {max_elements})")
    atom_names = [format(k, f"0{max(n_bits, 1)}b") for k in range(atoms)]
    labels = []
    for mask in range(n):
        members = [atom_names[k] for k in range(atoms) if (mask >> k) & 1]
        labels.append("{" + ",".join(members) + "}")
    masks = np.arange(n, dtype=np.int64)
    leq = (masks[:, None] & ~masks[None, :]) == 0
    meet = masks[:, None] & masks[None, :]
    join = masks[:, None] | masks[None, :]
    ortho = masks ^ (n - 1)
    return FiniteOML(tuple(labels), leq, meet, join, ortho, 0, n - 1)


def mo2_oml() -> FiniteOML:
    """The smallest orthomodular non-distributive lattice: two incomparable
    atom pairs {a, a'} and {b, b'} under common bounds."""
    labels = ("0", "a", "a'", "b", "b'", "1")
    n = 6
    leq = np.zeros((n, n), dtype=bool)
    leq[0, :] = True
    leq[:, 5] = True
    np.fill_diagonal(leq, True)
    ortho = np.array([5, 2, 1, 4, 3, 0])
    return from_order(labels, leq, ortho, 0, 5)


def from_order(labels: Sequence[str], leq, ortho, zero: int, one: int,
               *, max_elements: int = DEFAULT_MAX_ELEMENTS) -> FiniteOML:
    """Build a lattice from the order relation alone.

    Meet and join tables are derived as greatest lower / least upper bounds;
    a pair without a unique glb or lub fails with a named violation.  On a
    reflexive, antisymmetric relation each table is read off one matrix
    product of the order L, H = L^T diag(r) L for meets and the same of L^T
    for joins: H[a, b] is an exact integer fingerprint of the common set of
    a and b, it names the element whose own set has that fingerprint, and
    entries of the same product check exactly that this element's set is
    the common set (see :func:`_bounds_by_products`).  The pairs the
    products miss, for want of a bound or by a fingerprint collision, and
    every pair of any other relation, are derived from the definition row
    by row, so the tables and exceptions do not depend on the weights r.
    """
    labels = tuple(str(s) for s in labels)
    n = len(labels)
    if n > max_elements:
        raise SizeCapExceeded(f"{n} elements exceeds cap {max_elements}")
    if len(set(labels)) != n:
        raise ValidationFailure("labels-unique", 0.0)
    leq = np.array(leq, dtype=bool)
    if leq.shape != (n, n):
        raise ValidationFailure("table-shape", 0.0, f"leq is {leq.shape}")
    idx = np.arange(n)
    # the products are exact on a reflexive, antisymmetric relation
    if leq[idx, idx].all() and not (leq & leq.T & ~np.eye(n, dtype=bool)).any():
        meet, join = _bounds_by_products(leq), _bounds_by_products(leq.T)
    else:
        meet, join = np.full((2, n, n), -1, dtype=np.intp)
    # rows with a pair the products missed are derived from the definition,
    # in row order, meet before join, so the first pair without a bound is
    # named
    missed = np.flatnonzero((meet < 0).any(axis=1) | (join < 0).any(axis=1))
    for a in missed:
        if (meet[a] < 0).any():
            meet[a] = _bounds_by_definition(labels, "meet", a, leq)
        if (join[a] < 0).any():
            join[a] = _bounds_by_definition(labels, "join", a, leq.T)
    return FiniteOML(labels, leq, meet, join, np.asarray(ortho, dtype=np.intp),
                     zero, one)


def _fingerprint_weights(n: int) -> np.ndarray:
    """n fixed odd weights below 2**53 / n, as floats, so that a sum of up to
    n of them is an exact float64 integer: the top bits of splitmix64
    (Steele, Lea & Flood, OOPSLA 2014) of 1..n, with the lowest bit set."""
    # uint64 products wrap mod 2**64, as splitmix64 does
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ z >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ z >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
    shift = np.uint64(11 + n.bit_length())
    return ((z ^ z >> np.uint64(31)) >> shift | np.uint64(1)).astype(np.float64)


# a block of lookups stays within this many bytes per intermediate array
_BLOCK_BYTES = 128 << 10


def _bounds_by_products(rel: np.ndarray) -> np.ndarray:
    """[a, b]: the element whose down-set is the common set of a and b
    under ``rel``, or -1 where the lookup misses.

    With the order L (L[x, a]: x <= a) this is the meet table, and with its
    transpose the join table.  One matrix product names every common set:
    H = L^T diag(r) L, where H[a, b] is the sum of the positive integer
    weights r over the common set of a and b, so H[c, c] is the sum over
    c's own down-set.  Every sum is exact, since the weights stay below
    2**53 / n.  Each H[a, b] is looked up among the diagonal, and a hit c
    counts only if H[c, a] = H[c, b] = H[c, c] = H[a, b].  With positive
    weights, H[c, a] = H[c, c] says exactly that down(c) lies in down(a),
    as no weight is left over, and likewise for b; then H[c, c] = H[a, b]
    says that down(c) is the whole common set.  So the fingerprint only
    names the candidate (Karp & Rabin, *IBM J. Res. Dev.* 31, 1987), and
    the check is the set equality itself.  On a reflexive, antisymmetric
    relation distinct elements have distinct down-sets, so such a c is the
    extreme common bound by the definition (Davey & Priestley,
    *Introduction to Lattices and Order*, 2002, ch. 2).  A miss, a pair
    without a bound or one whose fingerprint collided with another
    element's, is left at -1 for the definition scan.

    H is symmetric, so only the pairs b >= a are looked up, in blocks of
    rows whose intermediates stay within ``_BLOCK_BYTES``, and the lower
    triangle is copied from the upper.
    """
    n = len(rel)
    ld = rel.astype(np.float64)
    prints = (ld * _fingerprint_weights(n)[:, None]).T @ ld          # H
    del ld
    own = prints.diagonal()
    order = np.argsort(own, kind="stable")
    sorted_own = own[order]
    idx = np.arange(n)
    table = np.empty((n, n), dtype=np.intp)
    step = max(1, _BLOCK_BYTES // (8 * max(n, 1)))
    for start in range(0, n, step):
        stop = min(start + step, n)
        h = prints[start:stop, start:]                                # [a, b], b >= start
        at = np.searchsorted(sorted_own, h).clip(max=n - 1)
        cand = order[at]
        hit = sorted_own[at]
        exact = ((hit == h) & (prints[cand, idx[start:stop, None]] == hit)
                 & (prints[cand, idx[start:]] == hit))
        table[start:stop, start:] = np.where(exact, cand, -1)
    np.copyto(table, table.T, where=np.tri(n, k=-1, dtype=bool))
    return table


def _bounds_by_definition(labels, kind: str, a: int, rel: np.ndarray) -> np.ndarray:
    """Row a of the meet (``rel`` the relation) or join table (the
    transposed relation), from the definition of the extreme common bound,
    which assumes nothing of the relation; a pair without exactly one
    raises ``<kind>-exists``.

    The candidates cand are the elements of a's own set (rel[x, a]).
    cand[k] is the extreme common bound of a and b when it lies in b's set
    and the whole common set of a and b lies in its own set, that is, when
    as many elements of the common set lie in cand[k]'s set as there are in
    the common set.  One product of counts, exact below 2**24, holds them
    all: [k, b] counts the candidates in b's set and in cand[k]'s set.
    """
    cand = np.flatnonzero(rel[:, a])
    bounds = rel[cand, :]                                # [k, b]: cand[k] in b's set
    common = bounds.astype(np.float32)
    inside = rel[np.ix_(cand, cand)].astype(np.float32)  # [j, k]: cand[j] in cand[k]'s set
    is_extreme = bounds & (inside.T @ common == common.sum(axis=0))
    counts = is_extreme.sum(axis=0)
    if (counts != 1).any():
        b = int(np.argmax(counts != 1))
        bound = "greatest lower" if kind == "meet" else "least upper"
        raise ValidationFailure(
            f"{kind}-exists", float(counts[b]),
            f"pair ({labels[a]}, {labels[b]}) has {counts[b]} {bound} bounds")
    return cand[np.argmax(is_extreme, axis=0)]


# ---------------------------------------------------------------------------
# projector lattices


@dataclass(frozen=True, eq=False)
class ProjectionLattice(FiniteOML):
    """A FiniteOML whose elements are concrete projectors on C^dim."""

    dim: int = field(kw_only=True)
    matrices: tuple[np.ndarray, ...] = field(kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        mats = []
        for m in self.matrices:
            if np.shape(m) != (self.dim, self.dim):
                raise DimensionMismatch(
                    f"matrix shape {np.shape(m)} vs ({self.dim}, {self.dim})")
            # a validated, read-only copy; the caller's array is left alone
            mats.append(Projector(m).matrix)
        if len(mats) != len(self.labels):
            raise ValidationFailure("matrices", 0.0, "one matrix per element")
        object.__setattr__(self, "matrices", tuple(mats))

    def projector(self, index: int) -> Projector:
        return Projector(self.matrices[index])


# one chunk of meets, the stacked pairs with the SVD's outputs and the meet
# matrices (8 dim^2 complex entries a pair), stays within this many bytes
_SVD_CHUNK_BYTES = 256 << 10


def projection_oml(dim: int, projectors: Sequence[Projector], *,
                   tol: float = 1e-9,
                   max_elements: int = 64) -> ProjectionLattice:
    """Close a projector family under meet and complement.

    Elements are deduplicated entrywise at ``tol``; a candidate that is
    neither clearly equal to an existing element nor clearly distinct raises
    :class:`ToleranceCollision`.  Closure past ``max_elements`` raises
    :class:`ClosureCapExceeded`.  The meet, one null space per pair, is the
    only numerical decision: a direction that both projectors move by at
    most ``tol`` is shared.  The pairs go to :func:`null_space` in stacks,
    each round's in chunks of at most ``_SVD_CHUNK_BYTES``.  The joins and
    the order are read off the meet and complement tables, a v b =
    (a' ^ b')' and a <= b exactly when a ^ b = a (Kalmbach, *Orthomodular
    Lattices*, 1983), so neither can disagree with the meets.  The result
    carries the tables and the projector matrices, in a canonical entrywise
    order.
    """
    check_dim(dim)
    check_tol(tol)
    stack, complement, pairs = _closure(dim, projectors, tol, max_elements)
    n = len(stack)
    order = sorted(range(n), key=lambda i: entry_key(stack[i], 12))
    mats = stack[order]
    pos = np.empty(n, dtype=np.intp)                      # old index -> sorted index
    pos[order] = np.arange(n)

    rows, cols, meets = pos[np.array(pairs, dtype=np.intp).T]
    meet = np.empty((n, n), dtype=np.intp)
    meet[rows, cols] = meet[cols, rows] = meets
    ortho = np.empty(n, dtype=np.intp)
    ortho[pos] = pos[complement]
    join = ortho[meet[np.ix_(ortho, ortho)]]
    leq = meet == np.arange(n)[:, None]
    zero, one = int(pos[0]), int(pos[1])

    labels = [f"P{i}" for i in range(n)]
    labels[zero], labels[one] = "0", "1"
    return ProjectionLattice(tuple(labels), leq, meet, join, ortho, zero, one,
                             dim=dim, matrices=tuple(mats))


def _closure(dim: int, projectors: Sequence[Projector], tol: float,
             max_elements: int) -> tuple[np.ndarray, list[int], list[tuple[int, int, int]]]:
    """The elements of the closure in the order found (0 and 1 first),
    each one's complement, and each meet as a triple (i, j, meet of i and
    j) over the pairs i <= j, for :func:`projection_oml`.

    Each round pairs the elements found so far with the ones new in it; its
    meets are decomposed in chunks of pairs, one ``null_space`` call on the
    stacked chunk, and added in pair order, so a candidate that collides or
    passes the cap raises where a pair-by-pair loop would, after at most a
    chunk of SVDs more.  It is a function of its own so that its working
    objects are gone before the lattice's laws are checked.
    """
    # the elements found so far are stack[:count]; the buffer doubles when full
    stack = np.zeros((8, dim, dim), dtype=complex)
    stack[1] = np.eye(dim)
    count = 2

    def add(m: np.ndarray) -> int:
        nonlocal stack, count
        gaps = np.abs(stack[:count] - m).max(axis=(1, 2))
        hits = np.flatnonzero(gaps <= tol)
        if len(hits) > 1:
            raise ToleranceCollision(
                f"candidate matches elements {hits.tolist()} simultaneously at tol {tol:g}")
        if len(hits):
            return int(hits[0])
        near = gaps.min()
        if near <= 10 * tol:
            raise ToleranceCollision(
                f"candidate is {near:.3e} from an existing element; "
                f"not separable at tol {tol:g}")
        if count >= max_elements:
            raise ClosureCapExceeded(
                f"closure exceeded {max_elements} elements")
        if count == len(stack):
            stack = np.concatenate([stack, np.zeros_like(stack)])
        stack[count] = m
        count += 1
        return count - 1

    for p in projectors:
        if not isinstance(p, Projector):
            p = Projector(p)
        if p.dim != dim:
            raise DimensionMismatch(f"projector dim {p.dim} vs {dim}")
        add(p.matrix.astype(complex))

    # complement[i] indexes I - stack[i]; pairs holds each meet as (i, j, meet)
    complement: list[int] = []
    pairs: list[tuple[int, int, int]] = []
    eye = np.eye(dim, dtype=complex)
    per_chunk = max(1, _SVD_CHUNK_BYTES // (8 * dim * dim * 16))

    def meets(chunk: list[tuple[int, int]]) -> list[np.ndarray]:
        # the directions that both move by at most tol: the null spaces of
        # the stacked [I - p_i; I - p_j], one SVD call for the chunk
        gaps = (eye - stack[np.array(chunk)]).reshape(len(chunk), 2 * dim, dim)
        return [basis @ basis.conj().T for basis in null_space(gaps, atol=tol)]

    done = 0
    while done < count:
        # complements first, so each round pairs a complement-closed set and
        # its joins, the complements of meets of complements, arrive with it
        while len(complement) < count:
            complement.append(add(eye - stack[len(complement)]))
        done_now = count
        todo = ((i, j) for i in range(done_now) for j in range(max(i, done), done_now))
        while chunk := list(islice(todo, per_chunk)):
            pairs.extend((i, j, add(m)) for (i, j), m in zip(chunk, meets(chunk)))
        done = done_now
    return stack[:count], complement, pairs


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class LatticeState:
    """A finitely additive probability valuation on a lattice.

    ``zero_atol`` is the threshold under which a value counts as "zero" for
    the superposition test: exact for table-backed states, loosened for
    states computed from traces.
    """

    lattice: FiniteOML
    values: np.ndarray
    tolerance: float = 1e-9
    zero_atol: float = 0.0

    def __post_init__(self):
        check_tol(self.tolerance)
        check_tol(self.zero_atol)
        v = np.array(self.values, dtype=float)
        n = len(self.lattice)
        if v.shape != (n,):
            raise ValidationFailure("state-shape", 0.0, f"{v.shape} vs ({n},)")
        if not np.isfinite(v).all():
            raise ValidationFailure("finite", float("inf"))
        if (v < -self.tolerance).any() or (v > 1 + self.tolerance).any():
            worst = float(np.max(np.abs(v - 0.5)) - 0.5)
            raise ValidationFailure("state-range", worst)
        if abs(v[self.lattice.zero]) > self.tolerance:
            raise ValidationFailure("state-at-zero", float(abs(v[self.lattice.zero])))
        if abs(v[self.lattice.one] - 1.0) > self.tolerance:
            raise ValidationFailure("state-at-one",
                                    float(abs(v[self.lattice.one] - 1.0)))
        lat = self.lattice
        orthogonal = lat.leq[:, lat.ortho]        # [a, b] = leq[a, ortho[b]]
        gaps = np.where(orthogonal, np.abs(v[lat.join] - v[:, None] - v[None, :]), 0.0)
        a, b = np.unravel_index(int(np.argmax(gaps)), gaps.shape)
        worst = float(gaps[a, b])
        if worst > self.tolerance:
            raise ValidationFailure(
                "additive", worst,
                f"on orthogonal pair ({lat.labels[a]}, {lat.labels[b]})")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def value(self, label: str) -> float:
        return float(self.values[self.lattice.index_of(label)])


def point_mass_state(lattice: FiniteOML, atom: int) -> LatticeState:
    """The dispersion-free valuation "the system sits at this atom".

    v(x) = 1 exactly when atom <= x.  Additivity of this table is a theorem
    for Boolean lattices and fails on e.g. MO2, where the constructor
    rejects it; that rejection is the formal face of "no dispersion-free
    states".
    """
    if not 0 <= atom < len(lattice):
        raise IndexOutOfRange(f"atom index {atom} out of range")
    return LatticeState(lattice, lattice.leq[atom, :].astype(float),
                        tolerance=0.0, zero_atol=0.0)


def gleason_state(rho: DensityOperator, lattice: ProjectionLattice) -> LatticeState:
    """The valuation P -> Tr(rho P) over a projector lattice."""
    if not isinstance(lattice, ProjectionLattice):
        raise LatticeMismatch("gleason_state needs a ProjectionLattice")
    if rho.dim != lattice.dim:
        raise DimensionMismatch(f"state dim {rho.dim} vs lattice dim {lattice.dim}")
    # Tr(rho P) as born pairs it, on the matrices the lattice validated
    tol = max(rho.tolerance, DEFAULT_TOL)
    values = [_probability(complex(np.trace(rho.matrix @ m)), tol) for m in lattice.matrices]
    return LatticeState(lattice, np.array(values), tolerance=1e-9, zero_atol=1e-9)


# ---------------------------------------------------------------------------
# automorphisms


@dataclass(frozen=True)
class LatticeAutomorphism:
    """A bijection of elements preserving order, meet, join, and ortho.

    This is the event-side (Heisenberg) action: for a unitary U the mapping
    sends P to U* P U, so that pushing a state forward along it reproduces
    conjugation of the density operator by U.
    """

    lattice: FiniteOML
    mapping: np.ndarray

    def __post_init__(self):
        m = np.array(self.mapping, dtype=np.intp)
        n = len(self.lattice)
        if m.shape != (n,):
            raise ValidationFailure("automorphism-shape", 0.0, f"{m.shape} vs ({n},)")
        if sorted(m.tolist()) != list(range(n)):
            raise ValidationFailure("bijective", 0.0, "mapping is not a permutation")
        lat = self.lattice
        if m[lat.zero] != lat.zero or m[lat.one] != lat.one:
            raise ValidationFailure("fixes-bounds", 0.0, "zero or one moves")
        # meets fix the order (a <= b iff a ^ b = a), and the order fixes joins
        if (m[lat.meet] != lat.meet[np.ix_(m, m)]).any():
            raise ValidationFailure("meet-homomorphism", 0.0)
        if (m[lat.ortho] != lat.ortho[m]).any():
            raise ValidationFailure("ortho-homomorphism", 0.0)
        m.setflags(write=False)
        object.__setattr__(self, "mapping", m)


def identity_automorphism(lattice: FiniteOML) -> LatticeAutomorphism:
    return LatticeAutomorphism(lattice, np.arange(len(lattice)))


def compose_automorphisms(word: Sequence[LatticeAutomorphism]) -> LatticeAutomorphism:
    """The single automorphism equal to applying the word in time order.

    Event maps compose contravariantly: running g then h acts on events as
    g(h(.)), matching (HG)* P (HG) = G*(H* P H) G for unitaries.
    """
    return LatticeAutomorphism(*_composite(list(word)))


def permutation_automorphism(lattice: FiniteOML, atom_perm: Sequence[int]) -> LatticeAutomorphism:
    """Automorphism of a Boolean subset lattice induced by permuting atoms.

    ``atom_perm[k]`` is where atom k is sent.  The element map takes each
    subset to its preimage, the event-side convention, so pushing a point
    mass at atom k forward yields the point mass at atom_perm[k].  Requires
    a lattice with boolean_oml's mask indexing.
    """
    k = len(atom_perm)
    n = len(lattice)
    if n != 2 ** k:
        raise LatticeMismatch(f"{n} elements is not a Boolean lattice on {k} atoms")
    if sorted(atom_perm) != list(range(k)):
        raise ValidationFailure("permutation", 0.0, f"{atom_perm!r}")
    # bit b of the preimage of a mask is its bit atom_perm[b]
    bits = np.arange(n)[:, None] >> np.array(atom_perm, dtype=np.intp) & 1
    return LatticeAutomorphism(lattice, (bits << np.arange(k)).sum(axis=1))


def unitary_automorphism(u: UnitaryGate, lattice: ProjectionLattice, *,
                         tol: float = 1e-9) -> LatticeAutomorphism:
    """The lattice automorphism P -> U* P U, if the lattice is closed under it.

    Raises :class:`NotClosedUnderConjugation` naming the first element whose
    conjugate is not in the lattice.
    """
    check_tol(tol)
    if not isinstance(lattice, ProjectionLattice):
        raise LatticeMismatch("unitary_automorphism needs a ProjectionLattice")
    if u.dim != lattice.dim:
        raise DimensionMismatch(f"gate dim {u.dim} vs lattice dim {lattice.dim}")
    udag = u.matrix.conj().T
    stack = np.stack(lattice.matrices)
    mapping = np.zeros(len(lattice), dtype=np.intp)
    for i, m in enumerate(lattice.matrices):
        img = udag @ m @ u.matrix
        hits = np.flatnonzero(np.abs(img - stack).max(axis=(1, 2)) <= tol).tolist()
        if len(hits) > 1:
            raise ToleranceCollision(
                f"conjugate of {lattice.labels[i]} matches elements {hits}")
        if not hits:
            raise NotClosedUnderConjugation(
                f"conjugate of {lattice.labels[i]} is not a lattice element")
        mapping[i] = hits[0]
    return LatticeAutomorphism(lattice, mapping)


def pushforward(auto: LatticeAutomorphism, state: LatticeState) -> LatticeState:
    """The state after the gate: (auto . state)(X) = state(auto(X))."""
    if auto.lattice is not state.lattice:
        raise LatticeMismatch("automorphism and state live on different lattices")
    return LatticeState(state.lattice, state.values[auto.mapping],
                        tolerance=state.tolerance, zero_atol=state.zero_atol)


# ---------------------------------------------------------------------------
# generalized relations and superposition


def _composite(word) -> tuple[FiniteOML, np.ndarray]:
    """The lattice and event map, one index array, of an automorphism or a
    nonempty word of them in time order.  Automorphisms preserve meets and
    complements, so callers read a valid state's ``values[mapping]`` as is."""
    if isinstance(word, LatticeAutomorphism):
        return word.lattice, word.mapping
    word = list(word)
    if not word:
        raise InvalidArgument("empty automorphism word")
    if bad := [auto for auto in word if not isinstance(auto, LatticeAutomorphism)]:
        raise InvalidArgument(f"word letter {bad[0]!r} is not a LatticeAutomorphism")
    lat = word[0].lattice
    mapping = np.arange(len(lat))
    for auto in reversed(word):
        if auto.lattice is not lat:
            raise LatticeMismatch("automorphisms live on different lattices")
        mapping = auto.mapping[mapping]
    return lat, mapping


def _index(x, n: int, what: str) -> int:
    """``x`` as an index below ``n`` if ``operator.index`` takes it, or an
    IndexOutOfRange whose message starts with ``what``."""
    try:
        i = operator.index(x)
    except TypeError:
        raise IndexOutOfRange(f"{what} is a {type(x).__name__}, not an integer") from None
    if not 0 <= i < n:
        raise IndexOutOfRange(f"{what} out of range")
    return i


@dataclass(frozen=True)
class GeneralizedReport:
    """Verdict of a generalized (lattice-level) relation query."""

    relation: str
    holds: bool
    tolerance: float
    lhs: float | None = None
    rhs: float | None = None
    witness_element: str | None = None
    witness_state: int | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"relation": self.relation, "holds": self.holds,
                     "tolerance": self.tolerance}
        for key in ("lhs", "rhs", "witness_element", "witness_state"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out


def _generalized(relation: str, u, v, nu, element, tol) -> GeneralizedReport:
    check_tol(tol)
    lat, fu = _composite(u)
    lat_v, fv = _composite(v)
    if lat_v is not lat:
        raise LatticeMismatch("words live on different lattices")
    states = [nu] if isinstance(nu, LatticeState) else list(nu)
    if not states:
        raise InvalidArgument("need at least one state")
    idx = np.arange(len(lat))
    if element is not None:
        idx = idx[[lat.index_of(element) if isinstance(element, str)
                   else _index(element, len(lat), f"element {element!r}")]]
    for si, state in enumerate(states):
        if state.lattice is not lat:
            raise LatticeMismatch(f"state {si} lives on a different lattice")
        a = state.values[fu[idx]]
        b = state.values[fv[idx]]
        bad = (np.abs(a - b) > tol) if relation == "generalized_equiv" \
            else (a > b + tol)
        if bad.any():
            w = int(np.argmax(bad))
            return GeneralizedReport(
                relation, False, tol, lhs=float(a[w]), rhs=float(b[w]),
                witness_element=lat.labels[idx[w]],
                witness_state=si if len(states) > 1 else None)
    if element is not None and len(states) == 1:
        return GeneralizedReport(relation, True, tol, lhs=float(a[0]), rhs=float(b[0]))
    return GeneralizedReport(relation, True, tol)


def generalized_equiv(u, v, nu, element=None, tol: float = 1e-9) -> GeneralizedReport:
    """Do two automorphism words agree on a state (or a list of states)?

    With ``element`` given, only that element's probability is compared;
    otherwise all elements are.  ``nu`` may be one LatticeState or a
    sequence of them, in which case the relation must hold for each.
    """
    return _generalized("generalized_equiv", u, v, nu, element, tol)


def generalized_leq(u, v, nu, element=None, tol: float = 1e-9) -> GeneralizedReport:
    """Is the first word's probability at most the second's, elementwise?"""
    return _generalized("generalized_leq", u, v, nu, element, tol)


def is_superposition(nu: LatticeState, family: Sequence[LatticeState],
                     threshold: float | None = None) -> tuple[bool, str | None]:
    """Is ``nu`` a superposition of the states in ``family``?

    The criterion: every element that all family states kill (value zero)
    must be killed by ``nu`` as well.  Returns the first violating element's
    label otherwise.  Zero-ness is judged per state by its own ``zero_atol``
    unless an explicit ``threshold`` overrides all of them; a negative or
    NaN threshold is refused.
    """
    if threshold is not None:
        check_tol(threshold)
    lat = nu.lattice
    killed = np.ones(len(lat), dtype=bool)
    for mu in family:
        if mu.lattice is not lat:
            raise LatticeMismatch("family state lives on a different lattice")
        killed &= mu.values <= (threshold if threshold is not None else mu.zero_atol)
    first = _first(killed & (nu.values > (threshold if threshold is not None else nu.zero_atol)))
    return (True, None) if first is None else (False, lat.labels[first[0]])


# ---------------------------------------------------------------------------
# schemes and protocols


@dataclass(frozen=True)
class ComputationalScheme:
    """A lattice, its admissible states, its gate automorphisms, and which
    state the machine is prepared in."""

    lattice: FiniteOML
    states: tuple[LatticeState, ...]
    generators: tuple[LatticeAutomorphism, ...]
    initial: int = 0

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.states:
            raise ValidationFailure("scheme-states", 0.0, "need at least one state")
        for s in self.states:
            if s.lattice is not self.lattice:
                raise LatticeMismatch("state built on a different lattice")
        for g in self.generators:
            if g.lattice is not self.lattice:
                raise LatticeMismatch("generator built on a different lattice")
        if not 0 <= self.initial < len(self.states):
            raise IndexOutOfRange(f"initial state index {self.initial}")


def run_protocol(scheme: ComputationalScheme, word: Sequence[int],
                 readout: Sequence[int | str] | None = None) -> dict[str, float]:
    """Run a gate word (indices into the scheme's generators) and read out.

    The initial state is pushed forward through the word, composed into
    one event map; the result maps each readout element's label to its
    probability.  ``readout`` defaults to every element.
    """
    n_gen = len(scheme.generators)
    autos = [scheme.generators[_index(gi, n_gen, f"generator index {gi}")] for gi in word]
    values = scheme.states[scheme.initial].values
    if autos:
        values = values[_composite(autos)[1]]
    lat = scheme.lattice
    indices = range(len(lat)) if readout is None else [
        lat.index_of(r) if isinstance(r, str)
        else _index(r, len(lat), f"readout element {r!r}") for r in readout]
    return {lat.labels[i]: float(values[i]) for i in indices}


# ---------------------------------------------------------------------------
# JSON interchange


def lattice_to_json(lattice: FiniteOML) -> dict:
    """Serialize labels, the full order relation, ortho, and the bounds."""
    labels = lattice.labels
    return {
        "elements": list(labels),
        "leq": {labels[i]: [labels[j] for j in range(len(labels))
                            if lattice.leq[i, j]]
                for i in range(len(labels))},
        "ortho": {labels[i]: labels[int(lattice.ortho[i])]
                  for i in range(len(labels))},
        "zero": labels[lattice.zero],
        "one": labels[lattice.one],
    }


def lattice_from_json(obj: dict, *, max_elements: int = DEFAULT_MAX_ELEMENTS) -> FiniteOML:
    """Inverse of :func:`lattice_to_json`.

    The ``leq`` lists may be any relation whose reflexive-transitive closure
    is the intended order; the closure is taken before validation.
    """
    try:
        labels = _strict(obj["elements"], list)
        if not all(isinstance(s, str) for s in labels):
            raise ValueError("every element must be a string")
        n = len(labels)
        if n > max_elements:
            raise SizeCapExceeded(f"{n} elements exceeds cap {max_elements}")
        if len(set(labels)) != n:
            raise ValidationFailure("labels-unique", 0.0)
        pos = {s: i for i, s in enumerate(labels)}
        leq = np.zeros((n, n), dtype=bool)
        for a, ups in obj["leq"].items():
            for b in _strict(ups, list):
                leq[pos[a], pos[b]] = True
        ortho = np.zeros(n, dtype=np.intp)
        for a, b in obj["ortho"].items():
            ortho[pos[a]] = pos[b]
        zero = pos[obj["zero"]]
        one = pos[obj["one"]]
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValidationFailure("lattice-json", 0.0, f"bad payload: {exc}")
    np.fill_diagonal(leq, True)
    while True:
        lf = leq.astype(np.float32)
        closed = leq | (lf @ lf > 0)     # exact: the entries count at most n < 2**24 paths
        if (closed == leq).all():
            break
        leq = closed
    return from_order(labels, leq, ortho, zero, one, max_elements=max_elements)
