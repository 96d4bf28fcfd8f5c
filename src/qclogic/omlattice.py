"""Finite orthomodular lattices as an abstract computational scheme.

A lattice is stored extensionally: labels, the full order relation, meet and
join tables, and the orthocomplement map.  Construction checks the required
laws (order axioms, glb/lub consistency, orthocomplement laws, the
orthomodular law) in order and raises at the first that fails.  Lattice
commutativity, associativity, absorption and order-consistency are theorems
of the first six, so they are not computed.  Distributivity is computed but
only reported, since quantum event lattices fail it.  On top of the lattice
sit finitely additive states, automorphisms (the abstract gates),
pushforwards, generalized equivalence of automorphism words, a superposition
test, and a protocol runner.  Two concrete constructions are provided: the
Boolean lattice of subsets and the lattice generated by closing a family of
projectors under meet, join, and complement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ClosureCapExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    LatticeMismatch,
    NotClosedUnderConjugation,
    SizeCapExceeded,
    ToleranceCollision,
    ValidationFailure,
)
from .qcore import DensityOperator, Projector, UnitaryGate, born, entry_key, null_space

DEFAULT_MAX_ELEMENTS = 512

# hard ceiling for direct construction; the law battery is cubic in n
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


def _first_pair(mask: np.ndarray) -> tuple[int, ...] | None:
    if not mask.any():
        return None
    a, b = np.unravel_index(int(np.argmax(mask)), mask.shape)
    return (int(a), int(b))


def _first_triple(n: int, slab_for: Callable[[int], np.ndarray]) -> tuple[int, ...] | None:
    """The first (a, b, c) flagged, scanning one (b, c) slab per a."""
    for a in range(n):
        slab = slab_for(a)
        if slab.any():
            b, c = np.unravel_index(int(np.argmax(slab)), slab.shape)
            return (a, int(b), int(c))
    return None


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
    refl = ~leq[idx, idx]
    check("reflexive", (int(np.argmax(refl)),) if refl.any() else None)
    check("antisymmetric", _first_pair(leq & leq.T & ~np.eye(n, dtype=bool)))
    lf = leq.astype(np.float32)
    # exact: every entry of the product is a count <= n <= MAX_LATTICE < 2**24
    closure = (lf @ lf > 0) & ~leq
    if closure.any():
        a, c = np.unravel_index(int(np.argmax(closure)), closure.shape)
        b = int(np.argmax(leq[a, :] & leq[:, c]))
        check("transitive", (int(a), b, int(c)))
    bounds_bad = ~leq[zero, :] | ~leq[:, one]
    check("bounded", (int(np.argmax(bounds_bad)),) if bounds_bad.any() else None)

    # meet/join against the order, one (b, c) slab per a
    leq_t = np.ascontiguousarray(leq.T)                  # [b, c] = leq[c, b]

    def meet_glb_slab(a: int) -> np.ndarray:
        m = meet[a]
        bad_lower = ~(leq[m, a] & leq[m, idx])           # over b
        # [b, c]: c <= a and c <= b, but c not <= meet[a, b]
        bad_greatest = leq[:, a] & leq_t & ~leq_t[m]
        return bad_lower[:, None] | bad_greatest

    def join_lub_slab(a: int) -> np.ndarray:
        j = join[a]
        bad_upper = ~(leq[a, j] & leq[idx, j])           # over b
        # [b, c]: a <= c and b <= c, but join[a, b] not <= c
        bad_least = leq[a, :] & leq & ~leq[j, :]
        return bad_upper[:, None] | bad_least

    check("meet-is-glb", _first_triple(n, meet_glb_slab))
    check("join-is-lub", _first_triple(n, join_lub_slab))

    invol = ortho[ortho] != idx
    check("ortho-involution", (int(np.argmax(invol)),) if invol.any() else None)
    comp_bad = (meet[idx, ortho] != zero) | (join[idx, ortho] != one)
    check("ortho-complement", (int(np.argmax(comp_bad)),) if comp_bad.any() else None)
    reversed_leq = leq[np.ix_(ortho, ortho)]             # [a, b] = leq[ortho[a], ortho[b]]
    check("ortho-order-reversing", _first_pair(leq & ~reversed_leq.T))

    inner = meet[ortho]                                   # [a, b] = meet[ortho[a], b]
    om_rhs = join[idx[:, None], inner]                    # [a, b] = join[a, inner[a, b]]
    check("orthomodular", _first_pair(leq & (om_rhs != idx[None, :])))


def _distributive_report(labels, meet, join) -> LawReport:
    """Distributivity, one (b, c) slab per a.

    The gathers write into buffers reused for every a.  Fresh n x n
    temporaries page-fault whenever the allocator maps them anew, which
    tripled the gather time at n = 512.  mode="clip" lets take write
    straight into them; it never clips, since the tables are in range.
    """
    n = len(labels)
    lhs, rows, rhs = np.empty((3, n, n), dtype=np.intp)
    differ = np.empty((n, n), dtype=bool)

    def slab(a: int) -> np.ndarray:
        ma = meet[a]
        ma.take(join, out=lhs, mode="clip")                              # a ^ (b v c)
        join.take(ma, axis=0, out=rows, mode="clip").take(ma, axis=1, out=rhs, mode="clip")
        return np.not_equal(lhs, rhs, out=differ)                        # vs (a^b) v (a^c)
    return _report(labels, "distributive", _first_triple(n, slab))


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


def verify_laws(lattice: FiniteOML, *, include_informational: bool = True) -> list[LawReport]:
    """The law reports of a built lattice: every required law holds, since
    the constructor refused any table that breaks one and the tables are
    read-only, followed by distributivity unless ``include_informational``
    is false."""
    reports = [LawReport(law, True) for law in REQUIRED_LAWS]
    if include_informational:
        reports.append(_distributive_report(lattice.labels, lattice.meet, lattice.join))
    return reports


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
    a pair without a unique glb or lub fails with a named violation.
    """
    labels = tuple(str(s) for s in labels)
    n = len(labels)
    if n > max_elements:
        raise SizeCapExceeded(f"{n} elements exceeds cap {max_elements}")
    leq = np.array(leq, dtype=bool)
    if leq.shape != (n, n):
        raise ValidationFailure("table-shape", 0.0, f"leq is {leq.shape}")
    down = _packed(leq.T)                                 # row c: the set below c
    up = _packed(leq)                                     # row c: the set above c
    meet = np.zeros((n, n), dtype=np.intp)
    join = np.zeros((n, n), dtype=np.intp)
    for a in range(n):
        below = np.flatnonzero(leq[:, a])
        is_glb = _extreme_bounds(a, below, leq[below, :], down)
        counts = is_glb.sum(axis=0)
        if (counts != 1).any():
            b = int(np.argmax(counts != 1))
            raise ValidationFailure(
                "meet-exists", float(counts[b]),
                f"pair ({labels[a]}, {labels[b]}) has {counts[b]} greatest lower bounds")
        meet[a] = below[np.argmax(is_glb, axis=0)]

        above = np.flatnonzero(leq[a, :])
        is_lub = _extreme_bounds(a, above, leq[:, above].T, up)
        counts = is_lub.sum(axis=0)
        if (counts != 1).any():
            b = int(np.argmax(counts != 1))
            raise ValidationFailure(
                "join-exists", float(counts[b]),
                f"pair ({labels[a]}, {labels[b]}) has {counts[b]} least upper bounds")
        join[a] = above[np.argmax(is_lub, axis=0)]
    return FiniteOML(labels, leq, meet, join, np.asarray(ortho, dtype=np.intp),
                     zero, one)


def _packed(rows: np.ndarray) -> np.ndarray:
    """Each row of a boolean matrix as a bitset of uint64 words."""
    n_rows, n = rows.shape
    bits = np.zeros((n_rows, -(-n // 64) * 64), dtype=bool)
    bits[:, :n] = rows
    return np.packbits(bits, axis=1, bitorder="little").view(np.uint64)


def _extreme_bounds(a: int, cand: np.ndarray, bounds: np.ndarray,
                    sets: np.ndarray) -> np.ndarray:
    """[k, b]: is cand[k] the extreme common bound of a and b?

    ``sets`` holds every element's lower sets (for the glb) or upper sets
    (for the lub) as bitsets, ``cand`` the elements in a's set and
    ``bounds[k, b]`` whether cand[k] is in b's set.  cand[k] is extreme when
    the whole common set of a and b lies in its own set, which is the
    definition itself and assumes nothing of the relation.
    """
    common = sets[a] & sets                               # [b, word]
    outside = ~sets[cand]                                 # [k, word]
    extreme = bounds.copy()
    for w in range(sets.shape[1]):
        extreme &= (outside[:, w, None] & common[None, :, w]) == 0
    return extreme


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
            p = np.asarray(m, dtype=complex)
            p.setflags(write=False)
            mats.append(p)
        if len(mats) != len(self.labels):
            raise ValidationFailure("matrices", 0.0, "one matrix per element")
        object.__setattr__(self, "matrices", tuple(mats))

    def projector(self, index: int) -> Projector:
        return Projector(self.matrices[index])


def _proj_meet(p: np.ndarray, q: np.ndarray, tol: float) -> np.ndarray:
    """Projector onto range(p) intersect range(q), via the joint null space
    of (I - p) and (I - q); a direction that both move by at most ``tol``
    lies in both ranges."""
    d = p.shape[0]
    basis = null_space(np.vstack([np.eye(d) - p, np.eye(d) - q]), atol=tol)
    return basis @ basis.conj().T


def _proj_join(p: np.ndarray, q: np.ndarray, tol: float) -> np.ndarray:
    """Projector onto range(p) + range(q): the complement of the meet of
    the complements."""
    eye = np.eye(p.shape[0])
    return eye - _proj_meet(eye - p, eye - q, tol)


def projection_oml(dim: int, projectors: Sequence[Projector], *,
                   tol: float = 1e-9,
                   max_elements: int = 64) -> ProjectionLattice:
    """Close a projector family under meet, join, and complement.

    Elements are deduplicated entrywise at ``tol``; a candidate that is
    neither clearly equal to an existing element nor clearly distinct raises
    :class:`ToleranceCollision`.  Meets and joins count a direction as
    shared when both projectors move it by at most ``tol``.  Closure past
    ``max_elements`` raises :class:`ClosureCapExceeded`.  The result carries
    both the abstract tables and the projector matrices, in a canonical
    entrywise order.
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

    # every meet, join and complement the closure computes, as element indices
    pairs: list[tuple[int, int, int, int]] = []
    complement: list[int] = []
    eye = np.eye(dim, dtype=complex)
    done = 0
    while done < count:
        done_now = count
        for i in range(done_now):
            a = stack[i]
            if i >= done:
                complement.append(add(eye - a))
            for j in range(max(i, done), done_now):
                b = stack[j]
                pairs.append((i, j, add(_proj_meet(a, b, tol)), add(_proj_join(a, b, tol))))
        done = done_now

    n = count
    order = sorted(range(n), key=lambda i: entry_key(stack[i], 12))
    mats = stack[order]
    pos = np.empty(n, dtype=np.intp)                      # old index -> sorted index
    pos[order] = np.arange(n)

    leq = np.empty((n, n), dtype=bool)
    for i in range(n):                                    # [i, j]: mats[j] @ mats[i] == mats[i]
        leq[i] = np.abs(mats @ mats[i] - mats[i]).max(axis=(1, 2)) <= tol

    rows, cols, meets, joins = pos[np.array(pairs, dtype=np.intp).T]
    meet = np.empty((n, n), dtype=np.intp)
    meet[rows, cols] = meet[cols, rows] = meets
    join = np.empty((n, n), dtype=np.intp)
    join[rows, cols] = join[cols, rows] = joins
    ortho = np.empty(n, dtype=np.intp)
    ortho[pos] = pos[complement]
    zero, one = int(pos[0]), int(pos[1])

    labels = []
    for i in range(n):
        if i == zero:
            labels.append("0")
        elif i == one:
            labels.append("1")
        else:
            labels.append(f"P{i}")
    return ProjectionLattice(tuple(labels), leq, meet, join, ortho, zero, one,
                             dim=dim, matrices=tuple(mats))


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
        v = np.array(self.values, dtype=float)
        n = len(self.lattice)
        if v.shape != (n,):
            raise ValidationFailure("state-shape", 0.0, f"{v.shape} vs ({n},)")
        if self.tolerance < 0 or self.zero_atol < 0:
            raise ValidationFailure("tolerance", 0.0, "thresholds must be >= 0")
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
        gaps = np.abs(v[lat.join] - v[:, None] - v[None, :])
        worst = float(np.max(np.where(orthogonal, gaps, 0.0)))
        if worst > self.tolerance:
            a, b = np.unravel_index(
                int(np.argmax(np.where(orthogonal, gaps, 0.0))), gaps.shape)
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
    values = [born(rho, Projector(m)) for m in lattice.matrices]
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
        if (m[lat.meet] != lat.meet[np.ix_(m, m)]).any():
            raise ValidationFailure("meet-homomorphism", 0.0)
        if (m[lat.join] != lat.join[np.ix_(m, m)]).any():
            raise ValidationFailure("join-homomorphism", 0.0)
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
    if not word:
        raise ValueError("empty automorphism word")
    lat = word[0].lattice
    mapping = np.arange(len(lat))
    for auto in reversed(list(word)):
        if auto.lattice is not lat:
            raise LatticeMismatch("automorphisms live on different lattices")
        mapping = auto.mapping[mapping]
    return LatticeAutomorphism(lat, mapping)


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
    mapping = np.zeros(n, dtype=np.intp)
    for mask in range(n):
        pre = 0
        for bit in range(k):
            if (mask >> atom_perm[bit]) & 1:
                pre |= 1 << bit
        mapping[mask] = pre
    return LatticeAutomorphism(lattice, mapping)


def unitary_automorphism(u: UnitaryGate, lattice: ProjectionLattice, *,
                         tol: float = 1e-9) -> LatticeAutomorphism:
    """The lattice automorphism P -> U* P U, if the lattice is closed under it.

    Raises :class:`NotClosedUnderConjugation` naming the first element whose
    conjugate is not in the lattice.
    """
    if not isinstance(lattice, ProjectionLattice):
        raise LatticeMismatch("unitary_automorphism needs a ProjectionLattice")
    if u.dim != lattice.dim:
        raise DimensionMismatch(f"gate dim {u.dim} vs lattice dim {lattice.dim}")
    udag = u.matrix.conj().T
    mapping = np.zeros(len(lattice), dtype=np.intp)
    for i, m in enumerate(lattice.matrices):
        img = udag @ m @ u.matrix
        hits = [j for j, e in enumerate(lattice.matrices)
                if float(np.max(np.abs(img - e))) <= tol]
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


def _as_composite(word) -> LatticeAutomorphism:
    if isinstance(word, LatticeAutomorphism):
        return word
    return compose_automorphisms(list(word))


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
    fu = _as_composite(u)
    fv = _as_composite(v)
    lat = fu.lattice
    if fv.lattice is not lat:
        raise LatticeMismatch("words live on different lattices")
    states = [nu] if isinstance(nu, LatticeState) else list(nu)
    if not states:
        raise ValueError("need at least one state")
    elem_idx: int | None = None
    if element is not None:
        elem_idx = lat.index_of(element) if isinstance(element, str) else int(element)
        if not 0 <= elem_idx < len(lat):
            raise IndexOutOfRange(f"element {element!r} out of range")
    for si, state in enumerate(states):
        if state.lattice is not lat:
            raise LatticeMismatch(f"state {si} lives on a different lattice")
        a = state.values[fu.mapping]
        b = state.values[fv.mapping]
        if elem_idx is not None:
            a = a[elem_idx:elem_idx + 1]
            b = b[elem_idx:elem_idx + 1]
        bad = (np.abs(a - b) > tol) if relation == "generalized_equiv" \
            else (a > b + tol)
        if bad.any():
            w = int(np.argmax(bad))
            widx = elem_idx if elem_idx is not None else w
            return GeneralizedReport(
                relation, False, tol, lhs=float(a[w]), rhs=float(b[w]),
                witness_element=lat.labels[widx],
                witness_state=si if len(states) > 1 else None)
    lhs = rhs = None
    if elem_idx is not None and len(states) == 1:
        lhs = float(states[0].values[fu.mapping][elem_idx])
        rhs = float(states[0].values[fv.mapping][elem_idx])
    return GeneralizedReport(relation, True, tol, lhs=lhs, rhs=rhs)


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
    unless an explicit ``threshold`` overrides all of them.
    """
    lat = nu.lattice
    for mu in family:
        if mu.lattice is not lat:
            raise LatticeMismatch("family state lives on a different lattice")
    nu_cut = threshold if threshold is not None else nu.zero_atol
    for x in range(len(lat)):
        all_zero = all(
            mu.values[x] <= (threshold if threshold is not None else mu.zero_atol)
            for mu in family)
        if all_zero and nu.values[x] > nu_cut:
            return False, lat.labels[x]
    return True, None


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

    The initial state is pushed forward through each generator in time
    order; the result maps each readout element's label to its probability.
    ``readout`` defaults to every element.
    """
    state = scheme.states[scheme.initial]
    for gi in word:
        if not 0 <= gi < len(scheme.generators):
            raise IndexOutOfRange(f"generator index {gi} out of range")
        state = pushforward(scheme.generators[gi], state)
    lat = scheme.lattice
    if readout is None:
        indices = list(range(len(lat)))
    else:
        indices = []
        for r in readout:
            i = lat.index_of(r) if isinstance(r, str) else int(r)
            if not 0 <= i < len(lat):
                raise IndexOutOfRange(f"readout element {r!r} out of range")
            indices.append(i)
    return {lat.labels[i]: float(state.values[i]) for i in indices}


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
        labels = [str(s) for s in obj["elements"]]
        n = len(labels)
        if n > max_elements:
            raise SizeCapExceeded(f"{n} elements exceeds cap {max_elements}")
        pos = {s: i for i, s in enumerate(labels)}
        leq = np.zeros((n, n), dtype=bool)
        for a, ups in obj["leq"].items():
            for b in ups:
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
