import ast
import inspect
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from qclogic import gates, logic, omlattice, qcore
from qclogic.errors import (
    ClosureCapExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    LatticeMismatch,
    NotClosedUnderConjugation,
    SizeCapExceeded,
    ToleranceCollision,
    ValidationFailure,
)
from qclogic.omlattice import (
    INFORMATIONAL_LAWS,
    REQUIRED_LAWS,
    ComputationalScheme,
    FiniteOML,
    LatticeAutomorphism,
    LatticeState,
    atom_indices,
    boolean_oml,
    compose_automorphisms,
    from_order,
    generalized_equiv,
    generalized_leq,
    gleason_state,
    identity_automorphism,
    is_superposition,
    lattice_from_json,
    lattice_to_json,
    mo2_oml,
    permutation_automorphism,
    point_mass_state,
    projection_oml,
    pushforward,
    run_protocol,
    unitary_automorphism,
    verify_laws,
)

P0 = np.diag([1.0, 0.0])
P1 = np.diag([0.0, 1.0])


def quantum_mo2():
    return projection_oml(2, [qcore.Projector(P0), qcore.Projector(helpers.KET_PLUS)])


def test_boolean_oml_sizes_and_laws():
    for n_bits, size in ((0, 2), (1, 4), (2, 16), (3, 256)):
        lat = boolean_oml(n_bits)
        assert len(lat) == size
        assert len(atom_indices(lat)) == 2 ** n_bits
        reports = {r.law: r.holds for r in verify_laws(lat)}
        assert set(reports) == set(REQUIRED_LAWS) | set(INFORMATIONAL_LAWS)
        assert all(reports.values())


def test_boolean_oml_structure():
    lat = boolean_oml(2)
    assert lat.labels[0] == "{}" and lat.labels[-1] == "{00,01,10,11}"
    a = lat.index_of("{00}")
    b = lat.index_of("{01}")
    assert lat.labels[lat.join[a, b]] == "{00,01}"
    assert lat.labels[lat.meet[a, b]] == "{}"
    assert lat.labels[lat.ortho[a]] == "{01,10,11}"
    assert lat.leq[a, lat.join[a, b]] and not lat.leq[lat.join[a, b], a]


def test_boolean_oml_caps():
    with pytest.raises(SizeCapExceeded):
        boolean_oml(4)                        # 65536 elements
    with pytest.raises(SizeCapExceeded):
        boolean_oml(2, max_elements=8)
    with pytest.raises(ValidationFailure):
        boolean_oml(-1)


def test_mo2_fails_distributivity_with_witness():
    lat = mo2_oml()
    assert len(lat) == 6
    by_law = {r.law: r for r in verify_laws(lat)}
    assert all(by_law[law].holds for law in REQUIRED_LAWS)
    dist = by_law["distributive"]
    assert not dist.holds
    assert dist.witness == ("a", "a'", "b")
    # spell the witness out: a ^ (a' v b) = a ^ 1 = a but (a^a') v (a^b) = 0
    a, ap, b = (lat.index_of(s) for s in ("a", "a'", "b"))
    assert lat.meet[a, lat.join[ap, b]] == a
    assert lat.join[lat.meet[a, ap], lat.meet[a, b]] == lat.zero
    assert dist.to_json_dict() == {"law": "distributive", "holds": False,
                                   "witness": ["a", "a'", "b"]}


def test_benzene_ring_is_rejected_as_not_orthomodular():
    labels = ("0", "x", "y", "x'", "y'", "1")
    n = 6
    leq = np.zeros((n, n), dtype=bool)
    np.fill_diagonal(leq, True)
    leq[0, :] = True
    leq[:, 5] = True
    leq[1, 4] = True   # x <= y'
    leq[2, 3] = True   # y <= x'
    ortho = [5, 3, 4, 1, 2, 0]
    with pytest.raises(ValidationFailure) as err:
        from_order(labels, leq, ortho, 0, 5)
    assert err.value.invariant == "orthomodular"


def test_complement_that_keeps_the_order_is_rejected():
    # two chains 0 < a < b < 1 and 0 < c < d < 1, with a <-> c and b <-> d:
    # complements, but a <= b while b' = d is not below a' = c
    labels = ("0", "a", "b", "c", "d", "1")
    leq = np.eye(6, dtype=bool)
    leq[0, :] = leq[:, 5] = True
    leq[1, 2] = leq[3, 4] = True
    with pytest.raises(ValidationFailure) as err:
        from_order(labels, leq, [5, 3, 4, 1, 2, 0], 0, 5)
    assert err.value.invariant == "ortho-order-reversing"
    assert str(err.value).endswith("(witness ('a', 'b'))")


def test_from_order_rejects_missing_bounds():
    # two atoms under two co-atoms: join(x, y) has no least element
    labels = ("0", "x", "y", "p", "q", "1")
    n = 6
    leq = np.zeros((n, n), dtype=bool)
    np.fill_diagonal(leq, True)
    leq[0, :] = True
    leq[:, 5] = True
    for atom in (1, 2):
        for co in (3, 4):
            leq[atom, co] = True
    with pytest.raises(ValidationFailure) as err:
        from_order(labels, leq, [5, 0, 0, 0, 0, 0], 0, 5)
    assert err.value.invariant in ("meet-exists", "join-exists")


def brute_from_order(labels, leq, ortho, zero, one):
    """from_order spelled out from the definition of glb and lub: the
    tables, or the invariant, pair and bound count of the first failure
    (meet row a before join row a)."""
    n = len(labels)
    tables = {"meet": np.zeros((n, n), dtype=np.intp),
              "join": np.zeros((n, n), dtype=np.intp)}
    for a in range(n):
        for kind, table in tables.items():
            for b in range(n):
                if kind == "meet":
                    common = [c for c in range(n) if leq[c][a] and leq[c][b]]
                    best = [c for c in common if all(leq[x][c] for x in common)]
                else:
                    common = [c for c in range(n) if leq[a][c] and leq[b][c]]
                    best = [c for c in common if all(leq[c][x] for x in common)]
                if len(best) != 1:
                    return f"{kind}-exists", f"pair ({labels[a]}, {labels[b]}) has {len(best)} "
                table[a, b] = best[0]
    return FiniteOML(labels, leq, tables["meet"], tables["join"], ortho, zero, one)


def outcome(build):
    """A built lattice's tables, or a failure's invariant and witness text."""
    try:
        lat = build()
    except ValidationFailure as exc:
        return exc.invariant, str(exc).split("(", 1)[1]
    if isinstance(lat, tuple):
        return lat
    return lat.labels, lat.leq.tolist(), lat.meet.tolist(), lat.join.tolist()


@st.composite
def relations(draw):
    """Relations on up to 8 elements: arbitrary, reflexive, preorders, and
    inclusion among subsets of three atoms with set complement as ortho,
    which is often an orthomodular lattice."""
    shape = draw(st.sampled_from(["raw", "reflexive", "preorder", "subsets"]))
    if shape == "subsets":
        masks = draw(st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True))
        if draw(st.booleans()):
            masks = sorted(set(masks) | {7 ^ m for m in masks} | {0, 7})
        m = np.array(masks)
        leq = (m[:, None] & ~m[None, :]) == 0
        ortho = [masks.index(7 ^ x) if 7 ^ x in masks else 0 for x in masks]
        zero, one = int(np.argmin(m)), int(np.argmax(m))
        return tuple(f"s{x}" for x in masks), leq, ortho, zero, one
    n = draw(st.integers(1, 8))
    leq = np.array(draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                                 min_size=n, max_size=n)), dtype=bool)
    if shape != "raw":
        np.fill_diagonal(leq, True)
    if shape == "preorder":
        for k in range(n):
            leq |= leq[:, k:k + 1] & leq[k:k + 1, :]
    ortho = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    zero, one = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    return tuple(f"e{i}" for i in range(n)), leq, ortho, zero, one


@settings(max_examples=300, deadline=None)
@given(relations())
def test_from_order_matches_definition_on_any_relation(args):
    got = outcome(lambda: from_order(*args))
    want = outcome(lambda: brute_from_order(*args))
    if want[0] in ("meet-exists", "join-exists"):
        assert got[0] == want[0] and got[1].startswith(want[1])
    else:
        assert got == want


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(["boolean1", "boolean2", "mo2"]), st.randoms(use_true_random=False))
def test_from_order_matches_definition_on_relabelled_lattices(name, rnd):
    lat = {"boolean1": boolean_oml(1), "boolean2": boolean_oml(2), "mo2": mo2_oml()}[name]
    perm = list(range(len(lat)))
    rnd.shuffle(perm)
    back = np.argsort(perm)                      # new index -> old index
    leq = lat.leq[np.ix_(back, back)]
    ortho = np.asarray(perm)[lat.ortho[back]]
    args = (tuple(lat.labels[i] for i in back), leq, ortho, perm[lat.zero], perm[lat.one])
    built = from_order(*args)
    assert outcome(lambda: built) == outcome(lambda: brute_from_order(*args))
    assert np.array_equal(built.meet, np.asarray(perm)[lat.meet[np.ix_(back, back)]])


def test_verify_laws_equals_a_fresh_battery():
    lattices = [boolean_oml(k) for k in range(4)] + [mo2_oml(), quantum_mo2(),
        projection_oml(4, [qcore.Projector(np.diag([1.0, 1.0, 0.0, 0.0])),
                           qcore.Projector(np.diag([1.0, 0.0, 1.0, 0.0]))])]
    for lat in lattices:
        fresh = helpers.law_battery(lat.labels, lat.leq, lat.meet, lat.join, lat.ortho,
                                    lat.zero, lat.one)
        assert verify_laws(lat) == fresh
        assert verify_laws(lat)[:len(REQUIRED_LAWS)] == fresh[:-1]


def battery_outcome(labels, leq, meet, join, ortho, zero, one):
    """What the constructor must do with these tables, by the full battery:
    the message of the first required law that fails, or every report."""
    reports = helpers.law_battery(labels, leq, meet, join, ortho, zero, one)
    for rep in reports[:len(REQUIRED_LAWS)]:
        if not rep.holds:
            return str(ValidationFailure(rep.law, 1.0, f"witness {rep.witness}"))
    return reports


def construction_outcome(labels, leq, meet, join, ortho, zero, one):
    try:
        lat = FiniteOML(labels, leq, meet, join, ortho, zero, one)
    except ValidationFailure as exc:
        return str(exc)
    return verify_laws(lat)


@st.composite
def corrupted_tables(draw):
    """One to three entries of one table of a small lattice changed."""
    lat = draw(st.sampled_from([lambda: boolean_oml(1), lambda: boolean_oml(2),
                                mo2_oml, quantum_mo2]))()
    n = len(lat)
    tables = {key: np.array(getattr(lat, key)) for key in ("leq", "meet", "join", "ortho")}
    t = tables[draw(st.sampled_from(sorted(tables)))]
    for _ in range(draw(st.integers(1, 3))):
        at = tuple(draw(st.integers(0, k - 1)) for k in t.shape)
        t[at] = (not t[at]) if t.dtype == bool else draw(st.integers(0, n - 1))
    return (lat.labels, tables["leq"], tables["meet"], tables["join"], tables["ortho"],
            lat.zero, lat.one)


@st.composite
def arbitrary_tables(draw):
    n = draw(st.integers(1, 8))
    cells = st.integers(0, n - 1)
    leq = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        np.fill_diagonal(leq, True)
    meet, join = (np.array(draw(st.lists(cells, min_size=n * n, max_size=n * n))).reshape(n, n)
                  for _ in range(2))
    ortho = np.array(draw(st.lists(cells, min_size=n, max_size=n)))
    return (tuple(str(k) for k in range(n)), leq, meet, join, ortho,
            draw(cells), draw(cells))


@st.composite
def complemented_families(draw):
    """Families of subsets of four atoms closed under complement, ordered by
    inclusion: often lattices, and among them non-orthomodular ones such as
    the benzene ring.  Half of them pair the elements up at random instead
    of by complement."""
    masks = draw(st.lists(st.integers(0, 15), min_size=1, max_size=4, unique=True))
    masks = sorted(set(masks) | {15 ^ m for m in masks} | {0, 15})
    m = np.array(masks)
    leq = (m[:, None] & ~m[None, :]) == 0
    ortho = [masks.index(15 ^ x) for x in masks]
    if draw(st.booleans()):                    # some other involution
        perm = draw(st.permutations(range(len(masks))))
        for x, y in zip(perm[::2], perm[1::2]):
            ortho[x], ortho[y] = y, x
    return tuple(f"s{x}" for x in masks), leq, ortho, 0, len(masks) - 1


@st.composite
def order_tables(draw):
    """Meet and join read off a relation, as the first greatest lower and
    least upper bound (or element 0 where there is none), so that the
    orthocomplement laws and orthomodularity are reached too."""
    labels, leq, ortho, zero, one = draw(st.one_of(relations(), complemented_families()))
    n = len(labels)
    meet = np.zeros((n, n), dtype=np.intp)
    join = np.zeros((n, n), dtype=np.intp)
    for a in range(n):
        for b in range(n):
            lower = [c for c in range(n) if leq[c, a] and leq[c, b]]
            upper = [c for c in range(n) if leq[a, c] and leq[b, c]]
            glb = [c for c in lower if all(leq[x, c] for x in lower)]
            lub = [c for c in upper if all(leq[c, x] for x in upper)]
            meet[a, b] = glb[0] if glb else 0
            join[a, b] = lub[0] if lub else 0
    return labels, leq, meet, join, np.array(ortho), zero, one


@settings(max_examples=300, deadline=None)
@given(st.one_of(corrupted_tables(), arbitrary_tables(), order_tables()))
def test_construction_agrees_with_the_full_battery(tables):
    assert construction_outcome(*tables) == battery_outcome(*tables)


# (lattice, corrupted table, seed) -> the law the constructor names, and its witness
CORRUPTIONS = {
    ("boolean2", "leq", 0): ("transitive", ("{00}", "{00,10,11}", "{01,11}")),
    ("boolean2", "leq", 2): ("antisymmetric", ("{10}", "{00,10,11}")),
    ("boolean2", "meet", 0): ("meet-is-glb", ("{00,10,11}", "{01,11}", "{11}")),
    ("boolean2", "meet", 1): ("meet-is-glb", ("{00,01,10}", "{11}", "{}")),
    ("boolean2", "join", 0): ("join-is-lub", ("{00,10,11}", "{01,11}", "{}")),
    ("boolean2", "join", 2): ("join-is-lub", ("{00,10,11}", "{10}", "{00,10,11}")),
    ("boolean2", "ortho", 1): ("ortho-involution", ("{00,01,10}",)),
    ("mo2", "leq", 0): ("antisymmetric", ("b", "1")),
    ("mo2", "leq", 1): ("meet-is-glb", ("a'", "b", "a'")),
    ("mo2", "meet", 0): ("meet-is-glb", ("1", "b", "b")),
    ("mo2", "meet", 1): ("meet-is-glb", ("a'", "b", "0")),
    ("mo2", "join", 0): ("join-is-lub", ("1", "b", "0")),
    ("mo2", "join", 2): ("join-is-lub", ("1", "a", "0")),
    ("mo2", "ortho", 1): ("ortho-involution", ("a",)),
}


def test_seeded_corruptions_name_the_failing_law():
    for (name, table, seed), (law, witness) in CORRUPTIONS.items():
        lat = {"boolean2": boolean_oml(2), "mo2": mo2_oml()}[name]
        rng = np.random.default_rng(seed)
        tables = {key: np.array(getattr(lat, key)) for key in ("leq", "meet", "join", "ortho")}
        t = tables[table]
        at = tuple(int(rng.integers(k)) for k in t.shape)
        if table == "leq":
            t[at] = not t[at]
        else:
            t[at] = (t[at] + 1 + int(rng.integers(len(lat) - 1))) % len(lat)
        with pytest.raises(ValidationFailure) as err:
            FiniteOML(lat.labels, tables["leq"], tables["meet"], tables["join"],
                      tables["ortho"], lat.zero, lat.one)
        assert err.value.invariant == law
        assert str(err.value).endswith(f"(witness {witness})")


def mo_tables(k: int):
    """The tables of MO_k: k pairs of complementary atoms under common
    bounds, 2k + 2 elements.  MO_1 is the four-element Boolean lattice."""
    n = 2 * k + 2
    idx = np.arange(n)
    leq = np.eye(n, dtype=bool)
    leq[0, :] = leq[:, -1] = True
    meet = np.where(leq, idx[:, None], np.where(leq.T, idx[None, :], 0))
    join = np.where(leq, idx[None, :], np.where(leq.T, idx[:, None], n - 1))
    ortho = np.array([n - 1] + [i + 1 if i % 2 else i - 1 for i in range(1, n - 1)] + [0])
    labels = ("0",) + tuple(f"a{i // 2}" + "'" * (i % 2) for i in range(2 * k)) + ("1",)
    return labels, leq, meet, join, ortho, 0, n - 1


def product_tables(x, y):
    """The product of two lattices given by tables, ordered componentwise."""
    ny = len(y[0])
    i, j = np.divmod(np.arange(len(x[0]) * ny), ny)
    labels = tuple(f"({x[0][a]},{y[0][b]})" for a, b in zip(i, j))
    leq = x[1][np.ix_(i, i)] & y[1][np.ix_(j, j)]
    meet, join = (x[k][np.ix_(i, i)] * ny + y[k][np.ix_(j, j)] for k in (2, 3))
    return (labels, leq, meet, join, x[4][i] * ny + y[4][j],
            x[5] * ny + y[5], x[6] * ny + y[6])


def lattice_tables(lat):
    return (lat.labels, np.array(lat.leq), np.array(lat.meet), np.array(lat.join),
            np.array(lat.ortho), lat.zero, lat.one)


@st.composite
def larger_lattices(draw):
    """Orthomodular lattices of up to 16 elements, relabelled: boolean_oml(2),
    MO_k for k <= 7 and B_1 x MO_2, where B_1 has two elements."""
    name = draw(st.sampled_from(["boolean2", "mo", "b1xmo2"]))
    if name == "boolean2":
        tables = lattice_tables(boolean_oml(2))
    elif name == "mo":
        tables = mo_tables(draw(st.integers(1, 7)))
    else:
        tables = product_tables(lattice_tables(boolean_oml(0)), mo_tables(2))
    return relabel(tables, draw(st.permutations(range(len(tables[0])))))


def relabel(tables, perm):
    """The same lattice with element i moved to index perm[i]."""
    labels, leq, meet, join, ortho, zero, one = tables
    perm = np.asarray(perm)
    back = np.argsort(perm)
    return (tuple(labels[i] for i in back), leq[np.ix_(back, back)],
            perm[meet[np.ix_(back, back)]], perm[join[np.ix_(back, back)]],
            perm[ortho[back]], int(perm[zero]), int(perm[one]))


@st.composite
def larger_tables(draw):
    """A larger lattice, valid or with one to three entries of one table
    changed."""
    tables = list(draw(larger_lattices()))
    n = len(tables[0])
    if draw(st.booleans()):
        k = draw(st.sampled_from([1, 2, 3, 4]))
        for _ in range(draw(st.integers(1, 3))):
            at = tuple(draw(st.integers(0, size - 1)) for size in tables[k].shape)
            tables[k][at] = (not tables[k][at]) if k == 1 else draw(st.integers(0, n - 1))
    return tuple(tables)


@settings(max_examples=150, deadline=None)
@given(larger_tables())
def test_construction_and_distributivity_agree_with_the_battery_up_to_16_elements(tables):
    assert construction_outcome(*tables) == battery_outcome(*tables)


def test_witnesses_past_16_elements_agree_with_the_battery():
    # boolean_oml(3), 256 elements, element index = subset mask: a meet
    # claimed outside the common down-set (witness c = 0, the empty set) or
    # a common lower bound other than the greatest (c the first common bound
    # outside its set), and the same for joins with up-sets
    rng = np.random.default_rng(20)
    masks = np.arange(256)
    shapes = set()
    for table in ("meet", "join"):
        for _ in range(6):
            labels, leq, meet, join, ortho, zero, one = lattice_tables(boolean_oml(3))
            a, b = (int(x) for x in rng.integers(1, 255, size=2))
            extreme, common = ((a & b, (masks & ~(a & b)) == 0) if table == "meet"
                               else (a | b, ((a | b) & ~masks) == 0))
            t = int(rng.choice(masks[common]) if rng.integers(2) else rng.integers(256))
            if t == extreme:
                continue
            (meet if table == "meet" else join)[a, b] = t
            tables = (labels, leq, meet, join, ortho, zero, one)
            message = construction_outcome(*tables)
            assert message == battery_outcome(*tables)
            assert message.startswith(f"invariant '{table}-is-")
            assert message.endswith(f"(witness {(labels[a], labels[b], '{}')})") != common[t]
            shapes.add(bool(common[t]))
    assert shapes == {True, False}

    # B_2 x MO_2, 96 elements, with its 32 compatible elements (those whose
    # MO_2 part, index % 6, is 0 or 1) first, so that the first
    # counterexample starts at index 32
    tables = product_tables(lattice_tables(boolean_oml(2)), mo_tables(2))
    incompatible = np.arange(96) % 6 % 5 != 0
    order = np.concatenate([rng.permutation(np.flatnonzero(~incompatible)),
                            rng.permutation(np.flatnonzero(incompatible))])
    tables = relabel(tables, np.argsort(order))
    reports = construction_outcome(*tables)
    assert reports == battery_outcome(*tables)
    assert not reports[-1].holds and tables[0].index(reports[-1].witness[0]) == 32


@st.composite
def larger_relations(draw):
    """The order of a larger lattice as it is, closed again after one to
    three pairs are added (a preorder, often with equal down-sets), or with
    one to three entries flipped and not closed (often not transitive)."""
    labels, leq, _, _, ortho, zero, one = draw(larger_lattices())
    shape = draw(st.sampled_from(["order", "preorder", "flipped"]))
    n = len(labels)
    if shape != "order":
        for _ in range(draw(st.integers(1, 3))):
            a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            leq[a, b] = shape == "preorder" or not leq[a, b]
    if shape == "preorder":
        for k in range(n):
            leq |= leq[:, k:k + 1] & leq[k:k + 1, :]
    return labels, leq, ortho, zero, one


@settings(max_examples=60, deadline=None)
@given(larger_relations())
def test_from_order_matches_definition_up_to_16_elements(args):
    got = outcome(lambda: from_order(*args))
    want = outcome(lambda: brute_from_order(*args))
    if want[0] in ("meet-exists", "join-exists"):
        assert got[0] == want[0] and got[1].startswith(want[1])
    else:
        assert got == want


def shuffled_boolean_payload(seed: int, atoms: int) -> dict:
    """Lattice JSON for the subsets of ``atoms`` atoms, elements shuffled and
    ``leq`` given as covering pairs only, as the benchmark's lattices
    workload builds it."""
    full = 2 ** atoms - 1
    label = lambda m: "{" + ",".join(f"a{k}" for k in range(atoms) if m >> k & 1) + "}"
    order = np.random.default_rng(seed).permutation(full + 1).tolist()
    return {"elements": [label(m) for m in order],
            "leq": {label(m): [label(m | 1 << k) for k in range(atoms) if not m >> k & 1]
                    for m in order},
            "ortho": {label(m): label(full ^ m) for m in order},
            "zero": label(0), "one": label(full)}


def boolean_tables(atoms: int):
    masks = np.arange(2 ** atoms)
    return (tuple(str(m) for m in masks), (masks[:, None] & ~masks[None, :]) == 0,
            masks[:, None] & masks[None, :], masks[:, None] | masks[None, :],
            masks ^ masks[-1], 0, len(masks) - 1)


def test_fallback_scans_run_only_where_a_fast_check_fails(monkeypatch):
    # _bounds_by_definition is from_order's definition scan, entered only
    # for rows the fingerprint lookup missed
    scanned = []
    real = omlattice._bounds_by_definition

    def counted(*args):
        scanned.append(args[1])
        return real(*args)

    monkeypatch.setattr(omlattice, "_bounds_by_definition", counted)
    labels, leq, meet, join, ortho, zero, one = boolean_tables(10)
    for build in (lambda: boolean_oml(3),
                  lambda: lattice_from_json(shuffled_boolean_payload(5, 8)),
                  lambda: FiniteOML(labels, leq, meet, join, ortho, zero, one),
                  lambda: from_order(labels, leq, ortho, zero, one, max_elements=1024),
                  mo2_oml):
        verify_laws(build())
        assert scanned == []

    # two atoms under two co-atoms: the atoms have no join
    leq = np.eye(6, dtype=bool)
    leq[0, :] = leq[:, 5] = True
    leq[1:3, 3:5] = True
    with pytest.raises(ValidationFailure, match="join-exists"):
        from_order(tuple("0xypq1"), leq, [5, 0, 0, 0, 0, 0], 0, 5)
    assert scanned == ["join"]


@settings(max_examples=150, deadline=None)
@given(st.one_of(relations(), larger_relations()))
def test_from_order_matches_definition_when_fingerprints_collide(args):
    # unit weights make every fingerprint a count, so elements with down-sets
    # of one size collide; the exact check must send those pairs to the
    # definition scan
    want = outcome(lambda: brute_from_order(*args))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(omlattice, "_fingerprint_weights", lambda n: np.ones(n))
        got = outcome(lambda: from_order(*args))
    if want[0] in ("meet-exists", "join-exists"):
        assert got[0] == want[0] and got[1].startswith(want[1])
    else:
        assert got == want


def test_colliding_fingerprints_enter_the_definition_scan(monkeypatch):
    scanned = []
    real = omlattice._bounds_by_definition

    def counted(labels, kind, a, *args):
        scanned.append((kind, int(a)))
        return real(labels, kind, a, *args)

    monkeypatch.setattr(omlattice, "_bounds_by_definition", counted)
    labels, leq, meet, join, ortho, zero, one = boolean_tables(3)
    assert np.array_equal(from_order(labels, leq, ortho, zero, one).meet, meet)
    assert scanned == []
    monkeypatch.setattr(omlattice, "_fingerprint_weights", lambda n: np.ones(n))
    lat = from_order(labels, leq, ortho, zero, one)
    assert np.array_equal(lat.meet, meet) and np.array_equal(lat.join, join)
    # by count alone, {0,1} ^ {1,2} = {1} is looked up as {0}, the first
    # element whose down-set holds two elements, and {0} v {2} = {0,2} as
    # {0,1}; the check refuses both, and the rows are derived again
    assert ("meet", 3) in scanned and ("join", 1) in scanned


@pytest.mark.parametrize("n", [1, 2, 6, 16, 255, 256, 512, 1024])
def test_fingerprint_weights_equal_scalar_splitmix64(n):
    got = omlattice._fingerprint_weights(n)
    assert got.dtype == np.float64 and np.array_equal(got, helpers.splitmix64_weights(n))
    # odd and below 2**53 / n, so any n of them sum exactly
    assert (got % 2 == 1).all() and got.max() * n < 2.0 ** 53


def test_from_order_at_the_hard_cap_peaks_no_higher_than_the_lookup_by_keys():
    # 61,388,286 bytes with one searchsorted per row over byte-string keys
    # (numpy 2.4.6); the fingerprint blocks stay under the law checks' peak
    labels, leq, _, _, ortho, zero, one = boolean_tables(10)
    assert _peak_bytes(lambda: from_order(labels, leq, ortho, zero, one,
                                          max_elements=1024)) <= 61_388_286


def test_finite_oml_at_the_hard_cap_peaks_no_higher_than_the_bitset_checks():
    # 43,223,088 bytes when meet-is-glb and join-is-lub were decided on
    # uint64 bitsets of the down-sets and up-sets (numpy 2.4.6)
    labels, leq, meet, join, ortho, zero, one = boolean_tables(10)
    assert _peak_bytes(lambda: FiniteOML(labels, leq, meet, join, ortho,
                                         zero, one)) <= 43_223_088


def test_finite_oml_rejects_corrupted_tables():
    good = boolean_oml(1)
    meet = np.array(good.meet)
    meet[1, 2] = 3                             # {0} ^ {1} claimed to be 1
    with pytest.raises(ValidationFailure):
        FiniteOML(good.labels, good.leq, meet, good.join, good.ortho, 0, 3)
    ortho = np.array(good.ortho)
    ortho[1] = 1                               # self-orthogonal atom
    with pytest.raises(ValidationFailure):
        FiniteOML(good.labels, good.leq, good.meet, good.join, ortho, 0, 3)
    with pytest.raises(ValidationFailure):
        FiniteOML(("a", "a"), np.eye(2, dtype=bool), np.zeros((2, 2), int),
                  np.zeros((2, 2), int), [1, 0], 0, 1)


def test_projection_oml_single_projector_is_boolean():
    lat = projection_oml(2, [qcore.Projector(P0)])
    assert len(lat) == 4
    assert isinstance(lat, omlattice.ProjectionLattice) and lat.dim == 2
    reports = {r.law: r.holds for r in verify_laws(lat)}
    assert all(reports.values())               # including distributive
    mats = [np.asarray(m) for m in lat.matrices]
    assert any(np.allclose(m, P0) for m in mats)
    assert any(np.allclose(m, P1) for m in mats)
    p = lat.projector(lat.one)
    assert np.allclose(p.matrix, np.eye(2))


def test_projection_oml_two_tilted_lines_give_mo2_shape():
    lat = quantum_mo2()
    assert len(lat) == 6
    by_law = {r.law: r for r in verify_laws(lat)}
    assert all(by_law[law].holds for law in REQUIRED_LAWS)
    assert not by_law["distributive"].holds
    # atoms are the four rank-one lines |0>, |1>, |+>, |->
    atoms = atom_indices(lat)
    assert len(atoms) == 4
    for i in atoms:
        assert np.trace(lat.matrices[i]).real == pytest.approx(1.0, abs=1e-9)
    # any two distinct lines meet at 0 and join to the whole plane
    a, b = atoms[0], atoms[1]
    assert lat.meet[a, b] == lat.zero and lat.join[a, b] == lat.one


def test_projection_oml_commuting_family_recovers_subset_algebra():
    e = [qcore.Projector(np.diag([1.0, 1.0, 0.0, 0.0])),
         qcore.Projector(np.diag([1.0, 0.0, 1.0, 0.0]))]
    lat = projection_oml(4, e)
    assert len(lat) == 16
    assert all(r.holds for r in verify_laws(lat))
    # every element is diagonal: the family generates a subset algebra
    for m in lat.matrices:
        assert np.max(np.abs(m - np.diag(np.diagonal(m)))) < 1e-9


def test_projection_oml_rotated_basis_closes_to_all_subsets():
    # closure elements carry rounding error from earlier meets, so the
    # null-space rank cutoff must not drop a dimension (2**5 elements)
    u = helpers.random_unitary(helpers.rng(0), 5)
    fam = [qcore.Projector(np.outer(u[:, k], u[:, k].conj())) for k in range(5)]
    lat = projection_oml(5, fam)
    assert len(lat) == 32
    ranks = sorted(round(np.trace(m).real) for m in lat.matrices)
    assert ranks == sorted(bin(mask).count("1") for mask in range(32))


def test_projection_oml_honours_tol_in_meets_and_joins():
    # the line lies 1e-11 out of the plane: under it at tol, so their meet
    # must be the line itself and not 0
    plane = np.diag([1.0, 1.0, 0.0])
    v = np.array([1.0, 0.0, 1e-11]) / np.linalg.norm([1.0, 0.0, 1e-11])
    line = np.outer(v, v)
    lat = projection_oml(3, [qcore.Projector(plane), qcore.Projector(line)], tol=1e-9)
    assert all(r.holds for r in verify_laws(lat)[:len(REQUIRED_LAWS)])
    gaps = lambda m: [np.max(np.abs(e - m)) for e in lat.matrices]
    i = int(np.argmin(gaps(line)))
    j = int(np.argmin(gaps(plane)))
    assert lat.leq[i, j]
    assert np.max(np.abs(lat.matrices[lat.meet[i, j]] - line)) <= 1e-9
    assert lat.join[i, j] == j


def test_projection_oml_caps_and_collisions():
    with pytest.raises(ClosureCapExceeded):
        projection_oml(2, [qcore.Projector(P0),
                           qcore.Projector(helpers.KET_PLUS)], max_elements=4)
    theta = 3e-9
    c, s = np.cos(theta), np.sin(theta)
    tilted = np.array([[c * c, c * s], [c * s, s * s]])
    with pytest.raises(ToleranceCollision):
        projection_oml(2, [qcore.Projector(P0), qcore.Projector(tilted)])
    with pytest.raises(DimensionMismatch):
        projection_oml(4, [qcore.Projector(P0)])


def _projector_family(kind: str, gen: np.random.Generator) -> tuple[int, list]:
    if kind.startswith("basis"):
        dim = int(kind[-1])
        u = helpers.random_unitary(gen, dim)
        return dim, [np.outer(u[:, k], u[:, k].conj()) for k in range(dim)]
    if kind.startswith("lines"):
        dim = int(kind[-1])
        return dim, [helpers.random_pure(gen, dim), helpers.random_pure(gen, dim)]
    return 4, [helpers.random_projector(gen, 4, rank=2), helpers.random_pure(gen, 4)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["basis2", "basis3", "basis4", "basis5", "lines2", "lines3",
                        "plane-line4"]),
       st.integers(0, 2 ** 32 - 1))
def test_projection_oml_joins_and_order_match_the_numeric_oracles(kind, seed):
    # joins are read off the meets by De Morgan and the order off the meet
    # table; both must agree with computing them numerically on their own
    tol = 1e-9
    dim, family = _projector_family(kind, helpers.rng(seed))
    lat = projection_oml(dim, [qcore.Projector(m) for m in family], tol=tol)
    mats = lat.matrices
    for a in range(len(lat)):
        for b in range(len(lat)):
            want = helpers.proj_join(mats[a], mats[b], tol)
            assert np.abs(mats[lat.join[a, b]] - want).max() <= tol
    assert np.array_equal(lat.leq, helpers.proj_leq(mats, tol))


def test_projection_oml_takes_one_null_space_per_pair(monkeypatch):
    # a closure of n elements pairs each element with itself and every later
    # one once: n (n + 1) / 2 meets, and no second decomposition for joins;
    # the pairs go to null_space in stacks, so count the matrices
    decomposed = []
    real = omlattice.null_space

    def counting(a, *args, **kwargs):
        decomposed.append(len(a) if np.ndim(a) == 3 else 1)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(omlattice, "null_space", counting)
    u = helpers.random_unitary(helpers.rng(0), 5)
    lat = projection_oml(5, [qcore.Projector(np.outer(u[:, k], u[:, k].conj()))
                             for k in range(5)])
    assert len(lat) == 32
    assert sum(decomposed) == 32 * 33 // 2 == 528
    assert len(decomposed) < 528


@pytest.mark.parametrize("kind", ["basis4", "lines3", "plane-line4"])
def test_projection_oml_in_chunks_equals_pair_by_pair(kind, monkeypatch):
    # the same tables, matrices and exceptions, bit for bit, whether a
    # round's pairs go to null_space together or one at a time
    dim, family = _projector_family(kind, helpers.rng(7))
    projectors = [qcore.Projector(m) for m in family]

    def build(**kwargs):
        try:
            lat = projection_oml(dim, projectors, **kwargs)
        except (ClosureCapExceeded, ToleranceCollision) as exc:
            return type(exc), str(exc)
        return lat.labels, lat.meet.tobytes(), [m.tobytes() for m in lat.matrices]

    for kwargs in ({}, {"max_elements": 5}, {"tol": 0.2}):
        chunked = build(**kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(omlattice, "_SVD_CHUNK_BYTES", 1)
            assert build(**kwargs) == chunked


def _peak_bytes(build) -> int:
    """tracemalloc's peak over a second call of ``build``, after a first
    one has warmed every cache."""
    build()
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_projection_oml_at_d6_peaks_no_higher_than_pair_by_pair():
    # 460,327 bytes when each meet took a null_space call of its own
    # (numpy 2.4.6); the chunks of stacked pairs stay within that
    u = helpers.random_unitary(helpers.rng(0), 6)
    family = [qcore.Projector(np.outer(u[:, k], u[:, k].conj())) for k in range(6)]
    assert _peak_bytes(lambda: projection_oml(6, family)) <= 460_327


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_projection_oml_refuses_a_negative_or_nan_tolerance(tol):
    # at the parent, both raised ClosureCapExceeded: no candidate matched
    with pytest.raises(ValidationFailure) as err:
        projection_oml(2, [qcore.Projector(P0)], tol=tol)
    assert err.value.invariant == "tolerance"


def test_projection_oml_is_deterministic():
    a = quantum_mo2()
    b = quantum_mo2()
    assert a.labels == b.labels
    for m, w in zip(a.matrices, b.matrices):
        assert np.array_equal(m, w)


def test_lattice_state_validation():
    lat = boolean_oml(1)
    ok = LatticeState(lat, [0.0, 0.5, 0.5, 1.0])
    assert ok.value("{0}") == 0.5
    with pytest.raises(ValidationFailure) as err:
        LatticeState(lat, [0.0, 0.5, 0.6, 1.0])
    assert err.value.invariant == "additive"
    assert "{0}" in str(err.value) and "{1}" in str(err.value)
    with pytest.raises(ValidationFailure) as err:
        LatticeState(lat, [0.2, 0.5, 0.5, 1.0])
    assert err.value.invariant == "state-at-zero"
    with pytest.raises(ValidationFailure) as err:
        LatticeState(lat, [0.0, 0.5, 0.5, 0.7])
    assert err.value.invariant == "state-at-one"
    with pytest.raises(ValidationFailure):
        LatticeState(lat, [0.0, -0.5, 1.5, 1.0])
    with pytest.raises(ValidationFailure):
        LatticeState(lat, [0.0, 1.0])


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
@pytest.mark.parametrize("field", ["tolerance", "zero_atol"])
def test_lattice_state_refuses_a_negative_or_nan_threshold(field, tol):
    with pytest.raises(ValidationFailure) as err:
        LatticeState(boolean_oml(1), [0.0, 0.5, 0.5, 1.0], **{field: tol})
    assert err.value.invariant == "tolerance"


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_lattice_state_refuses_non_finite_values(bad):
    # every range, bound and additivity comparison with NaN is false, so
    # only an explicit finiteness check refuses this state
    with pytest.raises(ValidationFailure) as err:
        LatticeState(boolean_oml(1), [0.0, bad, bad, 1.0])
    assert err.value.invariant == "finite"


def test_point_mass_on_boolean_is_membership():
    lat = boolean_oml(2)
    atom = lat.index_of("{10}")
    nu = point_mass_state(lat, atom)
    for i, label in enumerate(lat.labels):
        assert nu.values[i] == (1.0 if "10" in label else 0.0)
    with pytest.raises(IndexOutOfRange):
        point_mass_state(lat, 99)


def test_point_mass_on_mo2_is_rejected():
    # the formal face of "no dispersion-free states" on MO2
    lat = mo2_oml()
    with pytest.raises(ValidationFailure) as err:
        point_mass_state(lat, lat.index_of("a"))
    assert err.value.invariant == "additive"


def test_gleason_state_values():
    lat = projection_oml(2, [qcore.Projector(P0)])
    nu = gleason_state(qcore.DensityOperator(helpers.KET_PLUS), lat)
    assert nu.values[lat.zero] == 0.0 and nu.values[lat.one] == 1.0
    for i in atom_indices(lat):
        assert nu.values[i] == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(LatticeMismatch):
        gleason_state(qcore.DensityOperator(helpers.KET_PLUS), boolean_oml(1))
    with pytest.raises(DimensionMismatch):
        gleason_state(qcore.DensityOperator(np.eye(4) / 4), lat)


def test_automorphism_validation():
    lat = mo2_oml()
    with pytest.raises(ValidationFailure) as err:
        omlattice.LatticeAutomorphism(lat, [0, 3, 2, 1, 4, 5])
    assert err.value.invariant == "ortho-homomorphism"
    with pytest.raises(ValidationFailure):
        omlattice.LatticeAutomorphism(lat, [0, 1, 1, 3, 4, 5])
    with pytest.raises(ValidationFailure):
        omlattice.LatticeAutomorphism(lat, [5, 1, 2, 3, 4, 0])
    # swapping the whole pair a <-> a' is fine
    auto = omlattice.LatticeAutomorphism(lat, [0, 2, 1, 3, 4, 5])
    assert auto.mapping[1] == 2


def test_permutation_automorphism_moves_point_masses():
    lat = boolean_oml(2)
    perm = [1, 2, 3, 0]
    auto = permutation_automorphism(lat, perm)
    atoms = atom_indices(lat)
    for k in range(4):
        nu = point_mass_state(lat, atoms[k])
        moved = pushforward(auto, nu)
        want = point_mass_state(lat, atoms[perm[k]])
        assert np.array_equal(moved.values, want.values)
    with pytest.raises(LatticeMismatch):
        permutation_automorphism(mo2_oml(), [0, 1])
    with pytest.raises(ValidationFailure):
        permutation_automorphism(lat, [0, 0, 1, 2])


def test_compose_automorphisms_time_order():
    lat = boolean_oml(2)
    g = permutation_automorphism(lat, [1, 0, 2, 3])
    h = permutation_automorphism(lat, [0, 2, 1, 3])
    combined = compose_automorphisms([g, h])
    nu = point_mass_state(lat, atom_indices(lat)[0])
    stepwise = pushforward(h, pushforward(g, nu))
    assert np.array_equal(pushforward(combined, nu).values, stepwise.values)
    ident = compose_automorphisms([g, g])
    assert np.array_equal(ident.mapping, identity_automorphism(lat).mapping)
    with pytest.raises(ValueError):
        compose_automorphisms([])
    with pytest.raises(LatticeMismatch):
        compose_automorphisms([g, identity_automorphism(boolean_oml(2))])


def test_unitary_automorphism_conjugation_convention():
    lat = quantum_mo2()
    x = qcore.UnitaryGate(helpers.PAULI_X)
    auto = unitary_automorphism(x, lat)
    rho = helpers.random_density(helpers.rng(11), 2)
    before = gleason_state(qcore.DensityOperator(rho), lat)
    after = gleason_state(
        qcore.DensityOperator(helpers.PAULI_X @ rho @ helpers.PAULI_X), lat)
    pushed = pushforward(auto, before)
    assert np.max(np.abs(pushed.values - after.values)) < 1e-12
    # X fixes |+><+| and swaps the computational lines
    for i, m in enumerate(lat.matrices):
        img = helpers.PAULI_X @ m @ helpers.PAULI_X
        assert np.allclose(lat.matrices[auto.mapping[i]], img)


def test_unitary_automorphism_requires_closure():
    lat = quantum_mo2()
    t = qcore.UnitaryGate(np.diag([1.0, np.exp(1j * np.pi / 4)]))
    with pytest.raises(NotClosedUnderConjugation):
        unitary_automorphism(t, lat)
    with pytest.raises(DimensionMismatch):
        unitary_automorphism(qcore.UnitaryGate(np.eye(4)), lat)
    with pytest.raises(LatticeMismatch):
        unitary_automorphism(qcore.UnitaryGate(np.eye(2)), mo2_oml())


def _automorphism_by_scan(u, lattice, tol):
    """The mapping found by comparing each conjugate with every element."""
    mapping = []
    for i, m in enumerate(lattice.matrices):
        img = u.conj().T @ m @ u
        hits = [j for j, e in enumerate(lattice.matrices)
                if float(np.max(np.abs(img - e))) <= tol]
        if len(hits) != 1:
            return f"conjugate of {lattice.labels[i]} matches elements {hits}"
        mapping.append(hits[0])
    return mapping


def test_unitary_automorphism_equals_the_scan():
    basis = [qcore.Projector(np.diag(np.eye(5)[k])) for k in range(5)]
    lat = projection_oml(5, basis)
    perm = gates.permutation_gate([3, 0, 4, 1, 2])
    auto = unitary_automorphism(perm, lat)
    assert auto.mapping.tolist() == _automorphism_by_scan(perm.matrix, lat, 1e-9)
    assert sorted(auto.mapping.tolist()) == list(range(32))
    # at tol 2 every element is within tol of every conjugate
    want = _automorphism_by_scan(helpers.PAULI_X, quantum_mo2(), 2.0)
    with pytest.raises(ToleranceCollision) as err:
        unitary_automorphism(qcore.UnitaryGate(helpers.PAULI_X), quantum_mo2(), tol=2.0)
    assert str(err.value) == want


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_unitary_automorphism_refuses_a_negative_or_nan_tolerance(tol):
    with pytest.raises(ValidationFailure) as err:
        unitary_automorphism(qcore.UnitaryGate(helpers.PAULI_X), quantum_mo2(), tol=tol)
    assert err.value.invariant == "tolerance"


def test_pushforward_requires_same_lattice():
    lat = boolean_oml(1)
    other = boolean_oml(1)
    nu = point_mass_state(lat, 1)
    with pytest.raises(LatticeMismatch):
        pushforward(identity_automorphism(other), nu)


def test_generalized_equiv_and_leq():
    lat = quantum_mo2()
    h = unitary_automorphism(qcore.UnitaryGate(helpers.HADAMARD), lat)
    x = unitary_automorphism(qcore.UnitaryGate(helpers.PAULI_X), lat)
    ident = identity_automorphism(lat)
    nu = gleason_state(qcore.DensityOperator(P0), lat)

    rep = generalized_equiv([h, h], ident, nu)
    assert rep.holds
    rep = generalized_equiv(h, ident, nu)
    assert not rep.holds and rep.witness_element is not None
    # X fixes the |0><0| Gleason state... no: it swaps the lines, but
    # agreement must then fail on a specific element, which is reported
    rep = generalized_equiv(x, ident, nu)
    assert not rep.holds
    i = lat.index_of(rep.witness_element)
    assert abs(nu.values[x.mapping[i]] - nu.values[i]) > 1e-9
    # quantified over a family of states
    mu = gleason_state(qcore.DensityOperator(helpers.KET_PLUS), lat)
    rep = generalized_equiv([h, h], ident, [nu, mu])
    assert rep.holds
    rep = generalized_equiv(x, ident, [mu, nu])
    assert not rep.holds and rep.witness_state == 1
    # element-restricted comparison carries the two probabilities
    rep = generalized_equiv(x, ident, nu, element=lat.one)
    assert rep.holds and rep.lhs == rep.rhs == 1.0
    assert generalized_leq(x, ident, nu, element=lat.zero).holds
    rep = generalized_leq(x, ident, [nu])
    assert not rep.holds and rep.lhs > rep.rhs


def test_generalized_relation_errors():
    lat = quantum_mo2()
    nu = gleason_state(qcore.DensityOperator(P0), lat)
    ident = identity_automorphism(lat)
    with pytest.raises(LatticeMismatch):
        generalized_equiv(ident, identity_automorphism(mo2_oml()), nu)
    with pytest.raises(ValueError):
        generalized_equiv(ident, ident, [])
    with pytest.raises(IndexOutOfRange):
        generalized_equiv(ident, ident, nu, element="nope")


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
@pytest.mark.parametrize("relation", [generalized_equiv, generalized_leq])
def test_generalized_relations_refuse_a_negative_or_nan_tolerance(relation, tol):
    # at the parent, tol=-1 reported a word as not equivalent to itself
    lat = boolean_oml(1)
    ident = identity_automorphism(lat)
    with pytest.raises(ValidationFailure) as err:
        relation(ident, ident, point_mass_state(lat, 1), tol=tol)
    assert err.value.invariant == "tolerance"


def test_superposition_on_boolean_point_masses():
    for n_bits in (1, 2):
        lat = boolean_oml(n_bits)
        atoms = atom_indices(lat)
        masses = [point_mass_state(lat, a) for a in atoms]
        for k, nu in enumerate(masses):
            others = [m for j, m in enumerate(masses) if j != k]
            verdict, witness = is_superposition(nu, others)
            assert not verdict
            assert witness == lat.labels[atoms[k]]
        # mixtures of all point masses are fine: they share the common zeros
        uniform = LatticeState(
            lat, np.mean([m.values for m in masses], axis=0))
        assert is_superposition(uniform, masses) == (True, None)


def test_superposition_of_plus_state_on_quantum_mo2():
    lat = quantum_mo2()
    zero = gleason_state(qcore.DensityOperator(P0), lat)
    one = gleason_state(qcore.DensityOperator(P1), lat)
    plus = gleason_state(qcore.DensityOperator(helpers.KET_PLUS), lat)
    verdict, witness = is_superposition(plus, [zero, one])
    assert verdict and witness is None
    # and symmetrically |0> is one of |+> and |->, matching the physics
    minus = gleason_state(qcore.DensityOperator(helpers.KET_MINUS), lat)
    assert is_superposition(zero, [plus, minus]) == (True, None)
    # a single line does not span: |+> gives 1/2 to the |1> line that
    # |0> kills
    verdict, witness = is_superposition(plus, [zero])
    assert not verdict
    killed = lat.index_of(witness)
    assert np.allclose(lat.matrices[killed], P1)
    # an explicit threshold overrides every per-state cutoff
    assert is_superposition(plus, [zero], threshold=1.0) == (True, None)


@pytest.mark.parametrize("threshold", [-1.0, float("nan")])
def test_superposition_refuses_a_negative_or_nan_threshold(threshold):
    # unchecked, either threshold reports the point mass at {1} as a
    # superposition of the one at {0}
    lat = boolean_oml(1)
    zero, one = (point_mass_state(lat, lat.index_of(label)) for label in ("{0}", "{1}"))
    assert is_superposition(one, [zero]) == (False, "{1}")
    with pytest.raises(ValidationFailure) as err:
        is_superposition(one, [zero], threshold=threshold)
    assert err.value.invariant == "tolerance"


def test_scheme_and_run_protocol_match_truth_values():
    lat = quantum_mo2()
    h = qcore.UnitaryGate(helpers.HADAMARD)
    x = qcore.UnitaryGate(helpers.PAULI_X)
    scheme = ComputationalScheme(
        lattice=lat,
        states=(gleason_state(qcore.DensityOperator(P0), lat),),
        generators=(unitary_automorphism(h, lat), unitary_automorphism(x, lat)),
    )
    rho = qcore.DensityOperator(P0)
    for word in ([], [0], [1], [0, 1], [1, 0], [0, 1, 0]):
        got = run_protocol(scheme, word)
        u = np.eye(2)
        for gi in word:
            u = (helpers.HADAMARD if gi == 0 else helpers.PAULI_X) @ u
        gate = qcore.UnitaryGate(u)
        for i, label in enumerate(lat.labels):
            want = logic.truth_value(gate, rho, lat.projector(i))
            assert got[label] == pytest.approx(want, abs=1e-9)
    partial = run_protocol(scheme, [0], readout=[lat.one, "0"])
    assert set(partial) == {lat.labels[lat.one], "0"}
    with pytest.raises(IndexOutOfRange):
        run_protocol(scheme, [7])
    with pytest.raises(IndexOutOfRange):
        run_protocol(scheme, [], readout=["nope"])


def _scheme_cases(gen):
    """(lattice, automorphisms, states) on Boolean lattices of 4, 16 and 256
    elements, MO2, and projector lattices in C^2 and C^4."""
    cases = []
    for bits in (1, 2, 3):
        lat = boolean_oml(bits)
        atoms = 2 ** bits
        autos = [permutation_automorphism(lat, list(gen.permutation(atoms))) for _ in range(4)]
        # a measure on the atoms: each subset's value is its atoms' total weight
        members = np.arange(len(lat))[:, None] >> np.arange(atoms) & 1
        states = [LatticeState(lat, members @ w) for w in gen.dirichlet(np.ones(atoms), 3)]
        states += [point_mass_state(lat, 1 << k) for k in range(atoms)]
        cases.append((lat, autos, states))
    lat = mo2_oml()
    autos = []
    for perm in itertools.permutations(range(1, 5)):
        try:
            autos.append(LatticeAutomorphism(lat, [0, *perm, 5]))
        except ValidationFailure:
            pass
    cases.append((lat, autos, [LatticeState(lat, [0, p, 1 - p, q, 1 - q, 1])
                               for p, q in gen.uniform(size=(3, 2))]))
    h, x, z, i2 = helpers.HADAMARD, helpers.PAULI_X, helpers.PAULI_Z, np.eye(2)
    cnot, swap = np.eye(4)[[0, 1, 3, 2]], np.eye(4)[[0, 2, 1, 3]]
    for dim, family, unitaries in (
            (2, [P0, helpers.KET_PLUS], [h, x, z]),
            (4, [np.kron(P0, i2), np.kron(helpers.KET_PLUS, i2)],
             [np.kron(h, i2), np.kron(x, i2), np.kron(i2, x)]),
            (4, [helpers.basis_state(4, k) for k in range(4)],
             [np.kron(x, i2), np.kron(i2, x), cnot, swap])):
        lat = projection_oml(dim, [qcore.Projector(m) for m in family])
        autos = [unitary_automorphism(qcore.UnitaryGate(u), lat) for u in unitaries]
        states = [gleason_state(qcore.DensityOperator(helpers.random_density(gen, dim)), lat)
                  for _ in range(3)]
        cases.append((lat, autos, states))
    return cases


def _some_element(gen, lat):
    k = int(gen.integers(len(lat)))
    return [k, np.int64(k), lat.labels[k]][int(gen.integers(3))]


def test_the_scheme_layer_reproduces_its_validated_references_bit_for_bit():
    gen = helpers.rng(2024)
    for lat, autos, states in _scheme_cases(gen):
        def word(low):
            return [autos[i] for i in gen.integers(len(autos), size=gen.integers(low, 13))]

        def some_states():
            picks = gen.choice(len(states), size=gen.integers(1, 4))
            return states[picks[0]] if len(picks) == 1 else [states[i] for i in picks]

        scheme = ComputationalScheme(lat, tuple(states), tuple(autos),
                                     initial=int(gen.integers(len(states))))
        for _ in range(20):
            gens = gen.integers(len(autos), size=gen.integers(0, 13)).tolist()
            readout = None if gen.random() < 0.5 else [
                _some_element(gen, lat) for _ in range(gen.integers(1, 4))]
            assert run_protocol(scheme, gens, readout) == \
                helpers.run_protocol_by_pushforward(scheme, gens, readout)

            u = word(1) if gen.random() < 0.8 else autos[int(gen.integers(len(autos)))]
            v = u if gen.random() < 0.3 else word(1)
            nu = some_states()
            element = None if gen.random() < 0.5 else _some_element(gen, lat)
            tol = [1e-9, 0.25][int(gen.integers(2))]
            for relation, decide in (("generalized_equiv", generalized_equiv),
                                     ("generalized_leq", generalized_leq)):
                got = decide(u, v, nu, element, tol)
                want = helpers.generalized_by_pushforward(relation, u, v, nu, element, tol)
                assert got == want and got.to_json_dict() == want.to_json_dict()

            family = [states[i] for i in gen.choice(len(states), size=gen.integers(0, 4))]
            threshold = [None, 0.0, 0.3][int(gen.integers(3))]
            nu = states[int(gen.integers(len(states)))]
            assert is_superposition(nu, family, threshold) == \
                helpers.is_superposition_loop(nu, family, threshold)
        if isinstance(lat, omlattice.ProjectionLattice):
            for _ in range(5):
                rho = qcore.DensityOperator(helpers.random_density(gen, lat.dim))
                got = gleason_state(rho, lat).values
                assert got.tobytes() == helpers.gleason_values_by_born(rho, lat).tobytes()


@pytest.mark.parametrize("bits", [1, 2, 3])
def test_permutation_automorphism_equals_the_element_loop(bits):
    lat = boolean_oml(bits)
    atoms = 2 ** bits
    gen = helpers.rng(bits)
    perms = itertools.permutations(range(atoms)) if atoms <= 4 else \
        (gen.permutation(atoms).tolist() for _ in range(40))
    for perm in perms:
        got = permutation_automorphism(lat, list(perm)).mapping
        want = helpers.permutation_mapping_loop(len(lat), perm)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_the_scheme_layer_validates_only_at_its_boundary():
    # run_protocol and the generalized relations read state.values through
    # one composed index array; nothing they reach builds or validates a
    # state or an automorphism again
    funcs = {node.name: node for node in ast.parse(inspect.getsource(omlattice)).body
             if isinstance(node, ast.FunctionDef)}

    def calls(name):
        return {node.func.id for node in ast.walk(funcs[name])
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}

    reached, todo = set(), ["run_protocol", "_generalized"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(calls(name) & funcs.keys())
    forbidden = {"LatticeState", "LatticeAutomorphism", "pushforward", "compose_automorphisms"}
    assert {name: calls(name) & forbidden for name in sorted(reached)
            if calls(name) & forbidden} == {}


def test_scheme_validation():
    lat = quantum_mo2()
    nu = gleason_state(qcore.DensityOperator(P0), lat)
    with pytest.raises(ValidationFailure):
        ComputationalScheme(lattice=lat, states=(), generators=())
    with pytest.raises(LatticeMismatch):
        ComputationalScheme(lattice=lat, states=(nu,),
                            generators=(identity_automorphism(mo2_oml()),))
    with pytest.raises(IndexOutOfRange):
        ComputationalScheme(lattice=lat, states=(nu,), generators=(), initial=3)


def test_lattice_json_roundtrip():
    for lat in (mo2_oml(), boolean_oml(2), quantum_mo2()):
        back = lattice_from_json(lattice_to_json(lat))
        assert back.labels == lat.labels
        assert np.array_equal(back.leq, lat.leq)
        assert np.array_equal(back.meet, lat.meet)
        assert np.array_equal(back.ortho, lat.ortho)


def test_lattice_from_json_takes_transitive_closure():
    obj = {
        "elements": ["0", "m", "1"],
        "leq": {"0": ["m"], "m": ["1"], "1": []},   # covers only
        "ortho": {"0": "1", "m": "m", "1": "0"},
    }
    obj["zero"] = "0"
    obj["one"] = "1"
    with pytest.raises(ValidationFailure):
        lattice_from_json(obj)      # m' = m is not a complement
    obj2 = {
        "elements": ["0", "a", "b", "1"],
        "leq": {"0": ["a", "b"], "a": ["1"], "b": ["1"], "1": []},
        "ortho": {"0": "1", "a": "b", "b": "a", "1": "0"},
        "zero": "0", "one": "1",
    }
    lat = lattice_from_json(obj2)
    assert lat.leq[0, 3]            # closure supplied 0 <= 1
    assert all(r.holds for r in verify_laws(lat)[:len(REQUIRED_LAWS)])
    with pytest.raises(ValidationFailure):
        lattice_from_json({"elements": ["0"]})


def test_lattice_from_json_refuses_oversize_before_parsing():
    # the cap is checked before the order is built, so the bad leq entry is
    # never read
    labels = [f"x{i}" for i in range(1100)]
    obj = {"elements": labels, "leq": {"x0": ["nope"]},
           "ortho": {s: s for s in labels}, "zero": "x0", "one": "x1"}
    with pytest.raises(SizeCapExceeded):
        lattice_from_json(obj)


def _qubit_lattice_tables():
    lat = projection_oml(2, [qcore.Projector(helpers.basis_state(2, k)) for k in range(2)])
    return lat, (lat.labels, lat.leq, lat.meet, lat.join, lat.ortho, lat.zero, lat.one)


def test_projection_lattice_leaves_the_callers_arrays_writable():
    lat, tables = _qubit_lattice_tables()
    mats = [np.array(m) for m in lat.matrices]
    built = omlattice.ProjectionLattice(*tables, dim=2, matrices=tuple(mats))
    assert all(m.flags.writeable for m in mats)
    mats[0][0, 0] = 7.0
    assert all(not m.flags.writeable for m in built.matrices)
    assert np.array_equal(built.matrices[0], lat.matrices[0])


def test_projection_lattice_refuses_wrong_shapes_and_non_projectors():
    _, tables = _qubit_lattice_tables()
    with pytest.raises(DimensionMismatch, match=r"\(3, 3\) vs \(2, 2\)"):
        omlattice.ProjectionLattice(*tables, dim=2, matrices=(np.ones((3, 3)),) * 4)
    cases = {"idempotent": np.ones((2, 2)), "hermitian": np.array([[1, 1], [0, 0]])}
    for invariant, bad in cases.items():
        with pytest.raises(ValidationFailure) as exc:
            omlattice.ProjectionLattice(*tables, dim=2, matrices=(bad,) * 4)
        assert exc.value.invariant == invariant
