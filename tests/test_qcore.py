import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import helpers
from qclogic import gates, logic, qcore
from qclogic.errors import (
    DimensionMismatch,
    NonRealTrace,
    NotOrthonormalFamily,
    SizeCapExceeded,
    ValidationFailure,
)


def test_trace_matches_hand_sum():
    m = [[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]]
    assert qcore.trace(m) == pytest.approx(helpers.mat2_trace(m))
    assert qcore.trace(np.eye(5)) == 5.0


def test_trace_rejects_nonsquare():
    with pytest.raises(ValidationFailure):
        qcore.trace(np.ones((2, 3)))


def test_tensor_small_cases():
    eye = np.eye(2)
    assert np.array_equal(qcore.tensor(eye, eye), np.eye(4))
    k0 = np.diag([1.0, 0.0])
    k1 = np.diag([0.0, 1.0])
    assert np.array_equal(qcore.tensor(k0, k1), np.diag([0.0, 1.0, 0.0, 0.0]))


def test_tensor_mixed_product_property():
    gen = helpers.rng(11)
    for _ in range(20):
        a, b = (gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
                for _ in range(2))
        c, d = (gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
                for _ in range(2))
        lhs = qcore.tensor(a, c) @ qcore.tensor(b, d)
        rhs = qcore.tensor(a @ b, c @ d)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_density_validation():
    qcore.DensityOperator(np.diag([0.3, 0.7]))
    with pytest.raises(ValidationFailure) as exc:
        qcore.DensityOperator(np.diag([1.0, 0.1]))
    assert exc.value.invariant == "trace-one"
    assert exc.value.magnitude == pytest.approx(0.1)
    with pytest.raises(ValidationFailure) as exc:
        qcore.DensityOperator(np.diag([1.5, -0.5]))
    assert exc.value.invariant == "positive"
    with pytest.raises(ValidationFailure) as exc:
        qcore.DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))
    assert exc.value.invariant == "hermitian"


def test_projector_validation():
    qcore.Projector(helpers.KET_PLUS)
    qcore.Projector(np.zeros((3, 3)))
    qcore.Projector(np.eye(3))
    with pytest.raises(ValidationFailure) as exc:
        qcore.Projector(np.diag([0.5, 1.0]))
    assert exc.value.invariant == "idempotent"


def test_unitary_validation():
    qcore.UnitaryGate(helpers.HADAMARD)
    with pytest.raises(ValidationFailure) as exc:
        qcore.UnitaryGate(np.diag([1.0, 2.0]))
    assert exc.value.invariant == "unitary"


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
@pytest.mark.parametrize("kind", [qcore.DensityOperator, qcore.Projector, qcore.UnitaryGate])
def test_operators_refuse_a_negative_or_nan_tolerance(kind, tol):
    with pytest.raises(ValidationFailure) as exc:
        kind(np.eye(1), tol)
    assert exc.value.invariant == "tolerance"


@pytest.mark.parametrize("dim", [1, 2, 7, 128])
@pytest.mark.parametrize("cls", [qcore.DensityOperator, qcore.Projector])
def test_rank_one_equals_the_dense_checked_operator(cls, dim):
    gen = helpers.rng(dim)
    for _ in range(5):
        v = gen.normal(size=dim) + 1j * gen.normal(size=dim)
        v /= np.linalg.norm(v)
        fast, dense = qcore._rank_one(cls, v), cls(np.outer(v, v.conj()))
        assert type(fast) is cls and fast.tolerance == dense.tolerance
        assert fast.matrix.tobytes() == dense.matrix.tobytes()
        assert fast.matrix.shape == (dim, dim) and not fast.matrix.flags.writeable
        assert fast == dense and hash(fast) == hash(dense)


@pytest.mark.parametrize("cls", [qcore.DensityOperator, qcore.Projector])
def test_rank_one_refuses_a_nan_entry_or_a_norm_off_by_more_than_the_tolerance(cls):
    v = np.array([0.6, 0.8j])
    qcore._rank_one(cls, v * (1 + 0.4 * qcore.DEFAULT_TOL))
    with pytest.raises(ValidationFailure) as exc:
        qcore._rank_one(cls, np.array([np.nan, 1.0]))
    assert exc.value.invariant == "finite"
    for scale in (1 + qcore.DEFAULT_TOL, 1 - qcore.DEFAULT_TOL, 0.0):
        with pytest.raises(ValidationFailure) as exc:
            qcore._rank_one(cls, v * scale)
        assert exc.value.invariant == "unit-norm"


@pytest.mark.parametrize("name", sorted(gates._GATES))
def test_dagger_of_every_gate_block(name):
    # the conjugate transpose is not contiguous in its last axis
    table = gates._GATES[name]
    spec = gates.GateSpec(name, tuple(range(table.wires or 2)),
                          0.7 if table.phased else None)
    gate = qcore.UnitaryGate(spec.block())
    assert np.array_equal(gate.dagger().matrix, spec.block().conj().T)
    assert np.allclose(gate.dagger().matrix @ gate.matrix, np.eye(gate.dim))


def test_operators_accept_any_memory_order():
    rho = helpers.random_density(helpers.rng(41), 3)
    assert np.array_equal(qcore.DensityOperator(rho.T).matrix, rho.T)
    fortran = np.asfortranarray(helpers.HADAMARD)
    assert np.array_equal(qcore.UnitaryGate(fortran).matrix, helpers.HADAMARD)
    bad = rho.copy()
    bad[0, 2] = np.nan
    with pytest.raises(ValidationFailure) as exc:
        qcore.DensityOperator(bad.T)
    assert exc.value.invariant == "finite"


@pytest.mark.parametrize("cls, matrix", [
    (qcore.DensityOperator, np.diag([1.0, 0.0])),
    (qcore.Projector, np.diag([1.0, 0.0])),
    (qcore.UnitaryGate, np.diag([1.0, -1.0])),
])
def test_operators_compare_and_hash_by_type_tolerance_and_entries(cls, matrix):
    a, b = cls(matrix), cls(matrix.copy())
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    # -0.0 equals 0.0, so the two must hash alike
    signed = matrix.astype(complex)
    signed[0, 1] = complex(-0.0, -0.0)
    assert cls(signed) == a and hash(cls(signed)) == hash(a)
    assert cls(matrix, 1e-6) != a


def test_operators_of_another_type_or_other_entries_differ():
    assert qcore.Projector(np.eye(2)) != qcore.UnitaryGate(np.eye(2))
    assert qcore.Projector(np.diag([1.0, 0.0])) != qcore.Projector(np.diag([0.0, 1.0]))
    assert qcore.Projector(np.eye(2)) != qcore.Projector(np.eye(4))


def test_validate_dispatch():
    out = qcore.validate(np.eye(2) / 2, "density")
    assert isinstance(out, qcore.DensityOperator)
    out = qcore.validate(helpers.PAULI_X, "unitary")
    assert isinstance(out, qcore.UnitaryGate)
    with pytest.raises(ValueError):
        qcore.validate(np.eye(2), "hermitian")


def test_matrices_are_frozen():
    rho = qcore.DensityOperator(np.diag([0.5, 0.5]))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0


def test_dimension_cap():
    with pytest.raises(SizeCapExceeded):
        qcore.as_square_matrix(np.eye(4), max_dim=3)


def test_conjugate_hadamard_on_ground():
    rho = qcore.DensityOperator(np.diag([1.0, 0.0]))
    h = qcore.UnitaryGate(helpers.HADAMARD)
    out = qcore.conjugate(h, rho)
    assert np.max(np.abs(out.matrix - helpers.KET_PLUS)) < 1e-12
    with pytest.raises(DimensionMismatch):
        qcore.conjugate(h, qcore.DensityOperator(np.eye(4) / 4))


def test_conjugate_validates_what_it_returns():
    # the evolved state's entrywise Hermitian gap exceeds the tolerance
    # although the input is valid; see tests/test_logic.py for the callers
    # that do not revalidate it
    hh = gates.compose_word(gates.parse_word("width=2; H[0]; H[1]"))
    with pytest.raises(ValidationFailure) as exc:
        qcore.conjugate(hh, qcore.DensityOperator(helpers.SKEWED_UNIFORM))
    assert exc.value.invariant == "hermitian"
    assert exc.value.magnitude == pytest.approx(1.8e-9)


def test_born_examples():
    rho = qcore.DensityOperator(np.diag([1.0, 0.0]))
    assert qcore.born(rho, qcore.Projector(np.zeros((2, 2)))) == 0.0
    assert qcore.born(rho, qcore.Projector(np.eye(2))) == 1.0
    assert qcore.born(rho, qcore.Projector(helpers.KET_PLUS)) == pytest.approx(0.5)


def test_born_randomized_range_and_additivity():
    gen = helpers.rng(5)
    for _ in range(100):
        dim = int(gen.choice([2, 3, 4]))
        sigma = qcore.DensityOperator(helpers.random_density(gen, dim))
        p = helpers.random_projector(gen, dim)
        prob = qcore.born(sigma, qcore.Projector(p))
        assert 0.0 <= prob <= 1.0
        comp = qcore.born(sigma, qcore.Projector(np.eye(dim) - p))
        assert prob + comp == pytest.approx(1.0, abs=1e-9)
        # against the independent trace oracle
        assert prob == pytest.approx(
            float(np.trace(sigma.matrix @ p).real), abs=1e-9)


def test_born_clamps_rounding_noise():
    eps = 1e-12
    rho = qcore.DensityOperator(np.diag([1.0 + eps, -eps]), tolerance=1e-9)
    p = qcore.Projector(np.diag([0.0, 1.0]))
    assert qcore.born(rho, p) == 0.0


def test_truth_value_of_matches_oracle():
    gen = helpers.rng(17)
    for _ in range(50):
        u = helpers.random_unitary(gen, 2)
        rho = helpers.random_density(gen, 2)
        p = helpers.random_projector(gen, 2)
        got = logic.truth_value(qcore.UnitaryGate(u),
                                qcore.DensityOperator(rho),
                                qcore.Projector(p))
        assert got == pytest.approx(helpers.truth_value_oracle(u, rho, p), abs=1e-9)


def test_null_space_hand_cases():
    ns = qcore.null_space(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert ns.shape == (2, 1)
    assert np.allclose(np.abs(ns[:, 0]), [2 ** -0.5, 2 ** -0.5], atol=1e-15)
    assert ns[0, 0] == pytest.approx(-ns[1, 0], abs=1e-15)
    assert qcore.null_space(np.eye(3)).shape == (3, 0)
    ns = qcore.null_space(np.zeros((2, 3)))
    assert ns.shape == (3, 3)
    assert np.allclose(ns.conj().T @ ns, np.eye(3), atol=1e-15)
    # singular values up to 10 * max(s) * eps * max(M, N) = 4.4e-15 count as zero
    ns = qcore.null_space(np.diag([1.0, 1e-15]))
    assert ns.shape == (2, 1) and abs(ns[1, 0]) == 1.0
    assert qcore.null_space(np.diag([1.0, 1e-14])).shape == (2, 0)
    # atol raises the cutoff, and never lowers it
    assert qcore.null_space(np.diag([1.0, 1e-11]), atol=1e-9).shape == (2, 1)
    assert qcore.null_space(np.diag([1.0, 1e-8]), atol=1e-9).shape == (2, 0)
    assert qcore.null_space(np.diag([1.0, 1e-15]), atol=1e-20).shape == (2, 1)
    # in a stack each matrix is cut off at its own largest singular value
    tiny, unit = qcore.null_space(np.array([1e-15 * np.eye(2), np.eye(2)]))
    assert tiny.shape == unit.shape == (2, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 7), st.integers(1, 7), st.booleans(),
       st.sampled_from([0.0, 1e-12, 1e-9]), st.integers(0, 2 ** 32 - 1))
def test_a_stack_gives_each_matrix_the_basis_it_gets_alone(k, m, n, complex_, atol, seed):
    # ranks and scales differ across the stack
    gen = helpers.rng(seed)
    stack = []
    for _ in range(k):
        rank = int(gen.integers(0, min(m, n) + 1))
        left = gen.normal(size=(m, rank)) + (1j * gen.normal(size=(m, rank)) if complex_ else 0)
        stack.append(left @ gen.normal(size=(rank, n)) * 10.0 ** gen.integers(-3, 4))
    stack = np.array(stack)
    got = qcore.null_space(stack, atol=atol)
    assert isinstance(got, list) and len(got) == k
    for one, basis in zip(stack, got):
        alone = qcore.null_space(one, atol=atol)
        assert basis.shape == alone.shape and basis.dtype == alone.dtype
        assert np.array_equal(basis, alone)


def test_commutant_dimensions():
    # frozen counts: identity leaves everything, a diagonal resolution leaves
    # the diagonal algebra, {X, Z} generates an irreducible algebra
    assert len(qcore.commutant([np.eye(2)], 2)) == 4
    assert len(qcore.commutant([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 2)) == 2
    assert len(qcore.commutant([helpers.PAULI_X, helpers.PAULI_Z], 2)) == 1
    assert len(qcore.commutant([], 2)) == 4


def test_commutant_members_commute():
    gen = helpers.rng(23)
    mats = [helpers.random_projector(gen, 3), helpers.random_density(gen, 3)]
    alg = qcore.commutant(mats, 3)
    for b in alg.basis:
        for m in mats:
            assert np.max(np.abs(b @ m - m @ b)) < 1e-9
    assert alg.contains(np.eye(3))


def test_commutant_is_inclusion_reversing():
    small = qcore.commutant([helpers.PAULI_Z], 2)
    large = qcore.commutant([helpers.PAULI_Z, helpers.PAULI_X], 2)
    assert len(large) <= len(small)
    for b in large.basis:
        assert small.contains(b)


def test_double_commutant_contains_generators():
    gen = helpers.rng(29)
    p = helpers.random_projector(gen, 4, rank=2)
    alg = qcore.double_commutant([p], 4)
    assert alg.contains(p)
    assert alg.contains(np.eye(4))


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
@pytest.mark.parametrize("build", [qcore.commutant, qcore.double_commutant])
def test_commutants_refuse_a_negative_or_nan_tolerance(build, tol):
    with pytest.raises(ValidationFailure) as exc:
        build([helpers.PAULI_Z], 2, tol=tol)
    assert exc.value.invariant == "tolerance"


def test_commutant_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        qcore.commutant([np.eye(3)], 2)


def test_boolean_projections_dim2():
    fam = [qcore.Projector(helpers.basis_state(2, 0)),
           qcore.Projector(helpers.basis_state(2, 1))]
    events = qcore.boolean_projections(fam)
    assert len(events) == 4
    mats = [e.matrix for e in events]
    for want in (np.zeros((2, 2)), np.eye(2),
                 helpers.basis_state(2, 0), helpers.basis_state(2, 1)):
        assert any(np.max(np.abs(m - want)) < 1e-9 for m in mats)


def test_boolean_projections_dim4_count_and_closure():
    fam = [qcore.Projector(helpers.basis_state(4, k)) for k in range(4)]
    events = qcore.boolean_projections(fam)
    assert len(events) == 16
    mats = [e.matrix for e in events]
    # closed under complement and products commute (Boolean behavior)
    for m in mats:
        comp = np.eye(4) - m
        assert any(np.max(np.abs(e - comp)) < 1e-9 for e in mats)
    for a in mats[:6]:
        for b in mats[:6]:
            assert np.max(np.abs(a @ b - b @ a)) < 1e-9


def test_boolean_projections_rotated_basis():
    gen = helpers.rng(31)
    u = helpers.random_unitary(gen, 4)
    fam = [qcore.Projector(np.outer(u[:, k], u[:, k].conj())) for k in range(4)]
    events = qcore.boolean_projections(fam)
    assert len(events) == 16
    # cross-check: the events span the algebra the family generates
    alg = qcore.double_commutant([p.matrix for p in fam], 4)
    assert len(alg) == 4
    assert all(alg.contains(e.matrix) for e in events)


def test_boolean_projections_cap_precedes_enumeration():
    fam = [qcore.Projector(helpers.basis_state(4, k)) for k in range(4)]
    with pytest.raises(SizeCapExceeded):
        qcore.boolean_projections(fam, max_minimal=3)
    assert len(qcore.boolean_projections(fam, max_minimal=4)) == 16


def test_boolean_projections_deterministic_order():
    fam = [qcore.Projector(helpers.basis_state(2, 0)),
           qcore.Projector(helpers.basis_state(2, 1))]
    a = qcore.boolean_projections(fam)
    b = qcore.boolean_projections(list(reversed(fam)))
    for x, y in zip(a, b):
        assert np.array_equal(x.matrix, y.matrix)


def test_boolean_projections_rejects_bad_family():
    with pytest.raises(NotOrthonormalFamily):
        qcore.boolean_projections([qcore.Projector(helpers.basis_state(2, 0))])
    with pytest.raises(NotOrthonormalFamily):
        qcore.boolean_projections([qcore.Projector(helpers.basis_state(2, 0)),
                                   qcore.Projector(helpers.KET_PLUS)])
    with pytest.raises(NotOrthonormalFamily):
        qcore.boolean_projections([qcore.Projector(np.eye(2)),
                                   qcore.Projector(np.zeros((2, 2)))])


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_boolean_projections_refuse_a_negative_or_nan_tolerance(tol):
    # at the parent, -1 called a rank-one member "not rank one" and NaN
    # passed every family check
    fam = [qcore.Projector(helpers.basis_state(2, k)) for k in range(2)]
    with pytest.raises(ValidationFailure) as exc:
        qcore.boolean_projections(fam, tol=tol)
    assert exc.value.invariant == "tolerance"


def test_nonreal_trace_guard():
    # a forged non-self-adjoint "event" makes the pairing complex; the guard
    # must catch it rather than silently taking the real part
    bad = qcore.Projector.__new__(qcore.Projector)
    object.__setattr__(bad, "matrix", np.array([[0.0, 1.0], [0.0, 0.0]]))
    object.__setattr__(bad, "tolerance", 1e-9)
    skew = qcore.DensityOperator(np.array([[0.5, 0.5j], [-0.5j, 0.5]]))
    with pytest.raises(NonRealTrace):
        qcore.born(skew, bad)


def test_matrix_json_roundtrip():
    gen = helpers.rng(37)
    m = helpers.random_density(gen, 3)
    obj = qcore.matrix_to_json(m)
    assert obj["dim"] == 3 and len(obj["re"]) == 9
    back = qcore.matrix_from_json(obj)
    assert np.max(np.abs(back - m)) == 0.0
    with pytest.raises(ValidationFailure):
        qcore.matrix_from_json({"dim": 2, "re": [1.0], "im": []})


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: arrays(
    complex, (d, d), elements=st.complex_numbers(allow_nan=False, allow_infinity=False))))
def test_matrix_json_roundtrip_through_text(m):
    back = qcore.matrix_from_json(json.loads(json.dumps(qcore.matrix_to_json(m))))
    # bit for bit, up to the sign of a zero: re + 1j * im does not keep it
    assert (back + 0.0).tobytes() == (m + 0.0).tobytes()
