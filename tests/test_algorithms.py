import math

import numpy as np
import pytest

import helpers
from qclogic import algorithms, qcore
from qclogic.algorithms import (
    OracleFunction,
    PeriodicSpec,
    RunResult,
    build_oracle,
    deutsch_jozsa,
    one_bit_functions,
    oracle_from_json,
    oracle_to_json,
    period_branches,
    period_find,
    periodic_from_json,
    qft,
    success_probability,
)
from qclogic.errors import (
    InvalidSpec,
    ParseError,
    UnknownOutcome,
    ValidationFailure,
    WidthMismatch,
)


def test_oracle_function_validation():
    f = OracleFunction(2, 1, {"00": "0", "01": "1", "10": "1", "11": "0"})
    assert f("01") == "1"
    with pytest.raises(ValidationFailure):
        OracleFunction(1, 1, {"0": "0"})                 # partial
    with pytest.raises(ValidationFailure):
        OracleFunction(1, 1, {"0": "0", "1": "2"})       # bad value
    with pytest.raises(ValidationFailure):
        OracleFunction(1, 1, {"0": "0", "10": "1"})      # bad key
    with pytest.raises(ValidationFailure):
        OracleFunction(1, 0, {"0": "", "1": ""})


def test_build_oracle_is_the_xor_permutation():
    f = OracleFunction(2, 1, {"00": "0", "01": "1", "10": "1", "11": "0"})
    u = build_oracle(f)
    assert u.dim == 8
    for x in range(4):
        fx = int(f(format(x, "02b")), 2)
        for y in range(2):
            src = x * 2 + y
            dst = x * 2 + (y ^ fx)
            assert u.matrix[dst, src] == 1.0
    # two-bit codomain
    g = OracleFunction(1, 2, {"0": "10", "1": "01"})
    v = build_oracle(g)
    assert v.matrix[2, 0] == 1.0        # |0,00> -> |0,10>
    assert v.matrix[4 + 2, 4 + 3] == 1.0  # |1,11> -> |1,10>
    # applying the oracle twice undoes it
    assert np.array_equal(v.matrix @ v.matrix, np.eye(8))


def test_one_bit_functions_cover_all_four():
    fam = one_bit_functions()
    assert set(fam) == {"identity", "not", "const0", "const1"}
    tables = {name: (f("0"), f("1")) for name, f in fam.items()}
    assert len(set(tables.values())) == 4


def test_deutsch_jozsa_is_exact_on_all_four_functions():
    for name, f in one_bit_functions().items():
        res = deutsch_jozsa(f)
        constant = name.startswith("const")
        want0 = 1.0 if constant else 0.0
        assert res.outcome_distribution["0"] == pytest.approx(want0, abs=1e-12)
        assert res.outcome_distribution["1"] == pytest.approx(1 - want0, abs=1e-12)
        assert res.verdict == ("constant" if constant else "balanced")
        assert res.success_probability == pytest.approx(1.0, abs=1e-12)


def test_deutsch_jozsa_against_state_vector_oracle():
    # independent route: raw state-vector simulation with explicit kets
    h = helpers.HADAMARD
    for name, f in one_bit_functions().items():
        ket = np.zeros(4, dtype=complex)
        ket[int("01", 2)] = 1.0
        ket = np.kron(h, h) @ ket
        ket = build_oracle(f).matrix @ ket
        ket = np.kron(h, np.eye(2)) @ ket
        p0 = float(np.sum(np.abs(ket[:2]) ** 2))
        res = deutsch_jozsa(f)
        assert res.outcome_distribution["0"] == pytest.approx(p0, abs=1e-12)


def test_deutsch_jozsa_rejects_wrong_shape():
    f = OracleFunction(2, 1, {"00": "0", "01": "1", "10": "1", "11": "0"})
    with pytest.raises(WidthMismatch):
        deutsch_jozsa(f)


def test_qft_unitary_and_small_cases():
    assert np.max(np.abs(qft(2).matrix - helpers.HADAMARD)) < 1e-12
    for n in (3, 4, 5, 8):
        u = qft(n)
        assert np.max(np.abs(u.matrix @ u.matrix.conj().T - np.eye(n))) < 1e-12
        assert u.matrix[1, 1] == pytest.approx(np.exp(2j * np.pi / n) / np.sqrt(n))


def test_periodic_spec_validation():
    PeriodicSpec(4, 2, (7, 9, 7, 9))
    with pytest.raises(InvalidSpec):
        PeriodicSpec(4, 3, (0, 1, 2, 0))            # r does not divide N
    with pytest.raises(InvalidSpec):
        PeriodicSpec(4, 2, (7, 9, 7, 8))            # not periodic
    with pytest.raises(InvalidSpec):
        PeriodicSpec(4, 2, (7, 7, 7, 7))            # repeats within a period
    with pytest.raises(InvalidSpec):
        PeriodicSpec(4, 2, (7, 9, 7))               # wrong length
    with pytest.raises(InvalidSpec):
        PeriodicSpec(0, 1, ())


def test_period_find_spectrum_n4_r2():
    spec = PeriodicSpec(4, 2, (5, 6, 5, 6))
    res = period_find(spec)
    dist = res.outcome_distribution
    assert dist["0"] == pytest.approx(0.5, abs=1e-12)
    assert dist["2"] == pytest.approx(0.5, abs=1e-12)
    assert dist["1"] == pytest.approx(0.0, abs=1e-15)
    assert dist["3"] == pytest.approx(0.0, abs=1e-15)
    assert res.success_probability == pytest.approx(0.5)   # phi(2)/2


def test_period_find_spectrum_n8_r4():
    spec = PeriodicSpec(8, 4, (0, 1, 2, 3, 0, 1, 2, 3))
    res = period_find(spec)
    dist = res.outcome_distribution
    for c in range(8):
        want = 0.25 if c % 2 == 0 else 0.0
        assert dist[str(c)] == pytest.approx(want, abs=1e-12)
    assert res.success_probability == pytest.approx(0.5)   # phi(4)/4


def test_period_find_spectrum_matches_closed_form():
    # independent oracle: |sum over the residue class of Fourier entries|^2
    for n, r in ((4, 2), (8, 2), (8, 4), (16, 4), (6, 3)):
        spec = PeriodicSpec(n, r, tuple(x % r for x in range(n)))
        dist = period_find(spec).outcome_distribution
        k = n // r
        for c in range(n):
            # closed form: the geometric sum collapses on multiples of N/r
            s = sum(np.exp(2j * np.pi * c * j * r / n) for j in range(k))
            direct = abs(s) ** 2 / (n * k)
            assert direct == pytest.approx(1.0 / r if c % k == 0 else 0.0, abs=1e-9)
            assert dist[str(c)] == pytest.approx(direct, abs=1e-9)


def test_period_branches_are_invariant():
    spec = PeriodicSpec(8, 4, (3, 1, 4, 1 + 8, 3, 1, 4, 9))
    branches = period_branches(spec)
    assert set(branches) == {3, 1, 4, 9}
    base = branches[3]
    for dist in branches.values():
        for c in range(8):
            assert dist[str(c)] == pytest.approx(base[str(c)], abs=1e-12)
    # conditioning inside period_find gives the same distribution too
    conditioned = period_find(spec, condition_on=4).outcome_distribution
    for c in range(8):
        assert conditioned[str(c)] == pytest.approx(base[str(c)], abs=1e-12)
    with pytest.raises(UnknownOutcome):
        period_find(spec, condition_on=77)


def test_period_one_function():
    spec = PeriodicSpec(3, 1, (5, 5, 5))
    res = period_find(spec)
    assert res.outcome_distribution["0"] == pytest.approx(1.0)
    assert res.verdict == "period=1"
    assert res.success_probability == 1.0


def test_period_verdict_estimates_from_draws():
    spec = PeriodicSpec(8, 4, (0, 1, 2, 3, 0, 1, 2, 3))
    res = period_find(spec, samples=64, seed=5)
    assert res.verdict == "period=4"
    again = period_find(spec, samples=64, seed=5)
    assert again.outcome_distribution == res.outcome_distribution
    assert again.verdict == res.verdict
    for samples in (0, -3):
        with pytest.raises(ValidationFailure):
            period_find(spec, samples=samples)


def test_run_result_validation_and_json():
    with pytest.raises(ValidationFailure):
        RunResult({"0": 0.6, "1": 0.6}, 1.0, "x")
    with pytest.raises(ValidationFailure):
        RunResult({"0": -0.1, "1": 1.1}, 1.0, "x")
    with pytest.raises(ValidationFailure):
        RunResult({}, 1.0, "x")
    with pytest.raises(ValidationFailure):
        RunResult({"0": 1.0}, 1.5, "x")
    res = RunResult({"1": 0.25, "0": 0.75}, 0.75, "ok")
    d = res.to_json_dict()
    assert list(d["distribution"]) == ["0", "1"]
    assert d["success_probability"] == 0.75 and d["verdict"] == "ok"


def test_success_probability_helper():
    res = RunResult({"0": 0.5, "2": 0.5}, 0.5, "period=2")
    assert success_probability(res, ["0", "2"]) == pytest.approx(1.0)
    assert success_probability(res, ["2"]) == pytest.approx(0.5)
    with pytest.raises(UnknownOutcome):
        success_probability(res, ["7"])


def test_oracle_and_periodic_json_roundtrip():
    f = OracleFunction(1, 1, {"0": "1", "1": "0"})
    assert oracle_from_json(oracle_to_json(f)).table == f.table
    with pytest.raises(ParseError):
        oracle_from_json({"n": 1})
    spec = periodic_from_json({"N": 4, "r": 2, "f": [1, 2, 1, 2]})
    assert spec.period == 2
    with pytest.raises(ParseError):
        periodic_from_json({"N": 4})
