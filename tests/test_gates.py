import ast
import math
import pathlib
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from qclogic import gates, qcore
from qclogic.errors import (
    DimensionMismatch,
    EnumerationCapExceeded,
    InvalidWire,
    ParseError,
    SizeCapExceeded,
    UnboundedParameter,
    UnknownGate,
    ValidationFailure,
)
from qclogic.gates import GateSpec, GateWord


def _mat(name, wires, width, param=None):
    return gates.elementary(GateSpec(name, wires, param), width).matrix


def test_single_qubit_gates_match_conventions():
    assert np.max(np.abs(_mat("H", (0,), 1) - helpers.HADAMARD)) < 1e-12
    assert np.max(np.abs(_mat("X", (0,), 1) - helpers.PAULI_X)) == 0.0
    assert np.max(np.abs(_mat("Z", (0,), 1) - helpers.PAULI_Z)) == 0.0
    t = _mat("T", (0,), 1)
    assert t[0, 0] == 1.0 and abs(t[1, 1] - np.exp(1j * np.pi / 4)) < 1e-12
    r = _mat("R", (0,), 1, param=0.75)
    assert abs(r[1, 1] - np.exp(0.75j)) < 1e-12
    # T is the eighth root of the identity
    assert np.max(np.abs(np.linalg.matrix_power(t, 8) - np.eye(2))) < 1e-12


def test_xx_matches_matrix_exponential():
    for phi in (0.3, 1.0, np.pi / 2):
        want = scipy.linalg.expm(-0.5j * phi * np.kron(helpers.PAULI_X, helpers.PAULI_X))
        got = _mat("XX", (0, 1), 2, param=phi)
        assert np.max(np.abs(got - want)) < 1e-12


def test_fourier_matrix_small():
    f2 = gates.fourier_matrix(2)
    assert np.max(np.abs(f2 - helpers.HADAMARD)) < 1e-12
    f4 = gates.fourier_matrix(4)
    for a in range(4):
        for b in range(4):
            assert f4[a, b] == pytest.approx(np.exp(2j * np.pi * a * b / 4) / 2)


def test_cnot_both_orientations():
    # wire 0 is the most significant bit
    want01 = np.zeros((4, 4))
    for x in range(4):
        want01[helpers.classical_step("CNOT", (0, 1), x, 2), x] = 1.0
    assert np.max(np.abs(_mat("CNOT", (0, 1), 2) - want01)) == 0.0
    want10 = np.zeros((4, 4))
    for x in range(4):
        want10[helpers.classical_step("CNOT", (1, 0), x, 2), x] = 1.0
    assert np.max(np.abs(_mat("CNOT", (1, 0), 2) - want10)) == 0.0


def test_embedding_matches_bit_semantics():
    # every permutation-style gate, on every wire choice at width 3, must act
    # on basis vectors exactly as the classical bit rule says
    for name, wire_sets in (
        ("X", [(0,), (1,), (2,)]),
        ("CNOT", [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]),
        ("TOFFOLI", [(0, 1, 2), (0, 2, 1), (1, 2, 0)]),
    ):
        for wires in wire_sets:
            m = _mat(name, wires, 3)
            for x in range(8):
                y = helpers.classical_step(name, wires, x, 3)
                assert m[y, x] == 1.0
                assert np.sum(np.abs(m[:, x])) == 1.0


def test_embedding_of_phase_gate_on_middle_wire():
    m = _mat("R", (1,), 3, param=1.1)
    d = np.diagonal(m)
    for x in range(8):
        want = np.exp(1.1j) if helpers.bit_of(x, 1, 3) else 1.0
        assert abs(d[x] - want) < 1e-12
    assert np.max(np.abs(m - np.diag(d))) == 0.0


def test_all_elementary_gates_are_unitary():
    gen = helpers.rng(41)
    for name, wires, param in (
        ("H", (0,), None), ("T", (1,), None), ("X", (2,), None),
        ("Z", (0,), None), ("R", (1,), 0.37), ("CNOT", (2, 0), None),
        ("XX", (0, 2), 1.9), ("TOFFOLI", (2, 0, 1), None), ("QFT", (0, 1, 2), None),
    ):
        u = gates.elementary(GateSpec(name, wires, param), 3)
        eye = np.eye(8)
        assert np.max(np.abs(u.matrix @ u.matrix.conj().T - eye)) < 1e-9


def test_gate_spec_validation():
    with pytest.raises(UnknownGate):
        GateSpec("FOO", (0,))
    with pytest.raises(InvalidWire):
        GateSpec("CNOT", (1, 1))
    with pytest.raises(InvalidWire):
        GateSpec("H", (0, 1))
    with pytest.raises(ValidationFailure):
        GateSpec("R", (0,))            # missing phase
    with pytest.raises(ValidationFailure):
        GateSpec("H", (0,), 1.0)       # phase on a fixed gate
    with pytest.raises(InvalidWire):
        gates.elementary(GateSpec("H", (3,)), 2)
    with pytest.raises(InvalidWire):
        GateWord(1, (GateSpec("CNOT", (0, 1)),))


def test_compose_word_time_order():
    # word lists time order; the composed matrix multiplies in reverse
    word = GateWord(1, (GateSpec("X", (0,)), GateSpec("H", (0,))))
    want = helpers.HADAMARD @ helpers.PAULI_X
    assert np.max(np.abs(gates.compose_word(word).matrix - want)) < 1e-12
    empty = gates.compose_word(GateWord(2, ()))
    assert np.array_equal(empty.matrix, np.eye(4))
    hh = GateWord(1, (GateSpec("H", (0,)), GateSpec("H", (0,))))
    assert np.max(np.abs(gates.compose_word(hh).matrix - np.eye(2))) < 1e-12


GATE_NAMES = ("H", "T", "X", "Z", "R", "CNOT", "XX", "TOFFOLI", "QFT")
PERMUTATION_LIKE = ("X", "Z", "CNOT", "TOFFOLI")


@st.composite
def gate_words(draw):
    """Words of width 1-5 and up to 8 gates over every gate name, QFT on
    any wire subset in any order."""
    width = draw(st.integers(1, 5))
    pool = draw(st.sampled_from([GATE_NAMES, PERMUTATION_LIKE]))
    names = [n for n in pool if gates.wire_count(n) <= width]
    specs = []
    for _ in range(draw(st.integers(0, 8))):
        name = draw(st.sampled_from(names))
        k = draw(st.integers(1, width)) if name == "QFT" else gates.wire_count(name)
        wires = draw(st.permutations(range(width)))[:k]
        param = (draw(st.floats(-2 * math.pi, 2 * math.pi))
                 if name in ("R", "XX") else None)
        specs.append(GateSpec(name, wires, param))
    return GateWord(width, tuple(specs))


@settings(max_examples=200, deadline=None)
@given(gate_words())
def test_compose_word_matches_dense_embeddings(word):
    want = np.eye(2 ** word.width, dtype=complex)
    for spec in word.word:
        want = helpers.dense_embedding(spec, word.width) @ want
    got = gates.compose_word(word).matrix
    if all(s.name in PERMUTATION_LIKE for s in word.word):
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-12


def _seeded_words(count: int, seed: int) -> list[GateWord]:
    """Words of width 1-5 and up to 8 gates over every gate name, QFT on
    any wire subset in any order, drawn from one seeded generator."""
    rnd = helpers.rng(seed)
    words = []
    for _ in range(count):
        width = int(rnd.integers(1, 6))
        names = [n for n in GATE_NAMES if gates.wire_count(n) <= width]
        specs = []
        for _ in range(int(rnd.integers(0, 9))):
            name = names[int(rnd.integers(len(names)))]
            k = int(rnd.integers(1, width + 1)) if name == "QFT" else gates.wire_count(name)
            wires = tuple(int(w) for w in rnd.permutation(width)[:k])
            param = float(rnd.uniform(-2 * math.pi, 2 * math.pi)) if name in ("R", "XX") else None
            specs.append(GateSpec(name, wires, param))
        words.append(GateWord(width, tuple(specs)))
    return words


def test_compose_word_equals_the_letter_loop_bit_for_bit():
    words = _seeded_words(400, 21)
    assert {s.name for w in words for s in w.word} == set(GATE_NAMES)
    assert {w.width for w in words} == {1, 2, 3, 4, 5}
    for word in words:
        assert np.array_equal(gates.compose_word(word).matrix, helpers.compose_word_loop(word))


def _kernel_callers() -> set[str]:
    """Every top-level function or method in src/qclogic that calls
    ``_apply``, as "module.function"."""
    callers = set()
    for path in sorted(pathlib.Path(gates.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            defs = [top] if isinstance(top, ast.FunctionDef) else [
                d for d in getattr(top, "body", ()) if isinstance(d, ast.FunctionDef)]
            for fn in defs:
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and "_apply" in (
                            getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                        callers.add(f"{path.stem}.{fn.name}")
    return callers


def test_only_the_word_engine_multiplies_words_with_the_kernel():
    # compose_word and quotient both multiply words through _evolve_words;
    # the other callers apply single gates
    assert _kernel_callers() == {"gates._evolve_words", "gates.elementary",
                                 "gates.toffoli_truth_value", "algorithms.deutsch_jozsa"}


def test_elementary_matches_dense_embedding_exactly():
    for spec in (GateSpec("QFT", (2, 0, 3)), GateSpec("XX", (3, 1), 0.7),
                 GateSpec("TOFFOLI", (2, 3, 0)), GateSpec("R", (2,), 1.3),
                 GateSpec("CNOT", (3, 0)), GateSpec("H", (1,))):
        assert np.array_equal(gates.elementary(spec, 4).matrix,
                              helpers.dense_embedding(spec, 4))


def test_register_dim_refuses_past_the_cap():
    assert gates.register_dim(1) == 2 and gates.register_dim(10) == 1024
    for width in (0, -3):
        with pytest.raises(InvalidWire, match=rf"^width must be >= 1, got {width}$"):
            gates.register_dim(width)
    with pytest.raises(SizeCapExceeded, match=r"^dimension 2048 exceeds cap 1024$"):
        gates.register_dim(11)
    start = time.perf_counter()
    for width in (100_000, 100_000_000):
        with pytest.raises(SizeCapExceeded,
                           match=rf"^dimension 2\*\*{width} exceeds cap 1024$"):
            gates.compose_word(GateWord(width, (GateSpec("H", (0,)),)))
        with pytest.raises(SizeCapExceeded, match="exceeds cap 1024"):
            gates.elementary(GateSpec("H", (0,)), width)
    assert time.perf_counter() - start < 0.5


def test_permutation_gate():
    swap = gates.permutation_gate([0, 2, 1, 3])
    want = _mat("CNOT", (0, 1), 2) @ _mat("CNOT", (1, 0), 2) @ _mat("CNOT", (0, 1), 2)
    assert np.max(np.abs(swap.matrix - want)) < 1e-12
    with pytest.raises(ValidationFailure):
        gates.permutation_gate([0, 0, 1])


def test_parse_word_variants():
    w = gates.parse_word("width=2; H[0]; CNOT[0,1]; R(1.5708)[1]")
    assert w.width == 2 and len(w) == 3
    assert w.word[2].param == pytest.approx(1.5708)
    bare = gates.parse_word("H;H")
    assert bare.width == 1 and len(bare) == 2
    assert gates.parse_word("").width == 1 and len(gates.parse_word("")) == 0
    assert gates.parse_word("", default_width=2).width == 2
    inferred = gates.parse_word("CNOT[1,2]")
    assert inferred.width == 3
    assert gates.parse_word("cnot").word[0].name == "CNOT"


def test_parse_word_errors():
    for bad in ("H[", "H(x)", "R(1.0)[a]", "width=2; width=2", "H; width=2", "5H"):
        with pytest.raises((ParseError, UnknownGate, ValidationFailure)):
            gates.parse_word(bad)


def test_format_word_roundtrip():
    gen = helpers.rng(43)
    g2 = gates.generator_set("G2", phases=[0.25, 1.5])
    for word in gates.enumerate_polynomials(g2, 2, 2, max_words=100_000)[::37]:
        text = gates.format_word(word)
        again = gates.parse_word(text)
        assert again == word
    word = gates.parse_word("width=1; R(0.1234567890123456)[0]; R(1)[0]")
    assert gates.format_word(word) == "width=1; R(0.1234567890123456)[0]; R(1)[0]"
    assert gates.parse_word(gates.format_word(word)) == word


@settings(max_examples=300, deadline=None)
@given(gate_words())
def test_format_word_roundtrip_on_every_gate(word):
    assert gates.parse_word(gates.format_word(word)) == word


def test_enumerate_g1_counts_and_order():
    g1 = gates.generator_set("G1")
    words = gates.enumerate_polynomials(g1, 1, 1)
    assert [gates.format_word(w) for w in words] == [
        "width=1", "width=1; H[0]", "width=1; T[0]"]
    assert len(gates.enumerate_polynomials(g1, 1, 2)) == 7


def test_enumerate_g2_width2_single_phase():
    g2 = gates.generator_set("G2", phases=[np.pi / 2])
    words = gates.enumerate_polynomials(g2, 2, 1)
    assert len(words) == 7  # empty word, 2 CNOT orientations, 2 H, 2 R


def test_enumeration_is_prefix_closed_and_deterministic():
    g1 = gates.generator_set("G1")
    words = gates.enumerate_polynomials(g1, 1, 3)
    texts = [gates.format_word(w) for w in words]
    assert texts == [gates.format_word(w) for w in gates.enumerate_polynomials(g1, 1, 3)]
    seen = set(texts)
    for w in words:
        for cut in range(len(w)):
            prefix = GateWord(w.width, w.word[:cut])
            assert gates.format_word(prefix) in seen
    # (length, lexicographic): lengths never decrease
    lengths = [len(w) for w in words]
    assert lengths == sorted(lengths)


def test_enumeration_caps_and_unbounded():
    g1 = gates.generator_set("G1")
    with pytest.raises(EnumerationCapExceeded):
        gates.enumerate_polynomials(g1, 1, 10, max_words=100)
    g3 = gates.generator_set("G3")   # no phase grid given
    with pytest.raises(UnboundedParameter):
        gates.enumerate_polynomials(g3, 2, 1)


@pytest.mark.parametrize("name", ["H", "T", "X", "Z", "R", "CNOT", "XX", "TOFFOLI", "QFT"])
def test_placement_counts_equal_the_listings(name):
    for width in range(1, 7):
        count, placements = gates._placements(name, width)
        placements = list(placements)
        assert count == len(placements) == len(set(placements))


def test_enumeration_cap_comes_before_the_alphabet():
    g2 = gates.generator_set("G2", phases=[0.5])
    letters = 1500 * 1499 + 1500 + 1500     # CNOT placements, H, R
    start = time.perf_counter()
    with pytest.raises(EnumerationCapExceeded) as exc:
        gates.enumerate_polynomials(g2, 1500, 1)
    assert time.perf_counter() - start < 0.1
    assert str(exc.value) == f"more than 100000 words over {letters} letters up to length 1"


def test_g3_with_grid_enumerates_symmetric_pairs():
    g3 = gates.generator_set("G3", phases=[0.5])
    words = gates.enumerate_polynomials(g3, 3, 1)
    # XX on unordered pairs: (0,1) (0,2) (1,2); R on each wire
    assert len(words) == 1 + 3 + 3
    xx_wires = sorted(w.word[0].wires for w in words
                      if len(w) == 1 and w.word[0].name == "XX")
    assert xx_wires == [(0, 1), (0, 2), (1, 2)]


def test_toffoli_truth_value_and_table():
    zero = qcore.DensityOperator(np.diag([1.0, 0.0]))
    one = qcore.DensityOperator(np.diag([0.0, 1.0]))
    table = {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 1.0}
    states = {0: zero, 1: one}
    for (a, b), want in table.items():
        assert gates.toffoli_truth_value(states[a], states[b]) == want


def test_toffoli_truth_value_plus_plus():
    plus = qcore.DensityOperator(helpers.KET_PLUS)
    got = gates.toffoli_truth_value(plus, plus)
    # independent route: build the 8x8 permutation and trace directly
    perm = np.zeros((8, 8))
    for x in range(8):
        perm[helpers.classical_step("TOFFOLI", (0, 1, 2), x, 3), x] = 1.0
    state = np.kron(np.kron(helpers.KET_PLUS, helpers.KET_PLUS),
                    helpers.basis_state(2, 0))
    event = np.kron(np.eye(4), helpers.basis_state(2, 1))
    want = helpers.truth_value_oracle(perm, state, event)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.25, abs=1e-12)


def test_toffoli_truth_value_randomized_range():
    gen = helpers.rng(47)
    for _ in range(25):
        rho = qcore.DensityOperator(helpers.random_density(gen, 2))
        sigma = qcore.DensityOperator(helpers.random_density(gen, 2))
        val = gates.toffoli_truth_value(rho, sigma)
        assert 0.0 <= val <= 1.0
    with pytest.raises(DimensionMismatch):
        gates.toffoli_truth_value(qcore.DensityOperator(np.eye(4) / 4),
                                  qcore.DensityOperator(np.eye(2) / 2))
