import ast
import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from qclogic import classical, gates
from qclogic.classical import (
    And,
    BoolCircuit,
    EventSubset,
    Not,
    Or,
    StochasticOutput,
    Var,
)
from qclogic.errors import (
    ArityMismatch,
    GroundMismatch,
    ParseError,
    QclError,
    SizeCapExceeded,
    UnknownInput,
    ValidationFailure,
)


def test_eval_gate_full_tables():
    assert classical.eval_gate("not", (0,)) == 1
    assert classical.eval_gate("not", (1,)) == 0
    assert classical.eval_gate("or", (0, 0)) == 0
    assert classical.eval_gate("or", (0, 1)) == 1
    assert classical.eval_gate("or", (1, 0)) == 1
    assert classical.eval_gate("or", (1, 1)) == 1
    assert classical.eval_gate("and", (0, 0)) == 0
    assert classical.eval_gate("and", (0, 1)) == 0
    assert classical.eval_gate("and", (1, 0)) == 0
    assert classical.eval_gate("and", (1, 1)) == 1


def test_eval_gate_errors():
    with pytest.raises(ValueError):
        classical.eval_gate("xor", (0, 1))
    with pytest.raises(ArityMismatch):
        classical.eval_gate("not", (0, 1))
    with pytest.raises(ValueError):
        classical.eval_gate("or", (0, 2))


def test_eval_circuit_basics():
    c = BoolCircuit(2, Or(Not(Var(0)), And(Var(0), Var(1))))
    # implication x0 -> x1
    assert [classical.eval_circuit(c, x) for x in ("00", "01", "10", "11")] == [1, 1, 0, 1]
    with pytest.raises(ArityMismatch):
        classical.eval_circuit(c, "000")


def test_circuit_validates_indices():
    with pytest.raises(ArityMismatch):
        BoolCircuit(1, Var(1))


def test_equal_functions_and_witness():
    f = BoolCircuit(2, Or(Var(0), Var(1)))
    g = BoolCircuit(2, And(Var(0), Var(1)))
    ok, witness = classical.equal_functions(f, g)
    assert not ok
    # first differing input in ascending order; leftmost character is x0
    assert witness == "01"
    ok, witness = classical.equal_functions(f, f)
    assert ok and witness is None


def test_equal_functions_de_morgan():
    lhs = BoolCircuit(2, Not(Or(Var(0), Var(1))))
    rhs = BoolCircuit(2, And(Not(Var(0)), Not(Var(1))))
    ok, _ = classical.equal_functions(lhs, rhs)
    assert ok


def test_equal_functions_arity_and_cap():
    f = BoolCircuit(2, Var(0))
    g = BoolCircuit(3, Var(0))
    with pytest.raises(ArityMismatch):
        classical.equal_functions(f, g)
    big = BoolCircuit(21, Var(0))
    with pytest.raises(SizeCapExceeded):
        classical.equal_functions(big, big)


def test_parse_and_print_roundtrip():
    text = "(or (not x0) (and x0 x1))"
    c = classical.parse_circuit(text)
    assert c.arity == 2
    assert classical.circuit_to_text(c) == text
    again = classical.parse_circuit(classical.circuit_to_text(c))
    ok, _ = classical.equal_functions(c, again)
    assert ok


def test_parse_errors():
    for bad in ("", "(or x0)", "(xor x0 x1)", "(not x0))", "(and x0 x1", "y0"):
        with pytest.raises(ParseError):
            classical.parse_circuit(bad)


def test_stochastic_validation():
    StochasticOutput(1, 1, {"0": (1.0, 0.0), "1": (0.5, 0.5)})
    with pytest.raises(ValidationFailure) as exc:
        StochasticOutput(1, 1, {"0": (0.9, 0.0), "1": (0.5, 0.5)})
    assert exc.value.invariant == "row-sum"
    assert exc.value.magnitude == pytest.approx(0.1)
    with pytest.raises(ValidationFailure):
        StochasticOutput(1, 1, {"0": (1.5, -0.5), "1": (0.5, 0.5)})
    with pytest.raises(ValidationFailure):
        StochasticOutput(1, 1, {"0": (1.0, 0.0)})
    with pytest.raises(UnknownInput):
        StochasticOutput(1, 1, {"0": (1.0, 0.0), "1": (1.0, 0.0), "22": (1.0, 0.0)})


def test_from_circuits_point_mass():
    inc = classical.from_circuits([
        BoolCircuit(2, And(Var(0), Var(1))),
        BoolCircuit(2, Or(Var(0), Var(1))),
    ])
    assert inc.input_bits == 2 and inc.output_bits == 2
    # on input 01: and=0, or=1 so output word 01 deterministic
    assert inc.table["01"] == (0.0, 1.0, 0.0, 0.0)


def test_induced_measure_examples():
    uniform = StochasticOutput(1, 2, {
        "0": (0.25, 0.25, 0.25, 0.25),
        "1": (0.5, 0.0, 0.0, 0.5),
    })
    empty = EventSubset(2, frozenset())
    full = EventSubset(2, frozenset(["00", "01", "10", "11"]))
    pair = EventSubset(2, frozenset(["00", "11"]))
    assert classical.induced_measure(uniform, "0", empty) == 0.0
    assert classical.induced_measure(uniform, "0", full) == pytest.approx(1.0)
    assert classical.induced_measure(uniform, "0", pair) == pytest.approx(0.5)
    assert classical.induced_measure(uniform, "1", pair) == pytest.approx(1.0)
    with pytest.raises(UnknownInput):
        classical.induced_measure(uniform, "2", pair)
    with pytest.raises(GroundMismatch):
        classical.induced_measure(uniform, "0", EventSubset(3, frozenset()))


def test_induced_measure_monotone_and_additive():
    gen = helpers.rng(3)
    rows = {}
    for x in classical.all_inputs(2):
        raw = gen.random(8)
        rows[x] = tuple(raw / raw.sum())
    machine = StochasticOutput(2, 3, rows)
    ground = classical.all_inputs(3)
    for _ in range(50):
        colors = gen.integers(0, 3, size=8)
        a = EventSubset(3, frozenset(y for y, c in zip(ground, colors) if c == 0))
        b = EventSubset(3, frozenset(y for y, c in zip(ground, colors) if c == 1))
        union = EventSubset(3, a.members | b.members)
        mu_a = classical.induced_measure(machine, "01", a)
        mu_b = classical.induced_measure(machine, "01", b)
        mu_u = classical.induced_measure(machine, "01", union)
        assert mu_u == pytest.approx(mu_a + mu_b, abs=1e-12)
        assert mu_a <= mu_u + 1e-12


def test_induced_measure_is_deterministic():
    rows = {"": (0.1, 0.2, 0.3, 0.4)}
    machine = StochasticOutput(0, 2, rows)
    event = EventSubset(2, frozenset(["11", "00", "10"]))
    values = {classical.induced_measure(machine, "", event) for _ in range(10)}
    assert len(values) == 1


def test_check_kolmogorov_valid_table():
    gen = helpers.rng(9)
    rows = {}
    for x in classical.all_inputs(2):
        raw = gen.random(4)
        rows[x] = tuple(raw / raw.sum())
    machine = StochasticOutput(2, 2, rows)
    report = classical.check_kolmogorov(machine, "10", trials=100, seed=4)
    assert report.max_gap <= 1e-9
    assert report.trials == 100


def test_check_kolmogorov_point_mass_exact():
    machine = classical.from_circuits([BoolCircuit(1, Not(Var(0)))])
    report = classical.check_kolmogorov(machine, "0", trials=50, seed=0)
    assert report.max_gap == 0.0


def test_point_mass_additivity_brute_force():
    # all subset pairs at N=2, exactly
    machine = classical.from_circuits([
        BoolCircuit(2, Var(0)), BoolCircuit(2, Var(1))])
    ground = classical.all_inputs(2)
    subsets = []
    for mask in range(16):
        subsets.append(frozenset(y for k, y in enumerate(ground) if (mask >> k) & 1))
    for x in classical.all_inputs(2):
        for sa in subsets:
            mu_a = classical.induced_measure(machine, x, EventSubset(2, sa))
            assert mu_a in (0.0, 1.0)
            comp = classical.induced_measure(machine, x, EventSubset(2, sa).complement())
            assert mu_a + comp == 1.0
            for sb in subsets:
                if sa & sb:
                    continue
                mu_b = classical.induced_measure(machine, x, EventSubset(2, sb))
                mu_u = classical.induced_measure(machine, x, EventSubset(2, sa | sb))
                assert mu_u == mu_a + mu_b


def test_sample_output_seeded():
    machine = StochasticOutput(1, 1, {"0": (0.5, 0.5), "1": (0.0, 1.0)})
    gen = helpers.rng(0)
    draws = [classical.sample_output(machine, "1", rng=gen) for _ in range(5)]
    assert draws == ["1"] * 5


def test_machine_json_roundtrip():
    machine = StochasticOutput(1, 1, {"0": (1.0, 0.0), "1": (0.25, 0.75)})
    obj = classical.machine_to_json(machine)
    assert obj["M"] == 1 and obj["N"] == 1
    back = classical.machine_from_json(obj)
    assert back.table == machine.table
    with pytest.raises(ParseError):
        classical.machine_from_json({"M": 1})


def test_an_incomplete_table_is_named_without_listing_every_input():
    # 2**40 input words: the missing row is found among the rows given
    rows = {"0" * 40: (1.0, 0.0), "0" * 39 + "1": (0.0, 1.0)}
    with pytest.raises(ValidationFailure) as exc:
        StochasticOutput(40, 1, rows)
    assert str(exc.value) == ("invariant 'row-complete' violated by 1.100e+12 "
                              f"(missing rows, e.g. {'0' * 38 + '10'!r})")
    with pytest.raises(UnknownInput, match="row key 1 is not a 1-bit word"):
        StochasticOutput(1, 1, {1: (1.0, 0.0)})


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_apply_reversible_agrees_with_compose_word_on_every_placement(width):
    dim = 2 ** width
    for name, arity in (("X", 1), ("CNOT", 2), ("TOFFOLI", 3)):
        for wires in itertools.permutations(range(width), arity):
            word = gates.GateWord(width, (gates.GateSpec(name, wires),))
            u = gates.compose_word(word).matrix
            images = [classical.apply_reversible(name, wires, x, width)
                      for x in range(dim)]
            want = np.zeros((dim, dim))
            want[images, np.arange(dim)] = 1.0
            assert np.array_equal(u, want), (name, wires)


@pytest.mark.parametrize("name, wires", [("H", (0,)), ("CNOT", (0,))])
def test_apply_reversible_refuses_a_gate_that_is_not_classical(name, wires):
    with pytest.raises(ValidationFailure) as err:
        classical.apply_reversible(name, wires, 0, 2)
    assert err.value.invariant == "classical-gate"


# nodes that are no expression, for the fold to refuse
_FOREIGN = ("x0", None, 0, (Var(0),))


@st.composite
def _trees(draw, max_depth=30, max_nodes=40):
    """A tree of depth at most ``max_depth`` over taps x0..x5, with a
    foreign node in about one leaf of forty."""
    budget = [max_nodes]

    def node(depth):
        budget[0] -= 1
        kinds = ("not", "or", "and", "var") if depth < max_depth and budget[0] > 0 else ("var",)
        kind = draw(st.sampled_from(kinds))
        if kind == "var":
            if draw(st.integers(0, 39)) == 0:
                return draw(st.sampled_from(_FOREIGN))
            return Var(draw(st.integers(0, 5)))
        if kind == "not":
            return Not(node(depth + 1))
        return {"or": Or, "and": And}[kind](node(depth + 1), node(depth + 1))

    return node(0)


@settings(max_examples=300, deadline=None)
@given(_trees(), st.integers(0, 6))
def test_the_fold_agrees_with_the_four_walks(root, arity):
    try:
        helpers.circuit_check_walk(arity, root)
    except QclError as exc:
        with pytest.raises(QclError) as err:
            BoolCircuit(arity, root)
        assert (type(err.value), str(err.value)) == (type(exc), str(exc))
        return
    c = BoolCircuit(arity, root)
    for x in classical.all_inputs(arity):
        assert classical.eval_circuit(c, x) == helpers.circuit_value_walk(root, x)
    text = classical.circuit_to_text(c)
    assert text == helpers.circuit_text_walk(root)
    assert classical.parse_circuit(text).arity == helpers.circuit_arity_walk(root)
    assert classical.parse_circuit(text, arity) == c


def _disjunction(last: int) -> BoolCircuit:
    """(or x0 (or x1 (... x1998 x<last>))) on 2,000 inputs."""
    root = Var(last)
    for i in reversed(range(1999)):
        root = Or(Var(i), root)
    return BoolCircuit(2000, root)


def test_a_disjunction_of_2000_inputs_evaluates_and_prints():
    # nested deeper than the recursion limit
    c = _disjunction(1999)
    assert classical.eval_circuit(c, "0" * 1999 + "1") == 1
    assert classical.eval_circuit(c, "0" * 2000) == 0
    text = classical.circuit_to_text(c)
    assert len(text) == 20_884 and text.startswith("(or x0 (or x1 (or x2 ")
    assert text.endswith(" x1999" + ")" * 1999)
    with pytest.raises(ParseError, match="circuit nested too deeply"):
        classical.parse_circuit(text)
    # 2**2000 rows are refused before any input is listed
    with pytest.raises(SizeCapExceeded):
        classical.from_circuits([c])


def test_a_disjunction_of_2000_inputs_compares_hashes_and_reprs():
    c, copy, other = _disjunction(1999), _disjunction(1999), _disjunction(1998)
    assert c == copy and hash(c) == hash(copy)
    assert c != other and c != BoolCircuit(2001, c.root)
    assert len({c, copy, other}) == 2
    text = repr(c)
    assert text.startswith("BoolCircuit(arity=2000, root='(or x0 (or x1 ")
    assert text.endswith(" x1999" + ")" * 1999 + "')")
    assert repr(BoolCircuit(2, Or(Var(0), Not(Var(1))))) == \
        "BoolCircuit(arity=2, root='(or x0 (not x1))')"
    # an index is compared and printed as the integer it stands for
    assert BoolCircuit(2, Var(True)) == BoolCircuit(2, Var(np.int64(1))) == BoolCircuit(2, Var(1))
    assert classical.circuit_to_text(BoolCircuit(2, Var(True))) == "x1"
    # so do the roots themselves, in dataclass's format
    assert c.root == copy.root and hash(c.root) == hash(copy.root)
    assert c.root != other.root and len({c.root, copy.root, other.root}) == 2
    text = repr(c.root)
    assert text.startswith("Or(left=Var(index=0), right=Or(left=Var(index=1), right=Or(")
    assert text.endswith("right=Var(index=1999)" + ")" * 1999)
    assert repr(Or(Var(0), Not(Var(1)))) == "Or(left=Var(index=0), right=Not(child=Var(index=1)))"
    assert Var(True) == Var(np.int64(1)) == Var(1) and hash(Var(True)) == hash(Var(1))
    assert Or(Var(0), Var(1)) != And(Var(0), Var(1)) and Not(Var(0)) != Var(0)
    # a tree with a leaf that is no expression compares and prints as before
    assert Or(Var(0), "x") == Or(Var(0), "x") != Or(Var(0), "y")
    assert repr(And("x", None)) == "And(left='x', right=None)"


def test_only_the_fold_reads_a_nodes_operands():
    readers = {fn.name for fn in ast.walk(ast.parse(inspect.getsource(classical)))
               if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and node.attr in ("child", "left", "right")}
    assert readers == {"_fold"}
