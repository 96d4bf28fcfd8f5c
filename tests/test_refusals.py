"""Refusals of caller input, one row each: the call, the exception class
it raises, and the exact message."""

import contextlib
import io

import numpy as np
import pytest

from qclogic import algorithms, classical, gates, logic, omlattice, qcore
from qclogic.cli import build_parser, main
from qclogic.errors import (
    ArityMismatch,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidArgument,
    InvalidSpec,
    InvalidWire,
    LatticeMismatch,
    NotOrthonormalFamily,
    ParseError,
    SizeCapExceeded,
    UnknownInput,
    ValidationFailure,
)
from qclogic.omlattice import (
    MAX_LATTICE,
    ComputationalScheme,
    FiniteOML,
    LatticeAutomorphism,
    ProjectionLattice,
    boolean_oml,
    from_order,
    generalized_equiv,
    identity_automorphism,
    is_superposition,
    mo2_oml,
    point_mass_state,
    run_protocol,
)

# the two-element lattice {0, 1} as raw tables
_PAIR = dict(labels=("0", "1"), leq=[[1, 1], [0, 1]], meet=[[0, 0], [0, 1]],
             join=[[0, 1], [1, 1]], ortho=[1, 0], zero=0, one=1)


def _pair(**changes) -> FiniteOML:
    return FiniteOML(**{**_PAIR, **changes})


# each helper builds a lattice of its own; an argument of None means that
# lattice, any other lattice is a different object


def _scheme(state_lattice, generator_lattice) -> ComputationalScheme:
    lat = boolean_oml(1)
    return ComputationalScheme(lat, (point_mass_state(state_lattice or lat, 1),),
                               (identity_automorphism(generator_lattice or lat),))


def _generalized(element, state_lattice):
    lat = boolean_oml(1)
    auto = identity_automorphism(lat)
    return generalized_equiv(auto, auto, point_mass_state(state_lattice or lat, 1),
                             element=element)


def _superposition():
    lat = boolean_oml(1)
    return is_superposition(point_mass_state(lat, 1),
                            [point_mass_state(boolean_oml(1), 1)])


def _machine() -> classical.StochasticOutput:
    return classical.StochasticOutput(1, 1, {"0": (1.0, 0.0), "1": (0.0, 1.0)})


def _words(*texts):
    return [gates.parse_word(t) for t in texts]


def _cli_verb(*argv):
    args = build_parser().parse_args(argv)
    return args.fn(args)


# no pair of atoms has a join, so a repeated label must be refused first
_TWO_ATOMS_UNDER_TWO_COATOMS = np.eye(6, dtype=bool)
_TWO_ATOMS_UNDER_TWO_COATOMS[0, :] = _TWO_ATOMS_UNDER_TWO_COATOMS[:, 5] = True
_TWO_ATOMS_UNDER_TWO_COATOMS[1:3, 3:5] = True

_X0 = classical.Var(0)
_P0 = qcore.Projector(np.diag([1.0, 0.0]))

REFUSALS = [
    # FiniteOML and the lattices built on it
    ("FiniteOML, no elements",
     lambda: FiniteOML((), [], [], [], [], 0, 0),
     ValidationFailure, "invariant 'nonempty' violated by 0.000e+00 (lattice needs elements)"),
    ("FiniteOML, past the hard cap",
     lambda: FiniteOML([str(i) for i in range(MAX_LATTICE + 1)], [], [], [], [], 0, 0),
     SizeCapExceeded, f"{MAX_LATTICE + 1} elements exceeds hard cap {MAX_LATTICE}"),
    ("FiniteOML, a table of the wrong shape",
     lambda: _pair(meet=[[0, 0]]),
     ValidationFailure,
     "invariant 'table-shape' violated by 0.000e+00 (meet has shape (1, 2), want (2, 2))"),
    ("FiniteOML, a table index out of range",
     lambda: _pair(join=[[0, 1], [1, 2]]),
     ValidationFailure, "invariant 'table-range' violated by 0.000e+00 (join indexes out of range)"),
    ("FiniteOML, zero out of range",
     lambda: _pair(zero=2),
     IndexOutOfRange, "zero/one 2/1 out of range"),
    ("FiniteOML, one out of range",
     lambda: _pair(one=-1),
     IndexOutOfRange, "zero/one 0/-1 out of range"),
    ("from_order, past its cap",
     lambda: from_order(("0", "a", "1"), np.eye(3), [2, 1, 0], 0, 2, max_elements=2),
     SizeCapExceeded, "3 elements exceeds cap 2"),
    ("from_order, an order of the wrong shape",
     lambda: from_order(("0", "1"), np.eye(3), [1, 0], 0, 1),
     ValidationFailure, "invariant 'table-shape' violated by 0.000e+00 (leq is (3, 3))"),
    ("from_order, a repeated label",
     lambda: from_order(tuple("0xxpq1"), _TWO_ATOMS_UNDER_TWO_COATOMS, [5, 0, 0, 0, 0, 0], 0, 5),
     ValidationFailure, "invariant 'labels-unique' violated by 0.000e+00"),
    ("projection_oml, a negative dimension",
     lambda: omlattice.projection_oml(-1, []),
     ValidationFailure, "invariant 'nonempty' violated by 0.000e+00"),
    ("projection_oml, dimension zero",
     lambda: omlattice.projection_oml(0, []),
     ValidationFailure, "invariant 'nonempty' violated by 0.000e+00"),
    ("projection_oml, a dimension past the cap",
     lambda: omlattice.projection_oml(qcore.MAX_DIM + 1, []),
     SizeCapExceeded, f"dimension {qcore.MAX_DIM + 1} exceeds cap {qcore.MAX_DIM}"),
    ("lattice_from_json, a repeated label",
     lambda: omlattice.lattice_from_json(
         {"elements": ["0", "a", "a", "1"], "leq": {"0": ["a", "1"], "a": ["1"]},
          "ortho": {"0": "1", "a": "a", "1": "0"}, "zero": "0", "one": "1"}),
     ValidationFailure, "invariant 'labels-unique' violated by 0.000e+00"),
    ("boolean-recover, no case",
     lambda: _cli_verb("boolean-recover", "--cases", "0"),
     InvalidArgument, "cases must be >= 1, got 0"),
    ("lattice-verify, a Boolean lattice of no integer size",
     lambda: _cli_verb("lattice-verify", "--builtin", "boolean:x"),
     ParseError, "bad integer in 'boolean:x'"),
    ("truth-table, a basis state of no integer index",
     lambda: _cli_verb("truth-table", "H", "--state", "basis:x"),
     ParseError, "bad integer in 'basis:x'"),
    ("truth-table, a basis event of no index",
     lambda: _cli_verb("truth-table", "H", "--state", "basis:0", "--event", "basis:"),
     ParseError, "bad integer in 'basis:'"),
    ("ProjectionLattice, a matrix missing",
     lambda: ProjectionLattice(**_PAIR, dim=2, matrices=(np.zeros((2, 2)),)),
     ValidationFailure, "invariant 'matrices' violated by 0.000e+00 (one matrix per element)"),
    ("LatticeAutomorphism, a mapping of the wrong length",
     lambda: LatticeAutomorphism(mo2_oml(), [0, 1, 2]),
     ValidationFailure, "invariant 'automorphism-shape' violated by 0.000e+00 ((3,) vs (6,))"),
    ("generalized_equiv, an element out of range",
     lambda: _generalized(99, None),
     IndexOutOfRange, "element 99 out of range"),
    ("generalized_equiv, a state on another lattice",
     lambda: _generalized(None, boolean_oml(1)),
     LatticeMismatch, "state 0 lives on a different lattice"),
    ("is_superposition, a family state on another lattice",
     _superposition,
     LatticeMismatch, "family state lives on a different lattice"),
    ("ComputationalScheme, a state on another lattice",
     lambda: _scheme(boolean_oml(1), None),
     LatticeMismatch, "state built on a different lattice"),
    ("ComputationalScheme, a generator on another lattice",
     lambda: _scheme(None, boolean_oml(1)),
     LatticeMismatch, "generator built on a different lattice"),
    ("compose_automorphisms, no automorphism",
     lambda: omlattice.compose_automorphisms([]),
     InvalidArgument, "empty automorphism word"),
    ("generalized_equiv, no state",
     lambda: (lambda auto: generalized_equiv(auto, auto, []))(
         identity_automorphism(mo2_oml())),
     InvalidArgument, "need at least one state"),
    ("run_protocol, a readout out of range",
     lambda: run_protocol(_scheme(None, None), [0], readout=[99]),
     IndexOutOfRange, "readout element 99 out of range"),
    ("run_protocol, a readout that is no integer",
     lambda: run_protocol(_scheme(None, None), [0], readout=[1.9]),
     IndexOutOfRange, "readout element 1.9 is a float, not an integer"),
    ("run_protocol, a generator index that is a float",
     lambda: run_protocol(_scheme(None, None), [0.5]),
     IndexOutOfRange, "generator index 0.5 is a float, not an integer"),
    ("run_protocol, a generator index that is a string",
     lambda: run_protocol(_scheme(None, None), ["0"]),
     IndexOutOfRange, "generator index 0 is a str, not an integer"),
    ("generalized_equiv, an element that is no integer",
     lambda: _generalized(0.7, None),
     IndexOutOfRange, "element 0.7 is a float, not an integer"),
    ("compose_automorphisms, a letter that is no automorphism",
     lambda: omlattice.compose_automorphisms([0]),
     InvalidArgument, "word letter 0 is not a LatticeAutomorphism"),
    ("generalized_equiv, a letter that is no automorphism",
     lambda: generalized_equiv([0], [0], point_mass_state(boolean_oml(1), 1)),
     InvalidArgument, "word letter 0 is not a LatticeAutomorphism"),
    # classical
    ("BoolCircuit, a negative arity",
     lambda: classical.BoolCircuit(-1, _X0),
     ArityMismatch, "arity must be >= 0, got -1"),
    ("BoolCircuit, an arity that is a string",
     lambda: classical.BoolCircuit("2", _X0),
     ArityMismatch, "arity '2' is a str, not an integer"),
    ("BoolCircuit, an arity that is a float",
     lambda: classical.BoolCircuit(1.5, _X0),
     ArityMismatch, "arity 1.5 is a float, not an integer"),
    ("BoolCircuit, an input index that is a string",
     lambda: classical.BoolCircuit(1, classical.Var("0")),
     ArityMismatch, "input '0' is a str, not an integer"),
    ("BoolCircuit, an input index that is a float",
     lambda: classical.BoolCircuit(1, classical.Not(classical.Var(0.5))),
     ArityMismatch, "input 0.5 is a float, not an integer"),
    ("parse_circuit, text nested past the recursion limit",
     lambda: classical.parse_circuit("(not " * 5000 + "x0" + ")" * 5000),
     ParseError, "circuit nested too deeply"),
    ("from_circuits, a table past 64 input bits",
     lambda: classical.from_circuits([classical.BoolCircuit(65, _X0)]),
     SizeCapExceeded,
     "a table on 65 input and 1 output bits has more than 2**64 rows or entries"),
    ("BoolCircuit, a node that is no expression",
     lambda: classical.BoolCircuit(1, "x0"),
     ValidationFailure, "invariant 'circuit-node' violated by 0.000e+00 (bad node 'x0')"),
    ("StochasticOutput, a negative width",
     lambda: classical.StochasticOutput(1, -1, {}),
     ValidationFailure, "invariant 'register-size' violated by 0.000e+00 (negative width)"),
    ("StochasticOutput, a row that is a string",
     lambda: classical.StochasticOutput(1, 1, {"0": "10", "1": "01"}),
     ValidationFailure,
     "invariant 'row-entries' violated by 0.000e+00 (row '0' is a str, not numbers)"),
    ("StochasticOutput, a row that is bytes",
     lambda: classical.StochasticOutput(1, 1, {"0": (1.0, 0.0), "1": b"01"}),
     ValidationFailure,
     "invariant 'row-entries' violated by 0.000e+00 (row '1' is a bytes, not numbers)"),
    ("StochasticOutput, a width past 64 bits",
     lambda: classical.StochasticOutput(65, 1, {}),
     SizeCapExceeded,
     "a table on 65 input and 1 output bits has more than 2**64 rows or entries"),
    ("from_circuits, no circuit",
     lambda: classical.from_circuits([]),
     ArityMismatch, "need at least one circuit"),
    ("from_circuits, two arities",
     lambda: classical.from_circuits([classical.BoolCircuit(1, _X0),
                                      classical.BoolCircuit(2, _X0)]),
     ArityMismatch, "arity 2 vs 1"),
    ("EventSubset, a member of the wrong width",
     lambda: classical.EventSubset(1, {"01"}),
     ValidationFailure, "invariant 'event-member' violated by 0.000e+00 ('01' is not a 1-bit word)"),
    ("check_kolmogorov, an unknown input",
     lambda: classical.check_kolmogorov(_machine(), "00"),
     UnknownInput, "no row for input '00'"),
    ("eval_gate, an unknown gate",
     lambda: classical.eval_gate("xor", (0, 1)),
     InvalidArgument, "unknown gate 'xor'; expected or/and/not"),
    ("eval_gate, an argument that is no bit",
     lambda: classical.eval_gate("or", (0, 2)),
     InvalidArgument, "arguments must be bits, got (0, 2)"),
    ("eval_circuit, an input that is no bitstring",
     lambda: classical.eval_circuit(classical.BoolCircuit(1, _X0), "2"),
     InvalidArgument, "input must be a bitstring, got '2'"),
    ("sample_output, an unknown input",
     lambda: classical.sample_output(_machine(), "2", rng=np.random.default_rng(0)),
     UnknownInput, "no row for input '2'"),
    # algorithms
    ("OracleFunction, a key that is no string",
     lambda: algorithms.OracleFunction(1, 1, {0: "0", 1: "1"}),
     ValidationFailure, "invariant 'oracle-key' violated by 0.000e+00 (0 is not a 1-bit word)"),
    ("OracleFunction, a value that is a list",
     lambda: algorithms.OracleFunction(1, 1, {"0": ["0"], "1": ["1"]}),
     ValidationFailure,
     "invariant 'oracle-value' violated by 0.000e+00 (['0'] is not a 1-bit word)"),
    ("PeriodicSpec, a modulus that is a float",
     lambda: algorithms.PeriodicSpec(4.0, 2, (1, 2, 1, 2)),
     InvalidSpec, "N and r must be integers: expected an integer, got float"),
    ("PeriodicSpec, a period that is a bool",
     lambda: algorithms.PeriodicSpec(4, True, (1, 1, 1, 1)),
     InvalidSpec, "N and r must be integers: expected an integer, got bool"),
    # gates and logic
    ("enumerate_polynomials, no wires",
     lambda: gates.enumerate_polynomials(gates.generator_set("G1"), 0, 1),
     InvalidWire, "width must be >= 1, got 0"),
    ("quotient, words of two widths",
     lambda: logic.quotient(_words("H", "width=2; H[1]"), "equiv_rho",
                            qcore.DensityOperator(np.eye(2) / 2)),
     DimensionMismatch, "word widths differ: 2 vs 1"),
    ("quotient, a relation it does not support",
     lambda: logic.quotient(_words("H"), "equiv_total", qcore.DensityOperator(np.eye(2) / 2)),
     InvalidArgument, "quotient supports equiv_rho and equiv_rho_P, got 'equiv_total'"),
    ("quotient, equiv_rho_P with no event",
     lambda: logic.quotient(_words("H"), "equiv_rho_P", qcore.DensityOperator(np.eye(2) / 2)),
     InvalidArgument, "equiv_rho_P needs an event"),
    ("generator_set, an unknown label",
     lambda: gates.generator_set("G4"),
     InvalidArgument, "unknown generator set 'G4'; expected G1, G2 or G3"),
    ("GateSpec, a wire that is no integer",
     lambda: gates.GateSpec("H", ("a",), None),
     InvalidWire, "invalid literal for int() with base 10: 'a'"),
    ("EquivalenceReport, an unknown relation",
     lambda: logic.EquivalenceReport("equiv_everything", True, 1e-9),
     InvalidArgument, "unknown relation 'equiv_everything'"),
    ("enumerate_polynomials, a negative length",
     lambda: gates.enumerate_polynomials(gates.generator_set("G1"), 1, -1),
     InvalidArgument, "max_len must be >= 0, got -1"),
    # qcore
    ("validate, an unknown kind",
     lambda: qcore.validate([[1]], "operator"),
     InvalidArgument,
     "unknown kind 'operator'; expected one of ['density', 'projector', 'unitary']"),
    ("validate, an entry that is no number",
     lambda: qcore.validate([["a"]], "density"),
     ValidationFailure,
     "invariant 'numeric' violated by 0.000e+00 (complex() arg is a malformed string)"),
    ("OperatorAlgebraBasis, an element of another dimension",
     lambda: qcore.OperatorAlgebraBasis(2, (np.eye(3),)),
     DimensionMismatch, "basis element dim 3 vs declared 2"),
    ("OperatorAlgebraBasis, dependent elements",
     lambda: qcore.OperatorAlgebraBasis(2, (np.eye(2), 2 * np.eye(2))),
     ValidationFailure, "invariant 'independent' violated by 1.000e+00 (basis is linearly dependent)"),
    ("OperatorAlgebraBasis.contains, a matrix of another dimension",
     lambda: qcore.OperatorAlgebraBasis(2, (np.eye(2),)).contains(np.eye(3)),
     DimensionMismatch, "dim 3 vs 2"),
    ("boolean_projections, no family",
     lambda: qcore.boolean_projections([]),
     NotOrthonormalFamily, "empty family"),
    ("boolean_projections, a member that is no projector",
     lambda: qcore.boolean_projections([_P0, np.diag([0.0, 1.0])]),
     NotOrthonormalFamily, "family members must be projectors"),
    ("boolean_projections, members of two dimensions",
     lambda: qcore.boolean_projections([_P0, qcore.Projector(np.eye(3))]),
     DimensionMismatch, "member dim 3 vs 2"),
    ("_pairing, a state of another dimension",
     lambda: qcore._pairing(np.eye(4) / 4, _P0, 1e-9),
     DimensionMismatch, "state dim 4 vs event dim 2"),
]


@pytest.mark.parametrize("call, cls, message",
                         [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal(call, cls, message):
    with pytest.raises(cls) as err:
        call()
    assert type(err.value) is cls
    assert str(err.value) == message


def test_the_cli_exits_2_on_a_refused_argument(capsys):
    code = main(["quotient", "--generators", "G1", "--max-len", "-1", "--state", "basis:0"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: max_len must be >= 0, got -1\n")


def test_the_empty_basis_contains_only_zero():
    empty = qcore.OperatorAlgebraBasis(2, ())
    assert empty.contains(np.zeros((2, 2))) is True
    assert empty.contains(np.eye(2)) is False


def test_generalized_report_json_keeps_the_fields_that_are_set():
    lat = boolean_oml(1)
    swap = omlattice.permutation_automorphism(lat, [1, 0])
    ident = identity_automorphism(lat)
    nu = point_mass_state(lat, 1)
    failed = generalized_equiv(ident, swap, nu)
    assert failed.to_json_dict() == {
        "relation": "generalized_equiv", "holds": False, "tolerance": 1e-9,
        "lhs": 1.0, "rhs": 0.0, "witness_element": lat.labels[1]}
    held = generalized_equiv(ident, ident, [nu, nu], element=lat.one)
    assert held.to_json_dict() == {
        "relation": "generalized_equiv", "holds": True, "tolerance": 1e-9}


def _table(argv) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + ["--format", "table"]) == 0
    return out.getvalue().splitlines()


def test_table_format_numbers_list_items():
    assert _table(["quotient", "--word", "H", "--word", "H; H", "--word", "",
                   "--state", "basis:0", "--relation", "equiv_rho"]) == [
        "classes.0.0 = width=1; H[0]",
        "classes.1.0 = width=1; H[0]; H[0]",
        "classes.1.1 = width=1",
        "count = 2",
        "relation = equiv_rho"]
    lines = _table(["lattice-verify", "--builtin", "mo2"])
    assert lines[:3] == ["elements = 6", "laws.0.holds = True", "laws.0.law = reflexive"]


def test_a_bijection_that_breaks_meets_is_refused():
    # the Boolean lattice of subsets of {0, 1, 2}, element k the bitmask k
    masks = np.arange(8)
    leq = (masks[:, None] & ~masks[None, :]) == 0
    lat = from_order([str(k) for k in masks], leq, 7 - masks, 0, 7)
    # {0} and {1, 2} are complements, so swapping them fixes the bounds and
    # the orthocomplement, but {0} ^ {1} = 0 while {1, 2} ^ {1} = {1}
    mapping = masks.copy()
    mapping[[1, 6]] = [6, 1]
    with pytest.raises(ValidationFailure) as err:
        LatticeAutomorphism(lat, mapping)
    assert err.value.invariant == "meet-homomorphism"
