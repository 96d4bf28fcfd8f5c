"""Deterministic and probabilistic classical computing over bit registers.

Circuits are expression trees over OR, AND, NOT and input taps; probabilistic
machines are row-stochastic tables mapping each input word to a distribution
over output words.  The induced measure of an output event is shown to behave
like ordinary probability, and ``check_kolmogorov`` probes that numerically.
The reversible gates X, CNOT and TOFFOLI act on register basis indices by bit
rules in ``apply_reversible``, a route independent of the gate matrices.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, fields
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import (
    ArityMismatch,
    GroundMismatch,
    InvalidArgument,
    ParseError,
    SizeCapExceeded,
    UnknownInput,
    ValidationFailure,
)
from .qcore import _strict_dict, _strict_int, _strict_list

# truth tables of the generating gates, written out rather than derived
_NOT = {(0,): 1, (1,): 0}
_OR = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}
_AND = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}
_GATES = {"not": _NOT, "or": _OR, "and": _AND}


def eval_gate(name: str, args: Sequence[int]) -> int:
    """Evaluate one generating gate by table lookup."""
    try:
        table = _GATES[name.lower()]
    except KeyError:
        raise InvalidArgument(f"unknown gate {name!r}; expected or/and/not")
    key = tuple(int(a) for a in args)
    if any(b not in (0, 1) for b in key):
        raise InvalidArgument(f"arguments must be bits, got {args!r}")
    if key not in table:
        raise ArityMismatch(f"gate {name!r} takes {len(next(iter(table)))} arguments")
    return table[key]


# X, CNOT and TOFFOLI are NOT gates with 0, 1 and 2 controls: name -> wire count
_CONTROLLED_NOTS = {"X": 1, "CNOT": 2, "TOFFOLI": 3}


def apply_reversible(name: str, wires: Sequence[int], index: int, width: int) -> int:
    """The basis index that X, CNOT or TOFFOLI on ``wires`` sends ``index``
    to, in a register of ``width`` bits whose wire 0 is the high bit: the
    last wire flips when every earlier one is set."""
    if _CONTROLLED_NOTS.get(name) != len(wires):
        raise ValidationFailure("classical-gate", 0.0,
                                f"{name} on {len(wires)} wires is not classical")
    masks = [1 << (width - 1 - w) for w in wires]
    return index ^ masks[-1] if all(index & m for m in masks[:-1]) else index


class _Node:
    """Equality, hash and repr of an expression tree, each by one walk of
    :func:`_fold`, not dataclass's recursion into the tree.  Two trees are
    equal when their shapes, operators and leaves are, so ``Var(True)``
    equals ``Var(1)``."""

    def _tokens(self) -> tuple:
        # operators and leaves in the fold's order, which fixes the shape
        out: list = []
        _fold(self, lambda leaf: out.append(("x", leaf.index) if isinstance(leaf, Var)
                                            else ("leaf", leaf)),
              lambda op, args: out.append(op))
        return tuple(out)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._tokens() == other._tokens()

    def __hash__(self):
        return hash(self._tokens())

    def __repr__(self):
        def gate(op, args):
            names = (f.name for f in fields(_NODES[op]))
            return f"{_NODES[op].__name__}({', '.join(f'{n}={a}' for n, a in zip(names, args))})"

        return _fold(self, lambda leaf: f"Var(index={leaf.index!r})"
                     if isinstance(leaf, Var) else repr(leaf), gate)


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    """Tap on input wire ``index``."""
    index: int


@dataclass(frozen=True, eq=False, repr=False)
class Not(_Node):
    child: "Expr"
    op = "not"


@dataclass(frozen=True, eq=False, repr=False)
class Or(_Node):
    left: "Expr"
    right: "Expr"
    op = "or"


@dataclass(frozen=True, eq=False, repr=False)
class And(_Node):
    left: "Expr"
    right: "Expr"
    op = "and"


Expr = Union[Var, Not, Or, And]


# the gate node classes, by their operator: the name of its table in _GATES
# and the head of its s-expression
_NODES = {cls.op: cls for cls in (Not, Or, And)}


def _fold(root, tap, gate):
    """Combine values bottom-up over the tree at ``root`` with an explicit
    stack: ``tap(leaf)`` at each node that is no gate, which in a
    well-formed tree is an input tap, and ``gate(op, args)`` at each gate,
    ``args`` being its operands' values in order.  An instance of a
    subclass of a gate class is a gate of that class.

    Each node is visited before its right subtree, and that before its
    left, so the first fault a ``tap`` or ``gate`` raises in that order is
    the one raised.
    """
    stack, values = [(root, 0)], []
    while stack:
        node, k = stack.pop()
        if k:       # a gate's operator, whose k operands' values are the last k, right first
            args = tuple(values[:-k - 1:-1])
            del values[-k:]
            values.append(gate(node, args))
        elif isinstance(node, (Not, Or, And)):
            operands = (node.child,) if node.op == "not" else (node.left, node.right)
            stack.append((node.op, len(operands)))
            stack.extend((operand, 0) for operand in operands)
        else:
            values.append(tap(node))
    return values.pop()


def _integer(x, what: str) -> int:
    """``x`` as an int if ``operator.index`` takes it, else an ArityMismatch
    that names ``what``."""
    try:
        return operator.index(x)
    except TypeError:
        raise ArityMismatch(f"{what} {x!r} is a {type(x).__name__}, not an integer") from None


@dataclass(frozen=True)
class BoolCircuit:
    """An expression tree computing one output bit from ``arity`` inputs."""

    arity: int
    root: Expr

    def __post_init__(self):
        arity = _integer(self.arity, "arity")
        if arity < 0:
            raise ArityMismatch(f"arity must be >= 0, got {arity}")
        object.__setattr__(self, "arity", arity)

        def tap(var: Var) -> None:
            if not isinstance(var, Var):
                raise ValidationFailure("circuit-node", 0.0, f"bad node {var!r}")
            if not 0 <= _integer(var.index, "input") < arity:
                raise ArityMismatch(f"input x{var.index} out of range for arity {arity}")

        _fold(self.root, tap, lambda op, args: None)

    # equality and hash are dataclass's, on the arity and the root's own;
    # the repr prints the root as its s-expression
    def __repr__(self):
        return f"BoolCircuit(arity={self.arity}, root={circuit_to_text(self)!r})"


def eval_circuit(circuit: BoolCircuit, bits: str) -> int:
    """Evaluate on an input bitstring; character j is input wire j."""
    if len(bits) != circuit.arity:
        raise ArityMismatch(
            f"input length {len(bits)} vs arity {circuit.arity}")
    if any(c not in "01" for c in bits):
        raise InvalidArgument(f"input must be a bitstring, got {bits!r}")
    return _fold(circuit.root, lambda var: int(bits[var.index]),
                 lambda op, args: _GATES[op][args])


def _word(i: int, arity: int) -> str:
    return format(i, f"0{arity}b") if arity else ""


def all_inputs(arity: int) -> list[str]:
    """All bitstrings of the given length in ascending order."""
    return [_word(i, arity) for i in range(2 ** arity)]


def equal_functions(
    f: BoolCircuit, g: BoolCircuit, *, max_arity: int = 20
) -> tuple[bool, str | None]:
    """Exhaustive function equality; returns the first differing input if any.

    Inputs are scanned in ascending bitstring order, so the witness is
    deterministic.  Arities beyond ``max_arity`` are refused rather than
    silently spinning through 2**N evaluations.
    """
    if f.arity != g.arity:
        raise ArityMismatch(f"arity {f.arity} vs {g.arity}")
    if f.arity > max_arity:
        raise SizeCapExceeded(f"arity {f.arity} exceeds cap {max_arity}")
    for x in all_inputs(f.arity):
        if eval_circuit(f, x) != eval_circuit(g, x):
            return False, x
    return True, None


# ---------------------------------------------------------------------------
# s-expression syntax: (or (not x0) (and x0 x1))

_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def parse_circuit(text: str, arity: int | None = None) -> BoolCircuit:
    """Parse an s-expression circuit; arity is inferred when not given."""
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise ParseError("empty circuit text")
    pos = 0

    def expr() -> Expr:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of input")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if pos >= len(tokens):
                raise ParseError("unexpected end of input after '('")
            head = tokens[pos]
            pos += 1
            if head not in _NODES:
                raise ParseError(f"unknown operator {head!r}")
            # one operand per argument of the gate's truth table
            node = _NODES[head](*[expr() for _ in next(iter(_GATES[head]))])
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ParseError(f"missing ')' after {head}")
            pos += 1
            return node
        if tok == ")":
            raise ParseError("unexpected ')'")
        m = re.fullmatch(r"x(\d+)", tok)
        if not m:
            raise ParseError(f"bad atom {tok!r}; inputs look like x0, x1, ...")
        return Var(int(m.group(1)))

    try:
        root = expr()
    except RecursionError:
        raise ParseError("circuit nested too deeply") from None
    if pos != len(tokens):
        raise ParseError(f"trailing tokens: {' '.join(tokens[pos:])}")
    if arity is None:
        arity = _fold(root, lambda var: var.index + 1, lambda op, args: max(args))
    return BoolCircuit(arity, root)


def circuit_to_text(circuit: BoolCircuit) -> str:
    """Inverse of :func:`parse_circuit`."""
    return _fold(circuit.root, lambda var: f"x{int(var.index)}",
                 lambda op, args: f"({op} {' '.join(args)})")


# ---------------------------------------------------------------------------
# probabilistic machines


def _check_table_size(input_bits: int, output_bits: int) -> None:
    """Refuse a table past 64 bits a side before its powers are formed."""
    if max(input_bits, output_bits) > 64:
        raise SizeCapExceeded(f"a table on {input_bits} input and {output_bits} output "
                              f"bits has more than 2**64 rows or entries")


@dataclass(frozen=True)
class StochasticOutput:
    """Row-stochastic table: each input word gets a distribution on outputs.

    ``table[x][k]`` is the probability of output word k (as an integer index
    into the ascending enumeration of bitstrings of length ``output_bits``).
    Rows must be complete, non-negative, and sum to one within ``tolerance``.
    """

    input_bits: int
    output_bits: int
    table: Mapping[str, tuple[float, ...]]
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.input_bits < 0 or self.output_bits < 0:
            raise ValidationFailure("register-size", 0.0, "negative width")
        _check_table_size(self.input_bits, self.output_bits)
        rows = {}
        width = 2 ** self.output_bits
        for x, row in dict(self.table).items():
            if not (isinstance(x, str) and len(x) == self.input_bits and set(x) <= {"0", "1"}):
                raise UnknownInput(f"row key {x!r} is not a {self.input_bits}-bit word")
            if isinstance(row, (str, bytes)):
                raise ValidationFailure("row-entries", 0.0,
                                        f"row {x!r} is a {type(row).__name__}, not numbers")
            vec = tuple(float(v) for v in row)
            if len(vec) != width:
                raise ValidationFailure(
                    "row-length", abs(len(vec) - width),
                    f"row {x!r} has {len(vec)} entries, needs {width}")
            neg = min(vec)
            if neg < 0:
                raise ValidationFailure("nonnegative", -neg, f"row {x!r}")
            gap = abs(sum(vec) - 1.0)
            if gap > self.tolerance:
                raise ValidationFailure("row-sum", gap, f"row {x!r}")
            rows[x] = vec
        missing = 2 ** self.input_bits - len(rows)
        if missing:
            # the first absent word lies among the first len(rows) + 1
            first = next(w for w in (_word(i, self.input_bits) for i in range(len(rows) + 1))
                         if w not in rows)
            raise ValidationFailure("row-complete", missing, f"missing rows, e.g. {first!r}")
        object.__setattr__(self, "table", rows)


def from_circuits(circuits: Sequence[BoolCircuit]) -> StochasticOutput:
    """Deterministic machine computing each circuit as one output bit.

    All circuits must share an arity; output bit j (leftmost = j = 0) is
    circuit j, so every row is a point mass.
    """
    if not circuits:
        raise ArityMismatch("need at least one circuit")
    arity = circuits[0].arity
    for c in circuits:
        if c.arity != arity:
            raise ArityMismatch(f"arity {c.arity} vs {arity}")
    n = len(circuits)
    _check_table_size(arity, n)
    table = {}
    for x in all_inputs(arity):
        word = "".join(str(eval_circuit(c, x)) for c in circuits)
        row = [0.0] * (2 ** n)
        row[int(word, 2)] = 1.0
        table[x] = tuple(row)
    return StochasticOutput(arity, n, table)


@dataclass(frozen=True)
class EventSubset:
    """A subset of output words over a ground set of fixed width."""

    ground_bits: int
    members: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        for y in self.members:
            if len(y) != self.ground_bits or any(c not in "01" for c in y):
                raise ValidationFailure(
                    "event-member", 0.0,
                    f"{y!r} is not a {self.ground_bits}-bit word")

    def complement(self) -> "EventSubset":
        ground = set(all_inputs(self.ground_bits))
        return EventSubset(self.ground_bits, frozenset(ground - self.members))


def induced_measure(machine: StochasticOutput, x: str, event: EventSubset) -> float:
    """Probability the machine's output on x lands in the event set."""
    if event.ground_bits != machine.output_bits:
        raise GroundMismatch(
            f"event over {event.ground_bits}-bit words, outputs are "
            f"{machine.output_bits}-bit")
    if x not in machine.table:
        raise UnknownInput(f"no row for input {x!r}")
    row = machine.table[x]
    # fixed ascending summation order keeps repeat calls bit-identical
    return float(sum(row[int(y, 2)] for y in sorted(event.members)))


@dataclass(frozen=True)
class KolmogorovReport:
    trials: int
    max_complement_gap: float
    max_additivity_gap: float
    max_monotonicity_gap: float

    @property
    def max_gap(self) -> float:
        return max(self.max_complement_gap, self.max_additivity_gap,
                   self.max_monotonicity_gap)


def check_kolmogorov(
    machine: StochasticOutput, x: str, *, trials: int = 200, seed: int = 0
) -> KolmogorovReport:
    """Numerically probe measure axioms for the machine's output on x.

    Random events A (and disjoint pairs A, B) are drawn with a seeded
    generator; the report carries the worst deviations seen for
    complementation, finite additivity on disjoint pairs, and monotonicity
    under inclusion.  Valid tables land within accumulation rounding.
    """
    if x not in machine.table:
        raise UnknownInput(f"no row for input {x!r}")
    rng = np.random.default_rng(seed)
    ground = all_inputs(machine.output_bits)
    comp_gap = add_gap = mono_gap = 0.0
    for _ in range(trials):
        colors = rng.integers(0, 3, size=len(ground))
        a = EventSubset(machine.output_bits,
                        frozenset(y for y, c in zip(ground, colors) if c == 0))
        b = EventSubset(machine.output_bits,
                        frozenset(y for y, c in zip(ground, colors) if c == 1))
        mu_a = induced_measure(machine, x, a)
        mu_b = induced_measure(machine, x, b)
        comp_gap = max(comp_gap,
                       abs(induced_measure(machine, x, a.complement()) - (1.0 - mu_a)))
        union = EventSubset(machine.output_bits, a.members | b.members)
        add_gap = max(add_gap, abs(induced_measure(machine, x, union) - mu_a - mu_b))
        mono_gap = max(mono_gap, max(0.0, mu_a - induced_measure(machine, x, union)))
    return KolmogorovReport(trials, comp_gap, add_gap, mono_gap)


def sample_output(machine: StochasticOutput, x: str, *, rng: np.random.Generator) -> str:
    """Draw one output word according to the machine's row for x."""
    if x not in machine.table:
        raise UnknownInput(f"no row for input {x!r}")
    row = np.array(machine.table[x])
    k = int(rng.choice(len(row), p=row / row.sum()))
    return _word(k, machine.output_bits)


def machine_to_json(machine: StochasticOutput) -> dict:
    """Serialize as ``{"M": in_bits, "N": out_bits, "rows": {...}}``."""
    return {
        "M": machine.input_bits,
        "N": machine.output_bits,
        "rows": {x: list(row) for x, row in sorted(machine.table.items())},
    }


def machine_from_json(obj: dict) -> StochasticOutput:
    """Inverse of :func:`machine_to_json`; constructor revalidates."""
    try:
        return StochasticOutput(
            _strict_int(obj["M"]), _strict_int(obj["N"]),
            {x: _strict_list(row) for x, row in _strict_dict(obj["rows"]).items()})
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad stochastic table payload: {exc}")
