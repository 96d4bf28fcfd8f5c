"""Elementary gate matrices, the gate kernel, words, and enumeration.

Conventions, fixed once for the whole package:

  * wire 0 is the leftmost tensor factor, so basis index
    i = sum_w bit_w * 2**(width-1-w) (wire 0 is the most significant bit);
  * a word lists gates in time order; one prefix engine multiplies every
    word out, last gate leftmost: ``compose_word`` on the identity,
    ``quotient`` on the state's factor;
  * a gate is applied by contracting its block against its wires' axes of
    a 2**width-row matrix; no full matrix of a single gate is formed;
  * H = (1/sqrt 2)[[1, 1], [1, -1]], T = diag(1, e^{i pi/4}),
    R(phi) = diag(1, e^{i phi}), XX(phi) = exp(-i phi (X x X) / 2),
    CNOT takes (control, target), TOFFOLI (control, control, target),
    QFT(N)_{ab} = e^{2 pi i a b / N} / sqrt N.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EnumerationCapExceeded,
    InvalidArgument,
    InvalidWire,
    ParseError,
    SizeCapExceeded,
    UnboundedParameter,
    UnknownGate,
    ValidationFailure,
)
from .qcore import (DEFAULT_TOL, MAX_DIM, DensityOperator, UnitaryGate,
                    _probability, check_dim)

_SQ2 = math.sqrt(2.0)

_H = np.array([[1, 1], [1, -1]], dtype=complex) / _SQ2
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]], dtype=complex)
_TOFFOLI = np.eye(8, dtype=complex)
_TOFFOLI[[6, 7], :] = _TOFFOLI[[7, 6], :]
_T = np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(complex)
_XX = np.kron(_X, _X)


def fourier_matrix(n: int) -> np.ndarray:
    """The n x n Fourier matrix with entries e^{2 pi i a b / n} / sqrt n."""
    if n < 1:
        raise ValidationFailure("fourier-size", 0.0, f"n = {n}")
    check_dim(n)
    a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * np.pi * a * b / n) / math.sqrt(n)


class _Gate(NamedTuple):
    """What the package knows of one gate name.

    ``wires`` is None for QFT, which acts on any number of wires.  ``block``
    maps the phase (None for a gate without one) and the wire count to the
    matrix on the gate's own wires.  The first ``unordered`` wires are
    interchangeable, so enumeration places the gate on each set of them once.
    """

    wires: int | None
    phased: bool
    block: Callable[[float | None, int], np.ndarray]
    unordered: int = 1


_GATES = {
    "H": _Gate(1, False, lambda phi, k: _H),
    "T": _Gate(1, False, lambda phi, k: _T),
    "X": _Gate(1, False, lambda phi, k: _X),
    "Z": _Gate(1, False, lambda phi, k: _Z),
    "R": _Gate(1, True, lambda phi, k: np.diag([1.0, np.exp(1j * phi)]).astype(complex)),
    "CNOT": _Gate(2, False, lambda phi, k: _CNOT),
    # exp(-i phi XX/2) is symmetric in its two wires
    "XX": _Gate(2, True, lambda phi, k: math.cos(phi / 2) * np.eye(4)
                - 1j * math.sin(phi / 2) * _XX, unordered=2),
    # the two controls are interchangeable
    "TOFFOLI": _Gate(3, False, lambda phi, k: _TOFFOLI, unordered=2),
    "QFT": _Gate(None, False, lambda phi, k: fourier_matrix(2 ** k)),
}
_SUPPORTED = f"{sorted(n for n, g in _GATES.items() if g.wires)} and QFT"


def wire_count(name: str) -> int:
    """How many wires a named gate occupies (QFT is variadic, reported as 1)."""
    name = name.upper()
    if name not in _GATES:
        raise UnknownGate(f"{name!r}")
    return _GATES[name].wires or 1


@dataclass(frozen=True)
class GateSpec:
    """One gate occurrence: a name, the wires it touches, an optional phase.

    QFT acts on any number of wires k and carries no parameter; its block
    size is 2**k.
    """

    name: str
    wires: tuple[int, ...]
    param: float | None = None

    def __post_init__(self):
        name = str(self.name).upper()
        object.__setattr__(self, "name", name)
        try:
            wires = tuple(int(w) for w in self.wires)
        except (TypeError, ValueError) as exc:
            raise InvalidWire(str(exc))
        object.__setattr__(self, "wires", wires)
        if name not in _GATES:
            raise UnknownGate(f"{name!r} (supported: {_SUPPORTED})")
        gate = _GATES[name]
        if gate.wires is None:
            if not self.wires:
                raise InvalidWire(f"{name} needs at least one wire")
        elif len(self.wires) != gate.wires:
            raise InvalidWire(f"{name} acts on {gate.wires} wire(s), got {self.wires}")
        if gate.phased:
            if self.param is None:
                raise ValidationFailure("gate-param", 0.0, f"{name} needs a phase")
            if not math.isfinite(self.param):
                raise ValidationFailure("gate-param", float("inf"),
                                        f"{name} phase must be finite")
            object.__setattr__(self, "param", float(self.param))
        elif self.param is not None:
            raise ValidationFailure("gate-param", 0.0, f"{name} takes no parameter")
        if any(w < 0 for w in self.wires):
            raise InvalidWire(f"negative wire in {self.wires}")
        if len(set(self.wires)) != len(self.wires):
            raise InvalidWire(f"repeated wire in {self.wires}")

    def block(self) -> np.ndarray:
        """The gate's matrix on its own wires, as the kernel applies it."""
        return _GATES[self.name].block(self.param, len(self.wires))


def register_dim(width: int) -> int:
    """2**width for a register, refused below one wire and past ``MAX_DIM``;
    past 64 wires the refusal comes before the power is computed."""
    if width < 1:
        raise InvalidWire(f"width must be >= 1, got {width}")
    if width > 64:
        raise SizeCapExceeded(f"dimension 2**{width} exceeds cap {MAX_DIM}")
    return check_dim(2 ** width)


def _apply(spec: GateSpec, m: np.ndarray, width: int) -> np.ndarray:
    """The gate applied to the rows of ``m``, a matrix with 2**width rows."""
    k = len(spec.wires)
    block = spec.block().reshape([2] * (2 * k))
    tens = m.reshape([2] * width + [-1])
    out = np.tensordot(block, tens, axes=(range(k, 2 * k), spec.wires))
    return np.moveaxis(out, range(k), spec.wires).reshape(m.shape)


def _take(states: np.ndarray, idx: Sequence[int]) -> np.ndarray:
    """states[:, idx, :], or ``states`` itself when idx lists its nodes in order."""
    return states if list(idx) == list(range(states.shape[1])) else states[:, idx, :]


def _evolve_words(words: list[GateWord], factor: np.ndarray) -> np.ndarray:
    """U F for each word's product U, as a (dim, len(words), rank) array.

    Every prefix of a listed word is a node of a trie, so any word list
    takes this path.  The nodes of one length are evolved from their
    parents with one kernel call per last letter, on the parents' blocks
    side by side, and a length's states are dropped once the next length
    is built.  Blocks already whole and in order, as on every length of
    one word, are neither gathered, scattered nor copied out."""
    width = words[0].width
    dim, rank = factor.shape
    # each distinct letter is numbered once, by object identity first, so
    # that a GateSpec is hashed once per call rather than once per trie step
    by_id: dict[int, int] = {}
    numbers: dict[GateSpec, int] = {}
    # levels[k] numbers the nodes of length k by (parent node, last letter's
    # number); the root, the empty word, is node 0 of length 0
    levels: list[dict] = [{}]
    ends: list[list[tuple[int, int]]] = [[]]   # per length: (word, node)
    for i, w in enumerate(words):
        node = 0
        for k, spec in enumerate(w.word, 1):
            if k == len(levels):
                levels.append({})
                ends.append([])
            letter = by_id.get(id(spec))
            if letter is None:
                letter = by_id[id(spec)] = numbers.setdefault(spec, len(numbers))
            node = levels[k].setdefault((node, letter), len(levels[k]))
        ends[len(w.word)].append((i, node))
    letters = list(numbers)
    out = np.empty((dim, len(words), rank), dtype=complex)
    states, factor = factor[:, None, :], None     # a temporary factor dies with the root
    for k, level in enumerate(levels):
        if k:
            groups: dict = {}
            for (parent, letter), node in level.items():
                groups.setdefault(letter, []).append((parent, node))
            children = np.empty((dim, len(level), rank), dtype=complex) if len(groups) > 1 else None
            for letter, pairs in groups.items():
                parents, nodes = zip(*pairs)
                block = _take(states, parents).reshape(dim, -1)
                moved = _apply(letters[letter], block, width).reshape(dim, len(nodes), rank)
                if len(groups) > 1:
                    children[:, nodes, :] = moved
            states = children if len(groups) > 1 else moved     # one letter, in order
        if ends[k]:
            ids, nodes = zip(*ends[k])
            if len(ids) == len(words):      # this level holds every word, in order
                return _take(states, nodes)
            out[:, ids, :] = states[:, nodes, :]
    return out


def elementary(spec: GateSpec, width: int) -> UnitaryGate:
    """A gate on a register of ``width`` wires: the kernel applied to the
    identity, so the block acts on ``spec.wires`` and nothing else."""
    dim = register_dim(width)
    if any(w >= width for w in spec.wires):
        raise InvalidWire(f"wires {spec.wires} do not fit in width {width}")
    return UnitaryGate(_apply(spec, np.eye(dim, dtype=complex), width))


@dataclass(frozen=True)
class GateWord:
    """A finite sequence of gates on a register of fixed width."""

    width: int
    word: tuple[GateSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))
        if self.width < 1:
            raise InvalidWire(f"width must be >= 1, got {self.width}")
        for spec in self.word:
            if any(w >= self.width for w in spec.wires):
                raise InvalidWire(
                    f"{spec.name}{spec.wires} does not fit in width {self.width}")

    def __len__(self) -> int:
        return len(self.word)


def compose_word(word: GateWord) -> UnitaryGate:
    """A word's product, last gate leftmost, validated once: the engine on the identity."""
    dim = register_dim(word.width)
    return UnitaryGate(_evolve_words([word], np.eye(dim, dtype=complex))[:, 0, :])


def permutation_gate(perm: Sequence[int]) -> UnitaryGate:
    """Unitary permuting computational basis states: index i -> perm[i].

    This is how reversible classical gates embed; X, CNOT and TOFFOLI are
    all of this form.
    """
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValidationFailure("permutation", 0.0, f"{perm!r} is not a permutation")
    m = np.zeros((n, n), dtype=complex)
    for i, j in enumerate(perm):
        m[j, i] = 1.0
    return UnitaryGate(m)


# ---------------------------------------------------------------------------
# word text syntax:  "width=2; H[0]; CNOT[0,1]; R(1.5708)[1]"

_SEGMENT = re.compile(
    r"^(?P<name>[A-Za-z]+)"
    r"(\((?P<param>[^)]*)\))?"
    r"(\[(?P<wires>[-0-9,\s]*)\])?$")


def parse_word(text: str, *, default_width: int | None = None) -> GateWord:
    """Parse the semicolon syntax above.

    Both the width prefix and the wire brackets are optional: a bare name
    acts on wires 0..k-1, and the width defaults to the smallest register
    that fits every gate (or ``default_width`` for an empty word).
    """
    segments = [s.strip() for s in text.split(";")]
    segments = [s for s in segments if s]
    width: int | None = None
    specs: list[GateSpec] = []
    for seg in segments:
        wm = re.fullmatch(r"width\s*=\s*(\d+)", seg, flags=re.IGNORECASE)
        if wm:
            if width is not None:
                raise ParseError("width given twice")
            if specs:
                raise ParseError("width must come before any gate")
            width = int(wm.group(1))
            continue
        m = _SEGMENT.match(seg)
        if not m:
            raise ParseError(f"cannot parse gate segment {seg!r}")
        name = m.group("name").upper()
        param = None
        if m.group("param") is not None:
            try:
                param = float(m.group("param"))
            except ValueError:
                raise ParseError(f"bad parameter in {seg!r}")
        if m.group("wires") is not None:
            try:
                wires = tuple(int(w) for w in m.group("wires").split(","))
            except ValueError:
                raise ParseError(f"bad wire list in {seg!r}")
        elif name in _GATES:
            # a bare QFT spans the register, or wire 0 before a width is given
            count = _GATES[name].wires or (1 if width is None else width)
            wires = tuple(range(count))
        else:
            raise UnknownGate(f"{name!r}")
        specs.append(GateSpec(name, wires, param))
    if width is None:
        needed = max((max(s.wires) + 1 for s in specs), default=0)
        width = max(needed, 1) if specs else (default_width or 1)
    return GateWord(width, tuple(specs))


def format_word(word: GateWord) -> str:
    """Inverse of :func:`parse_word`, always fully explicit.

    Phases are written with 12 significant digits when that reads back
    exactly, and with every digit (``repr``) otherwise, so that
    ``parse_word(format_word(w)) == w``.
    """
    parts = [f"width={word.width}"]
    for s in word.word:
        seg = s.name
        if s.param is not None:
            phase = f"{s.param:.12g}"
            if float(phase) != s.param:
                phase = repr(s.param)
            seg += f"({phase})"
        seg += "[" + ",".join(str(w) for w in s.wires) + "]"
        parts.append(seg)
    return "; ".join(parts)


# ---------------------------------------------------------------------------
# generator sets and word enumeration


@dataclass(frozen=True)
class GateTemplate:
    """A gate name plus, for parametric gates, a finite grid of phases."""

    name: str
    phases: tuple[float, ...] | None = None

    def __post_init__(self):
        name = str(self.name).upper()
        object.__setattr__(self, "name", name)
        if name not in _GATES:
            raise UnknownGate(f"{name!r}")
        if self.phases is not None:
            object.__setattr__(self, "phases",
                               tuple(float(p) for p in self.phases))


@dataclass(frozen=True)
class GeneratorSet:
    label: str
    members: tuple[GateTemplate, ...]


def generator_set(label: str, *, phases: Sequence[float] | None = None) -> GeneratorSet:
    """The three stock generator sets.

    G1 = {T, H}; G2 = {CNOT, H, R}; G3 = {XX, R}.  The parametric members
    of G2 and G3 need a finite phase grid before enumeration.
    """
    grid = tuple(float(p) for p in phases) if phases is not None else None
    if label == "G1":
        members = (GateTemplate("T"), GateTemplate("H"))
    elif label == "G2":
        members = (GateTemplate("CNOT"), GateTemplate("H"), GateTemplate("R", grid))
    elif label == "G3":
        members = (GateTemplate("XX", grid), GateTemplate("R", grid))
    else:
        raise InvalidArgument(f"unknown generator set {label!r}; expected G1, G2 or G3")
    return GeneratorSet(label, members)


def _placements(name: str, width: int) -> tuple[int, Iterable[tuple[int, ...]]]:
    """How many wire tuples a gate can occupy, and the tuples, listed lazily:
    each set of its unordered wires once, then the rest in every order."""
    gate = _GATES[name]
    wires = range(width)
    if gate.wires is None:
        return 1, [tuple(wires)]
    head, tail = gate.unordered, gate.wires - gate.unordered
    count = math.comb(width, head) * math.perm(max(width - head, 0), tail)
    return count, (h + t for h in itertools.combinations(wires, head)
                   for t in itertools.permutations(
                       [w for w in wires if w not in h], tail))


def _params(template: GateTemplate, label: str) -> Sequence[float | None]:
    """The phases a template is instantiated with; (None,) if it takes none."""
    if not _GATES[template.name].phased:
        return (None,)
    if template.phases is None:
        raise UnboundedParameter(f"{template.name} in {label} has no phase grid")
    return template.phases


def enumerate_polynomials(
    generators: GeneratorSet,
    width: int,
    max_len: int,
    *,
    max_words: int = 100_000,
) -> list[GateWord]:
    """All words over the generator set up to a length bound.

    The listing is deterministic, in (length, lexicographic) order over a
    sorted alphabet of gate instantiations, and prefix-closed: it starts with
    the empty word.  More than ``max_words`` results raise
    :class:`EnumerationCapExceeded` before any letter is built.
    """
    if width < 1:
        raise InvalidWire(f"width must be >= 1, got {width}")
    if max_len < 0:
        raise InvalidArgument(f"max_len must be >= 0, got {max_len}")
    groups = [(t.name, _params(t, generators.label), _placements(t.name, width))
              for t in generators.members]
    a = sum(len(params) * count for _, params, (count, _) in groups)
    total = 0
    for k in range(max_len + 1):
        total += a ** k
        if total > max_words:
            raise EnumerationCapExceeded(
                f"more than {max_words} words over {a} letters up to length {max_len}")
    letters = sorted((GateSpec(name, wires, p)
                      for name, params, (_, placements) in groups
                      for wires in placements for p in params),
                     key=lambda s: (s.name, s.param if s.param is not None else 0.0, s.wires))
    out = [GateWord(width, ())]
    for k in range(1, max_len + 1):
        for combo in itertools.product(letters, repeat=k):
            out.append(GateWord(width, combo))
    return out


# ---------------------------------------------------------------------------
# the canonical three-wire example


def toffoli_truth_value(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Probability that TOFFOLI writes 1 into a fresh target.

    The two control wires are loaded with ``rho`` and ``sigma``, the target
    with |0><0|; the event is "target reads 1" after the gate.  On basis
    states this is the AND truth table.
    """
    if rho.dim != 2 or sigma.dim != 2:
        raise DimensionMismatch(
            f"controls must be single-wire states, got dims {rho.dim}, {sigma.dim}")
    spec = GateSpec("TOFFOLI", (0, 1, 2))
    state = np.kron(np.kron(rho.matrix, sigma.matrix), np.diag([1.0, 0.0]))
    # U state U* = (U (U state)*)*, two applications of the kernel
    evolved = _apply(spec, _apply(spec, state, 3).conj().T, 3).conj().T
    # the target is wire 2, the last bit: it reads 1 at the odd indices
    return _probability(complex(evolved.diagonal()[1::2].sum()),
                        max(DEFAULT_TOL, rho.tolerance, sigma.tolerance))
