"""Elementary gate matrices, the gate kernel, words, and enumeration.

Conventions, fixed once for the whole package:

  * wire 0 is the leftmost tensor factor, so basis index
    i = sum_w bit_w * 2**(width-1-w) (wire 0 is the most significant bit);
  * a word lists gates in time order; the composed matrix multiplies them
    in reverse, last gate leftmost;
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
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EnumerationCapExceeded,
    InvalidWire,
    ParseError,
    SizeCapExceeded,
    UnboundedParameter,
    UnknownGate,
    ValidationFailure,
)
from .qcore import (MAX_DIM, DensityOperator, Projector, UnitaryGate, _evolve,
                    _pairing, check_dim, tensor)

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

# name -> (wire count, takes phase parameter)
_ARITY = {
    "H": (1, False),
    "T": (1, False),
    "X": (1, False),
    "Z": (1, False),
    "R": (1, True),
    "CNOT": (2, False),
    "XX": (2, True),
    "TOFFOLI": (3, False),
}


def wire_count(name: str) -> int:
    """How many wires a named gate occupies (QFT is variadic, reported as 1)."""
    name = name.upper()
    if name == "QFT":
        return 1
    if name not in _ARITY:
        raise UnknownGate(f"{name!r}")
    return _ARITY[name][0]


def fourier_matrix(n: int) -> np.ndarray:
    """The n x n Fourier matrix with entries e^{2 pi i a b / n} / sqrt n."""
    if n < 1:
        raise ValidationFailure("fourier-size", 0.0, f"n = {n}")
    a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * np.pi * a * b / n) / math.sqrt(n)


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
        object.__setattr__(self, "wires", tuple(int(w) for w in self.wires))
        if name == "QFT":
            if len(self.wires) < 1:
                raise InvalidWire("QFT needs at least one wire")
            if self.param is not None:
                raise ValidationFailure("gate-param", 0.0, "QFT takes no parameter")
        elif name in _ARITY:
            count, takes_param = _ARITY[name]
            if len(self.wires) != count:
                raise InvalidWire(
                    f"{name} acts on {count} wire(s), got {self.wires}")
            if takes_param:
                if self.param is None:
                    raise ValidationFailure("gate-param", 0.0, f"{name} needs a phase")
                if not math.isfinite(self.param):
                    raise ValidationFailure("gate-param", float("inf"),
                                            f"{name} phase must be finite")
                object.__setattr__(self, "param", float(self.param))
            elif self.param is not None:
                raise ValidationFailure("gate-param", 0.0, f"{name} takes no parameter")
        else:
            raise UnknownGate(f"{name!r} (supported: {sorted(_ARITY)} and QFT)")
        if any(w < 0 for w in self.wires):
            raise InvalidWire(f"negative wire in {self.wires}")
        if len(set(self.wires)) != len(self.wires):
            raise InvalidWire(f"repeated wire in {self.wires}")

    def block(self) -> np.ndarray:
        """The gate's matrix on its own wires, as the kernel applies it."""
        if self.name == "H":
            return _H
        if self.name == "T":
            return np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(complex)
        if self.name == "X":
            return _X
        if self.name == "Z":
            return _Z
        if self.name == "R":
            return np.diag([1.0, np.exp(1j * self.param)]).astype(complex)
        if self.name == "CNOT":
            return _CNOT
        if self.name == "XX":
            xx = np.kron(_X, _X)
            return math.cos(self.param / 2) * np.eye(4) - 1j * math.sin(
                self.param / 2) * xx
        if self.name == "TOFFOLI":
            return _TOFFOLI
        return fourier_matrix(2 ** len(self.wires))


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
    """Multiply out a word, the last gate in time leftmost, applying each
    gate with the kernel; only the product is validated."""
    u = np.eye(register_dim(word.width), dtype=complex)
    for spec in word.word:
        u = _apply(spec, u, word.width)
    return UnitaryGate(u)


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
        elif name == "QFT":
            wires = (0,) if width is None else tuple(range(width))
        elif name in _ARITY:
            wires = tuple(range(_ARITY[name][0]))
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
        if name != "QFT" and name not in _ARITY:
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
        raise ValueError(f"unknown generator set {label!r}; expected G1, G2 or G3")
    return GeneratorSet(label, members)


def _placements(name: str, width: int) -> tuple[int, Iterable[tuple[int, ...]]]:
    """How many wire tuples a gate can occupy, and the tuples, listed lazily."""
    wires = range(width)
    if name == "QFT":
        return 1, [tuple(wires)]
    if name == "CNOT":
        return math.perm(width, 2), itertools.permutations(wires, 2)
    if name == "TOFFOLI":
        return (math.comb(width, 2) * (width - 2),
                ((a, b, t) for a, b in itertools.combinations(wires, 2)
                 for t in wires if t not in (a, b)))
    # one-wire gates, and XX: exp(-i phi XX/2) is symmetric in its two
    # wires, so each pair is listed once
    count = _ARITY[name][0]
    return math.comb(width, count), itertools.combinations(wires, count)


def _params(template: GateTemplate, label: str) -> Sequence[float | None]:
    """The phases a template is instantiated with; (None,) if it takes none."""
    if template.name == "QFT" or not _ARITY[template.name][1]:
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
        raise ValueError(f"max_len must be >= 0, got {max_len}")
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
    ket0 = np.array([[1, 0], [0, 0]], dtype=complex)
    ket1 = np.array([[0, 0], [0, 1]], dtype=complex)
    gate = elementary(GateSpec("TOFFOLI", (0, 1, 2)), 3)
    state = tensor(tensor(rho.matrix, sigma.matrix), ket0)
    event = Projector(tensor(np.eye(4), ket1))
    return _pairing(_evolve(gate, state), event, max(rho.tolerance, sigma.tolerance))
