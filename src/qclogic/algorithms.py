"""Exact runs of two oracle algorithms.

Both run on state vectors, so the distributions are exact up to floating
point: the one-query constancy test on one-bit functions goes through the
gate kernel, and period estimation for an r-periodic function on Z_N (any
N with r | N, up to the dimension cap) takes one FFT per branch.  No shots
are simulated unless a sampling step is explicitly requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    InvalidSpec,
    ParseError,
    SizeCapExceeded,
    UnknownOutcome,
    ValidationFailure,
    WidthMismatch,
)
from .gates import GateSpec, _apply, fourier_matrix, permutation_gate
from .qcore import (
    DEFAULT_TOL,
    UnitaryGate,
    _probability,
    _strict,
    check_dim,
)

# the most draws period_find takes in one run
MAX_SAMPLES = 10 ** 6


@dataclass(frozen=True)
class OracleFunction:
    """A total function {0,1}^n -> {0,1}^m given by its table."""

    domain_bits: int
    codomain_bits: int
    table: Mapping[str, str]

    def __post_init__(self):
        if self.domain_bits < 0 or self.codomain_bits < 1:
            raise ValidationFailure("register-size", 0.0,
                                    "need n >= 0 input and m >= 1 output bits")
        fixed = {}
        for x, y in dict(self.table).items():
            if not isinstance(x, str) or len(x) != self.domain_bits or any(c not in "01" for c in x):
                raise ValidationFailure("oracle-key", 0.0,
                                        f"{x!r} is not a {self.domain_bits}-bit word")
            if (not isinstance(y, str) or len(y) != self.codomain_bits
                    or any(c not in "01" for c in y)):
                raise ValidationFailure("oracle-value", 0.0,
                                        f"{y!r} is not a {self.codomain_bits}-bit word")
            fixed[x] = y
        if self.domain_bits > 64:   # no table is complete; the power is not formed
            raise ValidationFailure("oracle-total", 0.0,
                                    f"{len(fixed)} rows, need 2**{self.domain_bits}")
        if len(fixed) != 2 ** self.domain_bits:
            raise ValidationFailure("oracle-total", 0.0,
                                    f"{len(fixed)} rows, need {2 ** self.domain_bits}")
        object.__setattr__(self, "table", fixed)

    def __call__(self, x: str) -> str:
        return self.table[x]


def one_bit_functions() -> dict[str, OracleFunction]:
    """The four functions {0,1} -> {0,1}: both balanced, both constant."""
    mk = lambda a, b: OracleFunction(1, 1, {"0": a, "1": b})
    return {
        "identity": mk("0", "1"),
        "not": mk("1", "0"),
        "const0": mk("0", "0"),
        "const1": mk("1", "1"),
    }


def oracle_from_json(obj: dict) -> OracleFunction:
    """Parse ``{"n": ..., "m": ..., "table": {...}}``."""
    try:
        return OracleFunction(_strict(obj["n"], int), _strict(obj["m"], int),
                              _strict(obj["table"], dict))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad oracle payload: {exc}")


def oracle_to_json(f: OracleFunction) -> dict:
    return {"n": f.domain_bits, "m": f.codomain_bits,
            "table": dict(sorted(f.table.items()))}


def build_oracle(f: OracleFunction) -> UnitaryGate:
    """The standard reversible lift |x>|y> -> |x>|y xor f(x)>.

    The input register comes first (leftmost wires), then the ancilla; the
    matrix is the permutation of basis states this rule describes.
    """
    return permutation_gate(_oracle_permutation(f))


def _oracle_permutation(f: OracleFunction) -> list[int]:
    """Where |x>|y> goes under the lift: index x * 2**m + (y xor f(x))."""
    n, m = f.domain_bits, f.codomain_bits
    fx = [int(f(format(x, f"0{n}b") if n else ""), 2) for x in range(2 ** n)]
    return [x * 2 ** m + (y ^ fx[x]) for x in range(2 ** n) for y in range(2 ** m)]


@dataclass(frozen=True)
class RunResult:
    """An algorithm run: exact outcome distribution, the probability that
    the algorithm's answer is correct, and the answer itself."""

    outcome_distribution: dict[str, float]
    success_probability: float
    verdict: str

    def __post_init__(self):
        dist = {str(k): float(v) for k, v in self.outcome_distribution.items()}
        if not dist:
            raise ValidationFailure("distribution", 0.0, "no outcomes")
        low = min(dist.values())
        if low < -1e-9:
            raise ValidationFailure("distribution", -low, "negative probability")
        gap = abs(sum(dist.values()) - 1.0)
        if gap > 1e-9:
            raise ValidationFailure("distribution", gap, "does not sum to one")
        if not 0.0 <= self.success_probability <= 1.0 + 1e-12:
            raise ValidationFailure("success", self.success_probability)
        object.__setattr__(self, "outcome_distribution", dist)

    def to_json_dict(self) -> dict:
        return {
            "distribution": dict(sorted(self.outcome_distribution.items())),
            "success_probability": self.success_probability,
            "verdict": self.verdict,
        }


def deutsch_jozsa(f: OracleFunction) -> RunResult:
    """One-query constancy test for a one-bit function, run exactly.

    Wire 0 holds the query register, wire 1 the ancilla prepared in |1>.
    After H on both wires, the oracle, and a final H on wire 0, the first
    wire reads 0 with probability 1 when f is constant and 0 when balanced.
    The verdict is "constant" iff that probability is at least 1/2.
    """
    if f.domain_bits != 1 or f.codomain_bits != 1:
        raise WidthMismatch(
            f"this test takes a 1-bit function, got {f.domain_bits}->{f.codomain_bits}")
    state = np.zeros((4, 1), dtype=complex)
    state[1] = 1.0                                  # |0>|1>
    for wire in (0, 1):
        state = _apply(GateSpec("H", (wire,)), state, 2)
    # the oracle permutes basis states, and the permutation is its own inverse
    final = _apply(GateSpec("H", (0,)), state[_oracle_permutation(f)], 2)
    p0, p1 = (_probability(complex(np.vdot(half, half)), DEFAULT_TOL)
              for half in (final[:2], final[2:]))
    constant = p0 >= 0.5
    truly_constant = f("0") == f("1")
    success = p0 if truly_constant else p1
    return RunResult({"0": p0, "1": p1}, success,
                     "constant" if constant else "balanced")


def qft(n: int) -> UnitaryGate:
    """The Fourier transform on Z_n as a validated gate.

    Entries are e^{2 pi i a b / n} / sqrt(n); for n = 2 this is the
    Hadamard matrix.
    """
    return UnitaryGate(fourier_matrix(n))


@dataclass(frozen=True)
class PeriodicSpec:
    """An r-periodic, within-period injective function on Z_N.

    ``modulus``, ``period`` and each ``values[x]`` may be any integers,
    Python's or numpy's, but no bools, floats or strings; of the values,
    what matters is the coincidence pattern f(x) = f(x + r).  r must divide N, and the first r values must be pairwise
    distinct, otherwise the declared period is wrong and :class:`InvalidSpec`
    is raised.
    """

    modulus: int
    period: int
    values: tuple[int, ...]

    def __post_init__(self):
        try:
            n, r = _strict(self.modulus, int), _strict(self.period, int)
        except ValueError as exc:
            raise InvalidSpec(f"N and r must be integers: {exc}") from None
        if n < 1 or r < 1:
            raise InvalidSpec(f"need N >= 1 and r >= 1, got N={n} r={r}")
        if n % r != 0:
            raise InvalidSpec(f"period {r} does not divide N={n}")
        try:
            vals = tuple(_strict(v, int) for v in self.values)
        except ValueError as exc:
            raise InvalidSpec(f"values must be integers: {exc}") from None
        if len(vals) != n:
            raise InvalidSpec(f"{len(vals)} values for modulus {n}")
        object.__setattr__(self, "modulus", n)
        object.__setattr__(self, "period", r)
        object.__setattr__(self, "values", vals)
        for x in range(n):
            if vals[x] != vals[(x + r) % n]:
                raise InvalidSpec(f"f({x}) != f({x + r}) despite period {r}")
        if len(set(vals[:r])) != r:
            raise InvalidSpec("values repeat within one period")


def periodic_from_json(obj: dict) -> PeriodicSpec:
    """Parse ``{"N": ..., "r": ..., "f": [...]}``."""
    try:
        return PeriodicSpec(_strict(obj["N"], int), _strict(obj["r"], int),
                            tuple(_strict(v, int) for v in _strict(obj["f"], list)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad periodic spec payload: {exc}")


def _branch_distributions(n: int, r: int, offsets) -> np.ndarray:
    """Row i is the Fourier-sampling distribution of the branch x0 =
    offsets[i]: the uniform superposition of the N / r inputs x0, x0 + r,
    ..., pushed through F_ab = e^{2 pi i a b / N} / sqrt N.  Since
    F v = sqrt N * ifft(v), one FFT per row gives it exactly."""
    branches = (np.arange(n) % r == np.asarray(offsets)[:, None]) / math.sqrt(n / r)
    return n * np.abs(np.fft.ifft(branches, axis=1)) ** 2


def period_find(spec: PeriodicSpec, *, condition_on: int | None = None,
                samples: int = 8, seed: int = 0) -> RunResult:
    """Exact outcome distribution of Fourier-sampling the period.

    The first register's post-measurement mixture (or, with
    ``condition_on``, the branch for one observed function value) is pushed
    through the Fourier transform; the resulting distribution is supported
    on the multiples of N/r with weight 1/r each, independent of which
    value was observed.  A seeded sampler then draws ``samples`` outcomes
    (at least one, else :class:`ValidationFailure`, and at most
    :data:`MAX_SAMPLES`, else :class:`SizeCapExceeded`) and estimates r as
    N / gcd(outcomes, N); the success probability phi(r)/r is that of a
    single draw landing on a coprime multiple.
    """
    if samples < 1:
        raise ValidationFailure("samples", samples, "need at least one draw")
    if samples > MAX_SAMPLES:
        raise SizeCapExceeded(f"{samples} samples exceeds cap {MAX_SAMPLES}")
    n, r = check_dim(spec.modulus), spec.period
    offsets = range(r)
    if condition_on is not None:
        if condition_on not in spec.values[:r]:
            raise UnknownOutcome(
                f"{condition_on} is not a value of the function")
        offsets = [spec.values.index(condition_on)]
    probs = _branch_distributions(n, r, offsets).mean(axis=0)
    probs /= probs.sum()

    rng = np.random.default_rng(seed)
    draws = rng.choice(n, size=samples, p=probs)
    estimate = n // math.gcd(n, *draws.tolist())

    coprime = sum(1 for k in range(r) if math.gcd(k, r) == 1)
    return RunResult({str(c): float(probs[c]) for c in range(n)},
                     coprime / r, f"period={estimate}")


def period_branches(spec: PeriodicSpec) -> dict[int, dict[str, float]]:
    """Per-observed-value outcome distributions, for inspecting invariance."""
    n, r = check_dim(spec.modulus), spec.period
    return {value: {str(c): float(p) for c, p in enumerate(row)}
            for value, row in zip(spec.values[:r], _branch_distributions(n, r, range(r)))}


def success_probability(result: RunResult, success_outcomes: Sequence[str]) -> float:
    """Total probability of the listed outcomes in a run's distribution;
    a label listed twice counts once."""
    labels = dict.fromkeys(success_outcomes)
    for label in labels:
        if label not in result.outcome_distribution:
            raise UnknownOutcome(f"outcome {label!r} not in distribution")
    return min(1.0, sum(result.outcome_distribution[label] for label in labels))
