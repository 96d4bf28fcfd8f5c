"""Exception taxonomy shared by every module in the package.

All errors raised on purpose derive from :class:`QclError`, so callers (and
the command line driver) can distinguish "the input violates a documented
contract" from a genuine bug.  Validation failures carry the name of the
violated invariant and the numeric magnitude of the violation.
"""

from __future__ import annotations


class QclError(Exception):
    """Base class for all package-specific errors."""


class ValidationFailure(QclError):
    """A matrix or table failed one of its defining invariants.

    Attributes:
        invariant: short name of the violated property ("hermitian",
            "trace-one", "positive", "idempotent", "unitary", ...).
        magnitude: size of the violation in the relevant norm.
    """

    def __init__(self, invariant: str, magnitude: float, detail: str = ""):
        self.invariant = invariant
        self.magnitude = float(magnitude)
        msg = f"invariant {invariant!r} violated by {self.magnitude:.3e}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DimensionMismatch(QclError):
    """Operands live on spaces of different dimension."""


class NonRealTrace(QclError):
    """A trace pairing that must be real came out complex."""


class NotOrthonormalFamily(QclError):
    """Projectors handed in do not form an orthogonal resolution of identity."""


class ArityMismatch(QclError):
    """Input length does not match a circuit's declared arity."""


class UnknownInput(QclError):
    """A stochastic table has no row for the requested input word."""


class GroundMismatch(QclError):
    """An event set lives over a different ground set than the measure."""


class InvalidWire(QclError):
    """A gate references a wire outside the register, or repeats one."""


class UnknownGate(QclError):
    """Gate name not in the supported alphabet."""


class EnumerationCapExceeded(QclError):
    """Word enumeration would produce more words than the configured cap."""


class UnboundedParameter(QclError):
    """A parametric gate template has no finite phase grid to enumerate."""


class SizeCapExceeded(QclError):
    """The request would materialize more objects than the configured cap."""


class ClosureCapExceeded(QclError):
    """Lattice closure under meet/join/ortho exceeded the element cap."""


class ToleranceCollision(QclError):
    """Two candidate lattice elements are neither equal nor distinct at
    the working tolerance, so deduplication would be ambiguous."""


class NotClosedUnderConjugation(QclError):
    """Conjugating a projection lattice by a unitary left the lattice."""


class LatticeMismatch(QclError):
    """States or automorphisms attached to different lattices were mixed."""


class WidthMismatch(QclError):
    """Register widths disagree (oracle vs circuit, word vs word, ...)."""


class InvalidSpec(QclError):
    """A problem specification is internally inconsistent."""


class UnknownOutcome(QclError):
    """An outcome label does not occur in a result's distribution."""


class ParseError(QclError):
    """A textual word, circuit, or JSON payload could not be parsed."""


class HierarchyViolation(QclError):
    """The equivalence-relation implication chain failed; this indicates a
    bug in the relation implementations, not bad user input."""


class InvalidArgument(QclError, ValueError):
    """An argument lies outside the values a function accepts; also a
    ValueError, so callers that catch ValueError still catch it."""


class IndexOutOfRange(QclError):
    """An element, state, or generator index is out of range."""
