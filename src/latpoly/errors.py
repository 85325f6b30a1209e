"""Exception types shared by all latpoly modules, and the one check that
every size and index argument goes through."""

from __future__ import annotations


class LatPolyError(Exception):
    """Base class for all latpoly errors."""


class TruncationInsufficient(LatPolyError):
    """A truncated series was asked for a coefficient beyond its trusted order."""


class NonUnitLeadingCoefficient(LatPolyError):
    """Series inversion needs the lowest coefficient to be a nonzero rational.

    If the lowest coefficient has zero rational part (or carries symbols),
    the expansion around the origin is not a formal series with polynomial
    coefficients, so inversion is refused rather than guessed at.
    """


class NonInvertibleSubstitution(LatPolyError):
    """A negative exponent met a binding that is not an invertible monomial."""


class ZeroLambda(LatPolyError):
    """rho-ct's change of variable x -> rho + b + lambda/rho met a zero
    background lambda."""


class NearBranchPoint(LatPolyError):
    """Floating-point closed-form evaluation too close to x*x == 4."""


class SizeLimit(LatPolyError):
    """An enumeration would exceed its configured cap."""


class GuardViolation(LatPolyError):
    """A closed-form sum's guard layer, evaluated past the derived support
    bound, is nonzero: the bound is wrong and the sum would be truncated."""


class CutOutOfRange(LatPolyError):
    """Edge or vertex cut position outside the valid range."""


class InsufficientWeights(LatPolyError):
    """Fewer down-step weights supplied than the formula consumes."""


class IndexOutOfRange(LatPolyError):
    """Stratum index outside the defined range."""


class SchemaError(LatPolyError):
    """A JSON document does not match the weights schema.

    Carries a JSON-pointer style path to the offending field.
    """

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        self.message = message
        super().__init__(f"{pointer}: {message}")


def _check_size(value, what: str, lo: int = 0, hi: int | None = None,
                error: type = ValueError) -> int:
    """The one rule for every size and index argument: an int, not a bool,
    in [lo, hi] (no upper end when hi is None).  Anything else raises
    ValueError, except that an int out of range raises ``error`` where a
    caller documents its own (a cut's CutOutOfRange, a stratum's
    IndexOutOfRange).  Returns the value."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        bound = (f"in [{lo}, {hi}]" if hi is not None
                 else "nonnegative" if lo == 0 else f"at least {lo}")
        raise error(f"{what} must be {bound}, got {value!r}")
    return value
