"""Exception hierarchy shared across the package.

Every error raised on a violated contract derives from MarkovProdError so
callers (in particular the CLI) can distinguish domain failures from bugs.
"""

from __future__ import annotations


class MarkovProdError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidMatrix(MarkovProdError, ValueError):
    """Matrix fails row-stochasticity or shape checks."""


class NotIrreducible(MarkovProdError):
    """Transition matrix whose positive-entry digraph is not strongly connected."""


class NotPrimitive(MarkovProdError):
    """Operation requires a primitive transition matrix."""


class NumericalFailure(MarkovProdError, ArithmeticError):
    """A numerical method failed: a singular solve, a residual above its
    tolerance, or an iteration that did not converge."""


class ZeroStationaryEntry(MarkovProdError):
    """Stationary vector has a zero entry where positivity is required."""


class OutsideDomain(MarkovProdError, ValueError):
    """Point lies outside the ambient box."""


class DenominatorVanishes(MarkovProdError, ZeroDivisionError):
    """Moebius denominator has a zero on the requested interval."""


class NotSelfMapping(MarkovProdError, ValueError):
    """A map does not send the ambient box into itself."""


class NotMonotoneSystem(MarkovProdError):
    """System admits no common monotone sign class and no fallback route."""


class LastSymbolMismatch(MarkovProdError, ValueError):
    """Witness words must end in the same symbol."""


class InadmissibleWord(MarkovProdError, ValueError):
    """Word contains a transition of probability zero."""


class NoRowPositiveState(MarkovProdError):
    """No state has a strictly positive transition row."""


class BudgetExceeded(MarkovProdError):
    """Requested enumeration is larger than the configured budget."""


class LengthMismatch(MarkovProdError, ValueError):
    """Words that must share a length do not."""


class HypothesisViolated(MarkovProdError):
    """Input pair fails a precondition of the bound being verified."""


class DegenerateCurve(MarkovProdError):
    """Too few positive samples to fit a decay rate."""


class ConfigError(MarkovProdError, ValueError):
    """Configuration file is missing, malformed, or fails validation."""
