"""Exception types shared across the package, and the scalar range rule."""
from math import inf


class ParameterError(ValueError):
    """A physical or numerical parameter is outside its admissible range."""


def check_range(low=0.0, high=inf, closed=False, integer=False, **values) -> None:
    """Raise ParameterError naming the first keyword value outside (low, high),
    or [low, high) when closed, or, with integer, one `operator.index` refuses.
    The test is one a value must pass, so NaN and inf fail it, and -inf too
    unless low is -inf and closed."""
    for name, x in values.items():
        if integer and not hasattr(type(x), "__index__"):  # operator.index's test
            raise ParameterError(f"{name} must be an integer, got {x!r}")
        if not ((low <= x if closed else low < x) and x < high):
            raise ParameterError(f"{name} must lie in {'[' if closed else '('}{low:g}, "
                                 f"{high:g}), got {x}")


class RegimeError(ParameterError):
    """A scaling regime was requested with inadmissible exponents."""


class GridMismatchError(ValueError):
    """Two fields that must share a grid or node set do not."""


class AssemblyError(RuntimeError):
    """A per-mode operator could not be factorized.

    The coupled step operator is symmetric positive definite for every
    wavenumber, so a failed factorization signals a discretization bug,
    not a hard problem instance.
    """


class InvariantError(AssertionError):
    """A discrete invariant of a computed state does not hold.

    Raised explicitly, so the checks survive `python -O`; it derives from
    AssertionError for callers that catch that.
    """


class PositivityError(RuntimeError):
    """A film step stayed non-finite, or below the positivity floor, through
    every halving.  last_state: the last valid height, a one-snapshot trajectory."""

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class DegenerateFitError(ValueError):
    """A rate fit was requested on data that cannot support one, e.g.
    machine-exact zero errors."""


class UsageError(ValueError):
    """Invalid configuration document or command-line usage."""
