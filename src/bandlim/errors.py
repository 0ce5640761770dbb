"""Exception types shared across the package."""


class BandlimError(Exception):
    """Base class for all bandlim errors."""


class DomainError(BandlimError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class InvalidOrderError(BandlimError, ValueError):
    """Order n is negative or exceeds the supported maximum."""


class InvalidRuleError(BandlimError, ValueError):
    """Requested quadrature rule size is out of range or construction failed."""


class RuleTooSmallError(BandlimError, ValueError):
    """Quadrature rule has too few points for the requested polynomial degree."""


class EvaluationError(BandlimError, ArithmeticError):
    """An integrand returned a non-finite value at a quadrature node."""


class ConvergenceError(BandlimError, ArithmeticError):
    """An iterative computation exhausted its budget without converging.

    For line integrals the last two accelerated values are attached so the
    caller can judge how far apart they are; for a stacked integral they
    are those of the first row that did not converge.
    """

    def __init__(self, message, last_values=None):
        super().__init__(message)
        self.last_values = last_values


class SingularSymbolError(BandlimError, ValueError):
    """The operator symbol F(it) vanishes somewhere on [-1, 1]."""

    def __init__(self, message, t_zero=None):
        super().__init__(message)
        self.t_zero = t_zero
