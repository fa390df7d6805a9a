"""Exception hierarchy shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class MomentDoesNotExist(DomainError):
    """The requested moment diverges for the given entropy index."""


class DegenerateStep(ArithmeticError):
    """The closed-form Newton step has a vanishing denominator."""


class NoConvergence(RuntimeError):
    """An iteration budget ran out before the convergence test was met.

    Carries the last/best iterate so callers can inspect how close the
    procedure got.
    """

    def __init__(self, message, *, beta=None, residual=None, iterations=None,
                 report=None):
        super().__init__(message)
        self.beta = beta
        self.residual = residual
        self.iterations = iterations
        self.report = report


class SingularFit(ValueError):
    """The fitting data cannot determine the model parameters."""


class InputFormatError(ValueError):
    """An input file is malformed; the message starts with the offending line."""
