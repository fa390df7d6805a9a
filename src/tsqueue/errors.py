"""The package's errors.  ``cli.main`` prints each as ``error: ...`` and exits
2 on ``DomainError`` (``MomentDoesNotExist`` is one) and on the built-in
``OverflowError`` of a result beyond the double range, 3 on ``NoConvergence``
and ``SingularFit``, and 4 on ``InputFormatError``."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class MomentDoesNotExist(DomainError):
    """The requested moment diverges for the given entropy index."""


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
