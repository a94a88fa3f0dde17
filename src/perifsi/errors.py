"""Error types shared across the package.

Exit-code mapping used by the CLI:
    0 success, 2 DomainViolation, 3 NoConvergence, 4 SingularMonodromy.
"""


class DomainViolation(RuntimeError):
    """The shell displacement broke the admissibility of the fluid domain."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class BasisMismatch(ValueError):
    """Fields were built on incompatible bases or dimensions."""


class GridMismatch(ValueError):
    """Sampled data does not line up with the expected time grid."""


class EigenFailure(RuntimeError):
    """The discrete eigenproblem could not deliver the requested modes."""


class LinearSolveFailure(RuntimeError):
    """A time-step linear system was singular or ill-conditioned."""


class SingularMonodromy(RuntimeError):
    """I - A is numerically singular: a Floquet multiplier sits at 1 (resonance)."""


class NoConvergence(RuntimeError):
    """The outer fixed-point loop exhausted its iteration budget; history
    holds the update of every iteration."""

    def __init__(self, message, iterations=None, last_update=None, history=None):
        super().__init__(message)
        self.iterations = iterations
        self.last_update = last_update
        self.history = history


class ZeroForcing(ValueError):
    """Diffusion ratio requested with identically zero boundary forcing."""


class ParseError(ValueError):
    """Config text could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(ValueError):
    """A parsed config violates a parameter invariant."""


EXIT_CODES = {
    DomainViolation: 2,
    NoConvergence: 3,
    SingularMonodromy: 4,
}


def exit_code_for(exc):
    """Map an exception to the CLI exit code (1 for anything unclassified)."""
    for cls, code in EXIT_CODES.items():
        if isinstance(exc, cls):
            return code
    return 1
