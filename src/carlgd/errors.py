"""Error taxonomy shared across the package.

The CLI maps these onto exit codes: input/validation errors -> 1,
numeric failures (divergence, overflow, singular systems,
non-convergence) -> 2,
capacity errors -> 3.
"""


class InputError(ValueError):
    """Rejected input: dimension mismatch, bad flag value, invalid config."""


class ParseError(InputError):
    """Malformed data file; message carries the offending line number."""


class EmptySupportError(InputError):
    """Error-proxy spectrum has no eigenvalue beyond the magnitude threshold."""


class NumericError(RuntimeError):
    """Base class for runtime numeric failures."""


class NumericOverflowError(NumericError):
    """A non-finite value appeared in a loss/gradient evaluation."""


class DivergenceError(NumericError):
    """Trajectory left the configured bound or went non-finite.

    `step` is the first offending step index.
    """

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


class SingularSystemError(NumericError):
    """Numerically singular global system (sigma_min < 1e-14 * sigma_max)."""

    def __init__(self, message, sigma_max, sigma_min):
        super().__init__(message)
        self.sigma_max = sigma_max
        self.sigma_min = sigma_min


class ConvergenceError(NumericError):
    """An iterative eigensolver reached its iteration cap unconverged."""


class DegenerateStateError(NumericError):
    """Readout was asked to sample from a state whose norm is zero,
    overflows or is not finite."""


class CapacityError(RuntimeError):
    """Requested embedding exceeds the memory budget; `required` is the
    total dimension that would have been needed."""

    def __init__(self, message, required, budget):
        super().__init__(message)
        self.required = required
        self.budget = budget
