"""Error types raised across the toolkit.

Every failure mode named by a module contract maps to one of these, so
callers (and the CLI) can distinguish bad configuration from degenerate
data from numerical breakdown without string matching.
"""


class DpdError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(DpdError):
    """A parameter, carrier, or plan violates its contract (Nyquist overrun,
    mismatched layouts, empty carrier lists, bad chunk plans, ...)."""


class DegenerateInputError(DpdError):
    """Input data is structurally unusable: all-zero buffers and the like."""


class InsufficientDataError(DpdError):
    """A buffer is too short for the requested operation."""


class ConditioningError(DpdError):
    """A linear-algebra step met a numerically singular or near-singular
    system. Carries the condition estimate when known."""

    def __init__(self, message: str, condition_estimate: float | None = None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class DivergenceError(DpdError):
    """A stage overflowed single precision (the predistorter or the
    transmit chain driven too hot, runaway coefficients), or the untrained
    chain scores no better than an all-zero output."""


class CorrectnessError(DpdError):
    """A cross-check between two implementations of the same computation
    failed; results cannot be trusted."""
