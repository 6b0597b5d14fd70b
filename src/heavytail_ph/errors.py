"""Exception types shared across the fitting pipeline."""


class InvalidModelError(ValueError):
    """A fitting step produced structurally invalid parameters."""


class ConfigError(ValueError):
    """Fit settings with nothing to fit, such as a body edge above the grid."""


class NonConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to reach its tolerance."""


class UnstableQueueError(ValueError):
    """Requested queue analysis with utilization >= 1."""

    def __init__(self, rho):
        super().__init__(f"unstable queue: utilization {rho:.6f} >= 1")
