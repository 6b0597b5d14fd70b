"""Exception types shared across the fitting pipeline."""


class InvalidModelError(ValueError):
    """A fitting step produced structurally invalid parameters.

    Carries the recursion stage (1-based exponential-term index) at which
    the violation occurred, when known.
    """

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage


class NonConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to reach its tolerance."""


class UnstableQueueError(ValueError):
    """Requested queue analysis with utilization >= 1."""

    def __init__(self, rho):
        super().__init__(f"unstable queue: utilization {rho:.6f} >= 1")
        self.rho = rho
