"""Package exception types."""


class ConfigurationError(ValueError):
    """Invalid scenario, filter or experiment configuration."""


class NumericalError(RuntimeError):
    """Numerical failure: non-finite objective, non-PSD covariance, etc."""


class SimulationError(RuntimeError):
    """Truth generation failed, e.g. no in-region path within the draw budget."""
