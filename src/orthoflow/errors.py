"""Exception types shared across the solver modules."""


class ConfigurationError(ValueError):
    """A run/band/scenario configuration is inconsistent or out of range."""


class SnapshotFormatError(ValueError):
    """A snapshot file is malformed or fails its integrity checks."""


class NumericalHealthError(ArithmeticError):
    """A numerical-health check failed during a run.

    Raised when an MBO step's diffusion result is not finite or its
    projection output is not orthogonal.
    """
