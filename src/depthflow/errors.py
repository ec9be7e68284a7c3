"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``category`` used by the CLI
to map failures to exit codes.
"""


class DepthflowError(Exception):
    category = "internal"


class ConfigError(DepthflowError):
    """Invalid experiment or model configuration."""

    category = "config"


class DataFormatError(DepthflowError):
    """Malformed input data (e.g. a bad IDX file)."""

    category = "format"


class NotPsdError(DepthflowError):
    """A matrix that must be positive semi-definite is not."""

    category = "numerical"


class SolverError(DepthflowError):
    """A numerical solver failed to converge or bracket a root."""

    category = "numerical"


class DegenerateDistributionError(DepthflowError):
    """A sample has zero variance, or too few usable draws, where spread
    is required."""

    category = "numerical"


class InsufficientDataError(DepthflowError):
    """Too few samples for the requested estimator."""

    category = "config"
