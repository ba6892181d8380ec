"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A design, prior, test spec, or scenario violates its invariants."""


class DataError(ValueError):
    """An outcome or dataset is incompatible with the declared family."""


class NumericalError(RuntimeError):
    """A superiority probability, outcome or comparator statistic is not finite."""
