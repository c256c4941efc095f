"""Exception types shared across the package."""


class PlisLabError(Exception):
    """Base class for all plislab errors."""


class ShapeError(PlisLabError):
    """Operand shapes are incompatible with the requested operation."""


class GraphError(PlisLabError):
    """Invalid use of the autodiff graph (detached output, foreign tensor, ...)."""


class ConfigError(PlisLabError):
    """Invalid configuration value, flag or config file."""


class DataFormatError(PlisLabError):
    """Malformed dataset or checkpoint file."""


class BudgetError(PlisLabError):
    """Privacy budget unattainable within the search bounds."""


class DimensionGuardError(PlisLabError):
    """Requested Jacobian/FIM materialization exceeds the dimension guard."""


class TrainingDivergedError(PlisLabError):
    """Training loss or parameters became non-finite."""


class AttackFailedError(PlisLabError):
    """Every attack restart produced a non-finite objective."""
