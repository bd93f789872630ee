"""Exception types shared across the package."""


class DoseDidError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(DoseDidError):
    """A column-name mapping does not match the file it describes."""


class DataParseError(DoseDidError):
    """A cell could not be parsed; carries row/column context in the message."""


class DataValidationError(DoseDidError):
    """A dataset violates a structural invariant (e.g. control rows with a dose)."""


class PeriodLookupError(DoseDidError, KeyError):
    """A requested period label is not present in the panel."""


class FitError(DoseDidError):
    """A model fit cannot proceed (single-class labels, degenerate exposure, ...)."""


class BandwidthError(DoseDidError):
    """Local smoothing is infeasible: too few in-window points, or no feasible candidate."""

    def __init__(self, message, delta=None):
        super().__init__(message)
        self.delta = delta


class ExtrapolationError(DoseDidError):
    """A dose falls outside the node range of the marginal curves."""


class EstimationError(DoseDidError):
    """An estimator could not produce a result for a valid request."""


class ConfigError(DoseDidError):
    """A run configuration is invalid; carries every detected problem."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
