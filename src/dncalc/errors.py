"""Exception hierarchy shared by all layers of the package."""


class DnCalcError(Exception):
    """Base class for every error raised by this package."""


class IncompatibleJetsError(DnCalcError):
    """Values that cannot combine: jets from different ambient spaces
    (dimension, base point), or a real and an imaginary symbol part."""


class BudgetExhaustedError(DnCalcError):
    """A derivative was requested but the truncation order is already zero."""


class BackendError(DnCalcError):
    """Operation whose result leaves the rational field: a float input, the
    root of a constant term that is not a rational power, or exp or log at a
    constant term other than 0 or 1."""


class NotInvertibleError(DnCalcError):
    """Reciprocal/root of a jet whose constant term does not allow it."""


class MetricError(DnCalcError):
    """Boundary metric data fails symmetry or positivity requirements."""


class DepthError(DnCalcError):
    """Requested symbol depth is invalid or exceeds what the data supports."""


class DataError(DnCalcError):
    """DN symbol data is malformed or inconsistent (wrong kind, gauge, sign)."""


class ReconstructionError(DnCalcError):
    """An inversion step degenerated (singular pivot, no real root, ...).
    When an order-by-order solve failed, ``method``, ``order`` and ``grade``
    name it, ``unknown`` is the index of the unknown without a unit pivot if
    that is why, and ``residual`` the largest coefficient left over if the
    system was inconsistent; otherwise they are None."""

    def __init__(self, message, method=None, order=None, grade=None, unknown=None,
                 residual=None):
        super().__init__(message)
        self.method, self.order, self.grade = method, order, grade
        self.unknown, self.residual = unknown, residual


class ScenarioError(DnCalcError):
    """Scenario file failed to parse or validate."""
