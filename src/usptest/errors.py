"""Exception types shared across the package.

Every error raised by the library derives from :class:`UspError`, which itself
derives from ``ValueError`` so that generic callers can catch invalid-input
conditions without importing this module.
"""

__all__ = [
    "UspError",
    "DomainError",
    "NegativeCount",
    "EmptyTable",
    "EmptySample",
    "SampleTooSmall",
    "SubsampleTooLarge",
    "UndefinedStatistic",
    "DivergenceUndefined",
    "InvalidMode",
    "InfeasibleEpsilon",
]


class UspError(ValueError):
    """Base class for all errors raised by this package."""


class DomainError(UspError):
    """An argument lies outside the mathematical domain of the operation."""


class NegativeCount(UspError):
    """A contingency table cell is negative."""


class EmptyTable(UspError):
    """A table has zero rows or zero columns."""


class EmptySample(UspError):
    """An operation requires at least one observation but the table has none."""


class SampleTooSmall(UspError):
    """The statistic needs more observations than the table contains."""


class SubsampleTooLarge(UspError):
    """A subsample size exceeds the number of observations available."""


class UndefinedStatistic(UspError):
    """A classic statistic is undefined because a row or column margin is zero."""


class DivergenceUndefined(UspError):
    """The chi-squared divergence has a zero reference cell with nonzero mass."""


class InvalidMode(UspError):
    """The requested (method, mode) combination does not exist."""


class InfeasibleEpsilon(UspError):
    """A family perturbation parameter leaves the probability simplex."""
