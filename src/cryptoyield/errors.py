"""Exception types shared across the package.

Every module raises subclasses of CryptoYieldError so callers (and the CLI)
can distinguish bad inputs from numeric/model failures.
"""


class CryptoYieldError(Exception):
    """Base class for all package errors."""


class DomainError(CryptoYieldError, ValueError):
    """A parameter is outside its mathematical domain."""


class UndefinedRatioError(CryptoYieldError):
    """A ratio statistic (e.g. Sharpe) is undefined for the inputs."""


class IllConditionedError(CryptoYieldError):
    """Covariance matrix is singular, indefinite or numerically unusable."""


class EligibilityError(CryptoYieldError):
    """Validator fails the staking eligibility rules for the period."""


class MissingDataError(CryptoYieldError):
    """A required snapshot or record is absent."""


class EmptyCohortError(CryptoYieldError):
    """No eligible validators on the requested day."""


class RatioError(CryptoYieldError):
    """Submitted token amounts do not match the pool ratio."""


class LifecycleError(CryptoYieldError):
    """Operation attempted from an invalid state-machine state."""


class StaleTickError(CryptoYieldError):
    """Oracle tick is out of order or not newer than the last one seen."""


class MissingFixingError(CryptoYieldError):
    """A floating leg has no fixing for the accrual period."""


class EmptyDayError(CryptoYieldError):
    """No valid implied-rate points for the requested day."""


class InputError(CryptoYieldError):
    """Malformed input file or configuration (reported with file/line)."""
