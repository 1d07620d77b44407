"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError and
ContractError -> 3, LearnerError -> 4 (as are numpy's LinAlgError,
FloatingPointError and MemoryError). Library code raises ContractError for
violated call contracts (caller bugs) and DataError for rejected input
values.
"""


class RankselError(Exception):
    pass


class ContractError(RankselError, ValueError):
    """A call violated a documented precondition (shape, range, etc.)."""


class DataError(RankselError, ValueError):
    """Input data is malformed or contains rejected values (NaN, inf)."""


class ConfigError(RankselError, ValueError):
    """Bad configuration or command-line usage."""


class LearnerError(RankselError, RuntimeError):
    """A training procedure failed on its data (rank deficiency etc.)."""
