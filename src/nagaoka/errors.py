"""Shared exception types, and the dimension budget behind one of them."""

import os


class ModelParseError(ValueError):
    """Model file is malformed and cannot be parsed."""


class ModelValidationError(ValueError):
    """A validity condition (A.1-A.4) is violated.

    ``condition`` carries the short code of the violated condition so
    callers and tests can match on it.
    """

    def __init__(self, condition, message):
        super().__init__(f"{condition} violated: {message}")
        self.condition = condition


class DimensionBudgetError(RuntimeError):
    """A requested matrix would exceed the dimension budget.

    The budget defaults to 200000 and can be overridden with the
    NAGAOKA_DIM_BUDGET environment variable.
    """


class ConvergenceError(RuntimeError):
    """An iterative solve did not reach the requested residual."""


class AmbiguousSpinError(RuntimeError):
    """Ground-state spin could not be resolved to a half-integer."""


class InconsistencyError(RuntimeError):
    """Certificate implication violated: sign structure and irreducibility
    hold but the ground state is not unique/strictly positive.  Indicates a
    solver failure and is never accepted silently."""


DEFAULT_DIM_BUDGET = 200_000


def dim_budget() -> int:
    """Dimension ceiling for assembled matrices (env NAGAOKA_DIM_BUDGET)."""
    return int(float(os.environ.get("NAGAOKA_DIM_BUDGET", DEFAULT_DIM_BUDGET)))


def guard_dimension(dim: int, what: str):
    """Raise DimensionBudgetError when ``dim`` exceeds the budget; callers
    check the count before they enumerate or assemble anything.  A count
    past 63 bits is reported by its power-of-two lower bound, so no message
    formats an integer of unbounded length."""
    budget = dim_budget()
    if dim > budget:
        bits = int(dim).bit_length()
        size = dim if bits <= 63 else f"at least 2^{bits - 1}"
        raise DimensionBudgetError(
            f"{what} needs dimension {size} > budget {budget} "
            f"(raise NAGAOKA_DIM_BUDGET to override)")
