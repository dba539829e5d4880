"""Shared exception types, and the two budgets behind one of them."""

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
    """A requested matrix would exceed the dimension budget (default 200000,
    env NAGAOKA_DIM_BUDGET) or the fixed stored-entry budget, ENTRY_BUDGET."""


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
    """Dimension ceiling for assembled matrices (env NAGAOKA_DIM_BUDGET, a
    finite, non-negative integral value such as 5000 or 1e6)."""
    text = os.environ.get("NAGAOKA_DIM_BUDGET", str(DEFAULT_DIM_BUDGET))
    try:
        value = float(text)
        if value >= 0 and value.is_integer():       # false for nan and inf
            return int(value)
    except ValueError:
        pass
    raise ValueError(f"NAGAOKA_DIM_BUDGET must be a finite, non-negative integer, got {text!r}")


def _refuse_over(count: int, budget: int, what: str, amount: str, remedy: str):
    """Raise DimensionBudgetError when ``count`` exceeds ``budget``.  A count
    past 63 bits is reported by its power-of-two lower bound, so no message
    formats an integer of unbounded length."""
    if count > budget:
        bits = int(count).bit_length()
        size = count if bits <= 63 else f"at least 2^{bits - 1}"
        raise DimensionBudgetError(f"{what} needs {amount.format(size)} > budget {budget} ({remedy})")


def guard_dimension(dim: int, what: str):
    """Raise DimensionBudgetError when ``dim`` exceeds the budget; callers
    check the count before they enumerate or assemble anything."""
    _refuse_over(dim, dim_budget(), what, "dimension {}", "raise NAGAOKA_DIM_BUDGET to override")


#: Stored entries one operator may hold: a dense 4096 x 4096 matrix, or a
#: sparse build near 1.3 GB at its peak of about 77 bytes per entry.
ENTRY_BUDGET = 4096**2


def guard_entries(count: int, what: str):
    """Raise DimensionBudgetError when ``what`` would store more than
    ENTRY_BUDGET entries; callers count in Python ints, before building."""
    _refuse_over(count, ENTRY_BUDGET, what, "{} stored entries", "fixed; reduce the cutoff or model")
