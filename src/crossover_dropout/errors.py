"""Exception types shared across the package, and the integer checks.

ValidationError maps to CLI exit code 2, every other package error to exit
code 1 (see cli module).
"""


class CrossoverError(Exception):
    """Base class for all package errors."""


class ValidationError(CrossoverError, ValueError):
    """Malformed user input: bad probability vector, design file, labels."""


class BudgetExceededError(CrossoverError, RuntimeError):
    """An enumeration grew past its configured budget."""


class InfeasibleWeightsError(CrossoverError, RuntimeError):
    """No nonnegative block weights can satisfy the balance equations."""


def check_integers(payload: dict, keys: tuple[str, ...], source: str) -> None:
    """Refuse file fields that are not JSON integers (bools, floats, strings)."""
    for key in keys:
        if isinstance(payload[key], bool) or not isinstance(payload[key], int):
            raise ValidationError(f"{source}: {key} must be an integer, got {payload[key]!r}")


def as_integers(values, what: str) -> tuple[int, ...]:
    """``values`` as ints; a non-integral or non-finite one is a validation error."""
    values = tuple(values)
    try:
        out = tuple(map(int, values))
        if out == values:
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{what} must be integers, got {values!r}")
