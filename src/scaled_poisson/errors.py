"""Exception types shared across the package, and the one size budget."""


class ValidationError(ValueError):
    """Inputs violate a documented precondition (domain, shape, range)."""


class NumericalRangeError(ArithmeticError):
    """A requested quantity fell below the supported floating-point range."""


# The most bytes an input-sized array, with the scratch that builds it, may
# take: 1 GiB, which a Stein table reaches at 2**24 points of 64 bytes.
_BUDGET = 2**30


def _within_budget(what: str, size: int, point_bytes: int = 8) -> int:
    """size, or a ValidationError once size points of point_bytes pass _BUDGET."""
    if size * point_bytes > _BUDGET:
        limit = _BUDGET // point_bytes
        raise ValidationError(f"{what} spans {size} points, past the budget of {limit}")
    return size
