"""Exception types shared across the package, and the one bound on how
much an exhaustive enumeration may list."""

# the most matrices, states, sequences or table rows one call may list
ENUMERATION_BUDGET = 2_000_000


class JuggleError(Exception):
    """Base class for all package-specific errors."""


class IllegalThrow(JuggleError):
    """A throw whose landing cell is occupied, or a nonzero throw from a
    state with an empty first cell."""


class ParseError(JuggleError):
    """Malformed state or siteswap text."""


class InvalidPattern(JuggleError):
    """A throw sequence that does not close up into a juggling pattern."""


class ResourceLimit(JuggleError):
    """An exhaustive enumeration would exceed ENUMERATION_BUDGET."""


def check_budget(total: float, what: str) -> None:
    """Raise ResourceLimit unless listing `total` items (`what` names them)
    stays within ENUMERATION_BUDGET; a NaN or infinite total is refused."""
    if not total <= ENUMERATION_BUDGET:
        raise ResourceLimit(f"{what} enumeration exceeds budget")


class CapTooSmall(JuggleError):
    """A truncation cap leaves a tail bound too large to certify the check."""


class DomainError(JuggleError):
    """An argument outside the mathematical domain of a closed form."""
