"""Exception types shared across the solver suite, and the search-cap policy."""

import os


class HdgError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(HdgError):
    """Malformed instance data or generator input."""


class EmptyCoalition(HdgError):
    """A palette was requested for an empty coalition."""


class InvalidOutcome(HdgError):
    """An outcome is not a partition of the agent set."""


class SearchSpaceTooLarge(HdgError):
    """A solver's branching space exceeds the configured cap."""


def search_cap(default: int) -> int:
    """Limit of one search guard: its default, raised by HDG_SEARCH_CAP.

    The variable only raises guards, to max(default, value), so raising one
    cap never lowers another.  A value that is not an integer >= 1 raises
    InvalidInput.
    """
    env = os.environ.get("HDG_SEARCH_CAP")
    if not env:
        return default
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise InvalidInput(f"HDG_SEARCH_CAP={env!r} is not an integer >= 1")
    return max(default, value)


class OwnColorViolation(HdgError):
    """A preference order is not expressible over own-color ratios."""


class SolverDivergence(HdgError):
    """A solver produced a witness that fails verification.

    This should never happen; it indicates a bug and is raised loudly
    instead of being silently patched over.
    """
