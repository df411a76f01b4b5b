"""Exact solvers for stable outcomes in hedonic diversity games."""

from .core import (
    Budgets,
    Instance,
    NamedFamily,
    TierList,
    make_instance,
    palette_of,
)
from .stability import (
    EMPTY,
    IS,
    NS,
    CheckResult,
    Deviation,
    Outcome,
    check_outcome,
    find_is_deviation,
    find_ns_deviation,
)
from .brute import solve_brute, solve_brute_positions
from .colors_ntcoal import solve_colors_ntcoal
from .colors_size import solve_colors_size
from .colors_types import solve_colors_types
from .ownhdg import solve_ownhdg_nash

__all__ = [
    "solve_brute",
    "solve_brute_positions",
    "solve_colors_ntcoal",
    "solve_colors_size",
    "solve_colors_types",
    "solve_ownhdg_nash",
    "Budgets",
    "Instance",
    "NamedFamily",
    "TierList",
    "make_instance",
    "palette_of",
    "EMPTY",
    "IS",
    "NS",
    "CheckResult",
    "Deviation",
    "Outcome",
    "check_outcome",
    "find_is_deviation",
    "find_ns_deviation",
]
