"""Exact feasibility for small integer linear systems.

Variables are nonnegative integers; the systems produced by the
coalition-type solver have coefficients bounded by the coalition size cap
and right-hand sides bounded by the agent count, so a dynamic program over
residual right-hand-side vectors decides feasibility exactly.  Inequality
rows are tracked as extra budget coordinates that must stay nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInput

Row = tuple[tuple[int, ...], int]


@dataclass(frozen=True)
class ILPSystem:
    num_vars: int
    equalities: tuple[Row, ...]
    inequalities_le: tuple[Row, ...]

    def __post_init__(self):
        for coeffs, _ in self.equalities + self.inequalities_le:
            if len(coeffs) != self.num_vars:
                raise InvalidInput("row width does not match variable count")
            if any(c < 0 for c in coeffs):
                raise InvalidInput("coefficients must be nonnegative")


def feasible(system: ILPSystem) -> dict[int, int] | None:
    """A nonnegative integer assignment satisfying all rows, or None.

    Adds one variable at a time, memoizing on the residual right-hand
    sides; a state is feasible when all equality residuals reach zero with
    every inequality budget still nonnegative.
    """
    eq0 = tuple(rhs for _, rhs in system.equalities)
    le0 = tuple(rhs for _, rhs in system.inequalities_le)
    if any(r < 0 for r in eq0) or any(r < 0 for r in le0):
        return None
    memo: dict[tuple[int, tuple[int, ...], tuple[int, ...]], bool] = {}

    def ok(var: int, eq: tuple[int, ...], le: tuple[int, ...]) -> bool:
        if var == system.num_vars:
            return not any(eq)
        key = (var, eq, le)
        hit = memo.get(key)
        if hit is not None:
            return hit
        bound = _usage_bound(system, var, eq, le)
        result = False
        for k in range(bound + 1):
            new_eq = tuple(
                r - k * coeffs[var] for (coeffs, _), r in zip(system.equalities, eq)
            )
            new_le = tuple(
                r - k * coeffs[var]
                for (coeffs, _), r in zip(system.inequalities_le, le)
            )
            if any(r < 0 for r in new_eq) or any(r < 0 for r in new_le):
                continue
            if ok(var + 1, new_eq, new_le):
                result = True
                break
        memo[key] = result
        return result

    if not ok(0, eq0, le0):
        return None

    # Reconstruct one witness along memoized feasible states.
    assignment: dict[int, int] = {}
    eq, le = eq0, le0
    for var in range(system.num_vars):
        for k in range(_usage_bound(system, var, eq, le) + 1):
            new_eq = tuple(
                r - k * coeffs[var] for (coeffs, _), r in zip(system.equalities, eq)
            )
            new_le = tuple(
                r - k * coeffs[var]
                for (coeffs, _), r in zip(system.inequalities_le, le)
            )
            if any(r < 0 for r in new_eq) or any(r < 0 for r in new_le):
                continue
            if ok(var + 1, new_eq, new_le):
                assignment[var] = k
                eq, le = new_eq, new_le
                break
    assert not any(eq)
    return assignment


def _usage_bound(system: ILPSystem, var: int, eq, le) -> int:
    bound = None
    for (coeffs, _), r in zip(system.equalities, eq):
        if coeffs[var] > 0:
            b = r // coeffs[var]
            bound = b if bound is None else min(bound, b)
    for (coeffs, _), r in zip(system.inequalities_le, le):
        if coeffs[var] > 0:
            b = r // coeffs[var]
            bound = b if bound is None else min(bound, b)
    return 0 if bound is None else bound
