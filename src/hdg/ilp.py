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
    """The lexicographically smallest nonnegative integer assignment
    satisfying all rows, or None.

    Assigns one variable at a time, smallest value first, on the residual
    right-hand sides of all rows; no value may drive a residual negative,
    and the equality residuals must end at zero, so the last variable with
    a nonzero coefficient in an equality row may only take the value that
    zeroes it.  A (variable, residuals) state shown infeasible is
    remembered and never searched again.
    """
    rows = system.equalities + system.inequalities_le
    n_eq = len(system.equalities)
    start = tuple(rhs for _, rhs in rows)
    if min(start, default=0) < 0:
        return None
    columns = [tuple(coeffs[var] for coeffs, _ in rows) for var in range(system.num_vars)]
    fixing: list[list[int]] = [[] for _ in columns]
    for j, (coeffs, _) in enumerate(system.equalities):
        if any(coeffs):
            fixing[max(var for var, a in enumerate(coeffs) if a)].append(j)
    dead: set[tuple[int, tuple[int, ...]]] = set()
    values: list[int] = []

    def extend(var: int, residual: tuple[int, ...]) -> bool:
        if var == system.num_vars:
            return not any(residual[:n_eq])
        if (var, residual) in dead:
            return False
        column = columns[var]
        bound = min((r // a for a, r in zip(column, residual) if a), default=0)
        choices = range(bound + 1)
        for j in fixing[var]:
            k, rest = divmod(residual[j], column[j])
            choices = range(k, k + 1) if not rest and k in choices else range(0)
        for k in choices:
            values.append(k)
            if extend(var + 1, tuple(r - k * a for a, r in zip(column, residual))):
                return True
            values.pop()
        dead.add((var, residual))
        return False

    return dict(enumerate(values)) if extend(0, start) else None
