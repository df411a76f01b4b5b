"""Solver for bounded color count plus bounded coalition size.

A coalition type is a multiset of (color, preference type) pairs.  The
search walks over which coalition types occur in the outcome and whether
each occurs once or at least twice; types that are pairwise deviation-free
(and tolerate self-copies / going alone) form a stability-feasible branch,
and an integer feasibility system decides whether the agent counts can be
partitioned accordingly.  A branch where every occurring type is marked
with its exact multiplicity class is exactly the data needed: stability of
any outcome respecting the branch depends on nothing else.

The branches are produced lazily, in the order of the support walk, and
only those that can still be feasible reach the integer system: a support
or marking that over-commits a pair count or a coalition budget is dropped
as soon as it does, and the first feasible branch is the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .core import Instance, Palette, PreferenceOrder, reduce_counts, singleton_palette
from .errors import SearchSpaceTooLarge, SolverDivergence, search_cap
from .ilp import ILPSystem, feasible
from .stability import IS, Outcome, check_outcome, deal_outcome

TWO_PLUS = 2  # multiplicity class "at least two"

TYPES_CAP = 50_000
SUPPORT_CAP = 2_000_000


@dataclass(frozen=True)
class CoalitionType:
    """Multiset of (color, type) pairs; the anonymous shape of a coalition."""

    pair_counts: tuple[tuple[tuple[int, int], int], ...]

    @property
    def size(self) -> int:
        return sum(k for _, k in self.pair_counts)

    def count(self, pair: tuple[int, int]) -> int:
        for p, k in self.pair_counts:
            if p == pair:
                return k
        return 0

    def color_counts(self, gamma: int) -> tuple[int, ...]:
        counts = [0] * gamma
        for (c, _), k in self.pair_counts:
            counts[c] += k
        return tuple(counts)

    def palette(self, gamma: int) -> Palette:
        return reduce_counts(self.color_counts(gamma))


def enumerate_coalition_types(instance: Instance) -> list[CoalitionType]:
    """All coalition types the instance can realize, sizes 1..sigma.

    Per-pair multiplicities are capped by the number of agents of that
    pair, since realized coalitions can only use existing agents.
    """
    limit = search_cap(TYPES_CAP)
    pairs = instance.present_pairs
    sigma = instance.budgets.sigma
    out: list[CoalitionType] = []

    def rec(idx: int, total: int, acc: list[tuple[tuple[int, int], int]]):
        if total >= 1:
            out.append(CoalitionType(tuple(acc)))
            if len(out) > limit:
                raise SearchSpaceTooLarge(
                    f"more than {limit} coalition types (cap via HDG_SEARCH_CAP)"
                )
        for i in range(idx, len(pairs)):
            pair = pairs[i]
            top = min(instance.n_ct[pair], sigma - total)
            for k in range(1, top + 1):
                acc.append((pair, k))
                rec(i + 1, total + k, acc)
                acc.pop()

    rec(0, 0, [])
    out.sort(key=lambda t: (t.size, t.pair_counts))
    return out


def _deviation_free(
    prefs: Mapping[int, PreferenceOrder],
    gamma: int,
    source: CoalitionType,
    target: CoalitionType | None,
    target_counts: tuple[int, ...] | None,
    notion: str,
) -> bool:
    """No member of `source` wants to move to `target` (None = go alone)."""
    src_palette = source.palette(gamma)
    for (c, t), _ in source.pair_counts:
        if target is None:
            lure = singleton_palette(c, gamma)
        else:
            grown = list(target_counts)
            grown[c] += 1
            lure = reduce_counts(grown)
        if prefs[t].tier_of(lure) >= prefs[t].tier_of(src_palette):
            continue
        if notion == IS and target is not None:
            base = reduce_counts(target_counts)
            if any(
                prefs[t2].tier_of(base) < prefs[t2].tier_of(lure)
                for (_, t2), _ in target.pair_counts
            ):
                continue  # some member of the target vetoes the join
        return False
    return True


def _branches(instance: Instance, notion: str) -> Iterator[tuple[list, tuple, tuple]]:
    """Every (support, marking) branch that may be feasible, in walk order,
    as (support, marking, residual).

    The support is a list of (type, column) pairs, the marking one
    multiplicity class per support entry, and the residual what the
    branch's committed copies leave of each column coordinate.

    Supports grow by types in enumeration order, each new type compatible
    with every chosen one, and each support is expanded into its markings
    before it is extended.  A type's column is its use of each present
    (color, type) pair, then its share of the two coalition budgets (1, and
    1 if non-trivial), so a residual `n_ct + (rho1, rho2)` going negative
    means the branch is over-committed; since every chosen type occurs at
    least once, such a support and all its extensions are skipped, and so
    is a marking once it over-commits.  A complete marking is also dropped
    when it leaves agents of a pair to place but no at-least-two type uses
    that pair.  What is yielded is exactly the set of stable branches whose
    feasibility system has no over-committed row and no empty row with a
    positive right-hand side.
    """
    prefs, gamma, b = instance.prefs, instance.gamma, instance.budgets
    pairs = instance.present_pairs
    # Types whose members would rather go alone can never be realized.
    types = [
        t
        for t in enumerate_coalition_types(instance)
        if _deviation_free(prefs, gamma, t, None, None, notion)
    ]
    counts = [t.color_counts(gamma) for t in types]
    self_ok = [
        _deviation_free(prefs, gamma, t, t, counts[i], notion)
        for i, t in enumerate(types)
    ]
    columns = [
        tuple(t.count(p) for p in pairs) + (1, int(t.size >= 2)) for t in types
    ]
    covers = [sum(1 << j for j, p in enumerate(pairs) if t.count(p)) for t in types]
    compat: dict[tuple[int, int], bool] = {}

    def compatible(i: int, j: int) -> bool:
        key = (i, j)
        val = compat.get(key)
        if val is None:
            val = _deviation_free(
                prefs, gamma, types[i], types[j], counts[j], notion
            ) and _deviation_free(prefs, gamma, types[j], types[i], counts[i], notion)
            compat[key] = val
        return val

    budget = search_cap(SUPPORT_CAP)
    examined = 0
    chosen: list[int] = []
    marking: list[int] = []

    def mark(k: int, residual: tuple[int, ...], covered: int) -> Iterator[tuple]:
        if k == len(chosen):
            if all(covered >> j & 1 for j in range(len(pairs)) if residual[j]):
                yield [(types[i], columns[i]) for i in chosen], tuple(marking), residual
            return
        i = chosen[k]
        marking.append(1)
        yield from mark(k + 1, residual, covered)
        marking.pop()
        if self_ok[i]:
            left = tuple(r - u for r, u in zip(residual, columns[i]))
            if min(left) >= 0:
                marking.append(TWO_PLUS)
                yield from mark(k + 1, left, covered | covers[i])
                marking.pop()

    def walk(start: int, residual: tuple[int, ...]) -> Iterator[tuple]:
        nonlocal examined
        examined += 1
        if examined > budget:
            raise SearchSpaceTooLarge(
                f"more than {budget} supports (cap via HDG_SEARCH_CAP)"
            )
        if chosen:
            yield from mark(0, residual, 0)
        for i in range(start, len(types)):
            column = columns[i]
            if any(u > r for u, r in zip(column, residual)):
                continue
            if not all(compatible(j, i) for j in chosen):
                continue
            chosen.append(i)
            yield from walk(i + 1, tuple(r - u for r, u in zip(residual, column)))
            chosen.pop()

    start = tuple(instance.n_ct[p] for p in pairs) + (b.rho1, b.rho2)
    yield from walk(0, start)


def solve_colors_size(instance: Instance, notion: str) -> Outcome | None:
    """Some stable budget-respecting outcome, or None if none exists.

    Branches with realized-type supports that admit a deviation are pruned
    during the support walk, which is exactly the branch stability test;
    the surviving branches that are not over-committed go to integer
    feasibility in walk order, and the first feasible one is the witness.
    Its variables count the copies of each at-least-two type beyond the two
    it commits; equality rows make the per-(color, type) usage hit the
    instance exactly and two inequality rows keep the coalition budgets.
    """
    width = len(instance.present_pairs)
    for support, marking, residual in _branches(instance, notion):
        twos = [k for k, m in enumerate(marking) if m == TWO_PLUS]
        rows = tuple(
            (tuple(support[k][1][j] for k in twos), rhs) for j, rhs in enumerate(residual)
        )
        extra = feasible(ILPSystem(len(twos), rows[:width], rows[width:]))
        if extra is None:
            continue
        times = list(marking)
        for v, k in enumerate(twos):
            times[k] += extra[v]
        blocks = [ctype.pair_counts for (ctype, _), m in zip(support, times) for _ in range(m)]
        outcome = deal_outcome(instance, blocks)
        verdict = check_outcome(instance, outcome, notion)
        if not verdict.stable:
            raise SolverDivergence(f"colors-size witness failed: {verdict}")
        return outcome
    return None
