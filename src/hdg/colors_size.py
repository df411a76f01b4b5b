"""Solver for bounded color count plus bounded coalition size.

A coalition type is a multiset of (color, preference type) pairs.  The
search walks over which coalition types occur in the outcome, its support.
Stability depends on the multiplicities only through self-compatibility: a
type whose members do not want to join a copy of their own coalition is
stable however often it occurs, and any other type may occur only once.  So
a support of pairwise deviation-free types (that also tolerate going alone)
decides stability by itself, and one integer feasibility system per support,
over the extra copies of its self-compatible types, decides whether the
agent counts can be partitioned accordingly.

The supports are produced lazily, in walk order, and only those that can
still be feasible reach the integer system: a support that over-commits a
pair count or a coalition budget is dropped as soon as it does, and the
first feasible support is the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .core import Instance, Palette, PreferenceOrder, reduce_counts, singleton_palette
from .errors import SearchSpaceTooLarge, SolverDivergence, search_cap
from .ilp import ILPSystem, feasible
from .stability import IS, Outcome, check_outcome, deal_outcome

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


def _branches(instance: Instance, notion: str) -> Iterator[tuple[list, list, tuple]]:
    """Every support that may be feasible, once each and in walk order, as
    (support, reusable, residual): the support's types, its self-compatible
    types (the only ones that may occur again) with their columns, and what
    one copy of every support type leaves of each column coordinate.

    Supports grow by types in enumeration order, each new type compatible
    with every chosen one.  A type's column is its use of each present
    (color, type) pair, then its share of the two coalition budgets (1, and
    1 if non-trivial), so a residual `n_ct + (rho1, rho2)` going negative
    means the support is over-committed, and it and all its extensions are
    skipped.  A support is also not yielded when it leaves agents of a pair
    to place but none of its self-compatible types uses that pair.  What is
    yielded is exactly the set of stable supports whose feasibility system
    has no over-committed row and no empty row with a positive right-hand
    side.
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
    # The pairs a type can take more agents of, by occurring again.
    covers = [
        sum(1 << j for j, p in enumerate(pairs) if ok and t.count(p))
        for t, ok in zip(types, self_ok)
    ]
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

    def walk(start: int, residual: tuple[int, ...], covered: int) -> Iterator[tuple]:
        nonlocal examined
        examined += 1
        if examined > budget:
            raise SearchSpaceTooLarge(
                f"more than {budget} supports (cap via HDG_SEARCH_CAP)"
            )
        if chosen and all(covered >> j & 1 for j in range(len(pairs)) if residual[j]):
            reusable = [(types[i], columns[i]) for i in chosen if self_ok[i]]
            yield [types[i] for i in chosen], reusable, residual
        for i in range(start, len(types)):
            column = columns[i]
            if any(u > r for u, r in zip(column, residual)):
                continue
            if not all(compatible(j, i) for j in chosen):
                continue
            chosen.append(i)
            left = tuple(r - u for r, u in zip(residual, column))
            yield from walk(i + 1, left, covered | covers[i])
            chosen.pop()

    start = tuple(instance.n_ct[p] for p in pairs) + (b.rho1, b.rho2)
    yield from walk(0, start, 0)


def solve_colors_size(instance: Instance, notion: str) -> Outcome | None:
    """Some stable budget-respecting outcome, or None if none exists.

    Supports of realized types that admit a deviation are pruned during the
    support walk, which is exactly the stability test: a self-compatible
    type is stable however often it occurs, and any other type occurs once.
    The surviving supports go to integer feasibility in walk order, and the
    first feasible one is the witness.  Its variables count the copies of
    each self-compatible type beyond the one the support commits; equality
    rows make the per-(color, type) usage hit the instance exactly and two
    inequality rows keep the coalition budgets.
    """
    width = len(instance.present_pairs)
    for support, reusable, residual in _branches(instance, notion):
        # `feasible` branches over the variables in order.  Non-trivial
        # types are bounded by the small rho2 row, while a singleton type
        # ranges over a whole leftover count; in front, every singleton
        # count would be multiplied into the search over the non-trivial
        # types, behind them the singletons only close it.
        reusable.sort(key=lambda entry: entry[0].size < 2)
        rows = tuple((tuple(col[j] for _, col in reusable), rhs) for j, rhs in enumerate(residual))
        extra = feasible(ILPSystem(len(reusable), rows[:width], rows[width:]))
        if extra is None:
            continue
        times = {ctype: 1 + extra[v] for v, (ctype, _) in enumerate(reusable)}
        blocks = [ctype.pair_counts for ctype in support for _ in range(times.get(ctype, 1))]
        outcome = deal_outcome(instance, blocks)
        verdict = check_outcome(instance, outcome, notion)
        if not verdict.stable:
            raise SolverDivergence(f"colors-size witness failed: {verdict}")
        return outcome
    return None
