"""Solver for bounded color count plus bounded coalition size.

A coalition type is a multiset of (color, preference type) pairs.  The
search walks over which coalition types occur in the outcome, its support.
Stability depends on the multiplicities only through self-compatibility: a
type whose members do not want to join a copy of their own coalition is
stable however often it occurs, and any other type may occur only once.  So
a support of pairwise deviation-free types (that also tolerate going alone)
decides stability by itself, and one integer feasibility system per support,
over the extra copies of its self-compatible types, decides whether the
agent counts can be partitioned accordingly.  Going alone, self-compatibility
and pairwise compatibility are all the block form of
`stability.DeviationRule`, read from one tier table per solve.

The supports are produced lazily, in walk order, and only those that can
still be feasible reach the integer system: a support that over-commits a
pair count or a coalition budget is dropped as soon as it does, and the
first feasible support is the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterator

from .core import Instance
from .errors import SearchSpaceTooLarge, SolverDivergence, search_cap
from .ilp import ILPSystem, feasible
from .stability import Block, DeviationRule, Outcome, check_outcome, deal_outcome

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
    b, pairs = instance.budgets, instance.present_pairs
    rule = DeviationRule(instance, notion)
    all_types = enumerate_coalition_types(instance)
    # Types whose members would rather go alone can never be realized.
    kept = [(t, blk) for t in all_types if rule.free(blk := Block(t.pair_counts, instance.gamma))]
    types, blocks = [t for t, _ in kept], [blk for _, blk in kept]
    self_ok = [rule.free(block, block) for block in blocks]
    columns = [
        tuple(t.count(p) for p in pairs) + (1, int(t.size >= 2)) for t in types
    ]
    # The pairs a type can take more agents of, by occurring again.
    covers = [
        sum(1 << j for j, p in enumerate(pairs) if ok and t.count(p))
        for t, ok in zip(types, self_ok)
    ]

    @cache
    def compatible(i: int, j: int) -> bool:
        return rule.free(blocks[i], blocks[j]) and rule.free(blocks[j], blocks[i])

    # A residual is one int with a field per column coordinate, each with a
    # guard bit above its count: subtracting a column leaves every guard
    # bit set exactly when the column fits, and the difference is the next
    # residual.  `placing` holds a bit per pair with agents left.
    start = tuple(instance.n_ct[p] for p in pairs) + (b.rho1, b.rho2)
    width = max(start).bit_length() + 1
    count = (1 << (width - 1)) - 1
    shifts = [f * width for f in range(len(start))]

    def pack(vec) -> int:
        return sum(u << shift for u, shift in zip(vec, shifts))

    guard = pack([count + 1] * len(start))
    packed = [pack(column) for column in columns]
    # The pairs each type takes agents of, as (pair bit, field shift).
    takes = [
        [(1 << j, shifts[j]) for j in range(len(pairs)) if column[j]] for column in columns
    ]
    budget = search_cap(SUPPORT_CAP)
    examined = 0
    chosen: list[int] = []

    def walk(start: int, residual: int, placing: int, covered: int) -> Iterator[tuple]:
        nonlocal examined
        examined += 1
        if examined > budget:
            raise SearchSpaceTooLarge(
                f"more than {budget} supports (cap via HDG_SEARCH_CAP)"
            )
        if chosen and not placing & ~covered:
            reusable = [(types[i], columns[i]) for i in chosen if self_ok[i]]
            left = tuple((residual >> shift) & count for shift in shifts)
            yield [types[i] for i in chosen], reusable, left
        for i in range(start, len(types)):
            rest = residual - packed[i]
            if rest & guard != guard or not all(compatible(j, i) for j in chosen):
                continue
            still = placing
            for bit, shift in takes[i]:
                if not (rest >> shift) & count:
                    still &= ~bit
            chosen.append(i)
            yield from walk(i + 1, rest, still, covered | covers[i])
            chosen.pop()

    yield from walk(0, guard + pack(start), (1 << len(pairs)) - 1, 0)


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
