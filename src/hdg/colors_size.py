"""Solver for bounded color count plus bounded coalition size.

A coalition type is a multiset of (color, preference type) pairs, one
`stability.Block` from `stability.shapes`.  The search walks over which
coalition types occur in the outcome, its support.  Stability depends on
the multiplicities only through self-compatibility: a type whose members
do not want to join a copy of their own coalition is stable however often
it occurs, and any other type may occur only once.  So
a support of pairwise deviation-free types (that also tolerate going alone)
decides stability by itself, and one integer feasibility system per support,
over the extra copies of its self-compatible types, decides whether the
agent counts can be partitioned accordingly.  Going alone, self-compatibility
and pairwise compatibility are all the block form of the instance's
`stability.deviation_rule`, whose verdicts every solve of the instance
under the notion shares, as it shares the `Block`s of `stability.shapes`.

The supports are produced lazily, in walk order, and only those that can
still be feasible reach the integer system: a support that over-commits a
pair count or a coalition budget is dropped as soon as it does, and the
first feasible support is the witness.
"""

from __future__ import annotations

from typing import Iterator

from .core import Instance, PackedCounts
from .errors import SearchSpaceTooLarge, SolverDivergence, search_cap
from .ilp import ILPSystem, feasible
from .stability import Block, Outcome, check_outcome, deal_outcome, deviation_rule, shapes

TYPES_CAP = 50_000
SUPPORT_CAP = 2_000_000


def enumerate_coalition_types(instance: Instance) -> list[tuple[tuple[int, ...], Block]]:
    """Every coalition type the instance can realize, sizes 1..sigma, from
    `stability.shapes`, ordered by size and then entries."""
    limit = search_cap(TYPES_CAP)
    table = shapes(instance)
    if table.draw(limit + 1) > limit:
        raise SearchSpaceTooLarge(f"more than {limit} coalition types (cap via HDG_SEARCH_CAP)")
    out = [(vec, table.block(i)) for i, vec in enumerate(table.vectors)]
    out.sort(key=lambda shape: (sum(shape[0]), shape[1].pair_counts))
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
    rule = deviation_rule(instance, notion)
    free = rule.free
    # Types whose members would rather go alone can never be realized.
    kept = [(vec, block) for vec, block in enumerate_coalition_types(instance) if free(block)]
    blocks = [block for _, block in kept]
    self_ok = [free(block, block) for block in blocks]
    columns = [vec + (1, int(sum(vec) >= 2)) for vec, _ in kept]
    # The pairs a type can take more agents of, by occurring again.
    covers = [
        sum(1 << j for j, k in enumerate(vec) if k) if ok else 0
        for (vec, _), ok in zip(kept, self_ok)
    ]

    # Residuals are `PackedCounts` over the column coordinates, so a column
    # fits when its difference keeps every guard bit.  `placing` holds a
    # bit per pair with agents left.
    packing = PackedCounts(tuple(instance.n_ct[p] for p in pairs) + (b.rho1, b.rho2))
    guard, mask = packing.guard, packing.mask
    packed = [packing.pack(column) for column in columns]
    # The pairs each type takes agents of, as (pair bit, field shift).
    takes = [
        [(1 << j, packing.shifts[j]) for j in range(len(pairs)) if column[j]]
        for column in columns
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
            reusable = [(blocks[i], columns[i]) for i in chosen if self_ok[i]]
            yield [blocks[i] for i in chosen], reusable, packing.unpack(residual)
        for i in range(start, len(blocks)):
            rest = residual - packed[i]
            if rest & guard != guard or not all(
                free(blocks[j], blocks[i]) and free(blocks[i], blocks[j]) for j in chosen
            ):
                continue
            still = placing
            for bit, shift in takes[i]:
                if not (rest >> shift) & mask:
                    still &= ~bit
            chosen.append(i)
            yield from walk(i + 1, rest, still, covered | covers[i])
            chosen.pop()

    yield from walk(0, packing.full, (1 << len(pairs)) - 1, 0)


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
        # types, behind them the singletons only close it.  A column ends
        # in 1 for a non-trivial type.
        reusable.sort(key=lambda entry: not entry[1][-1])
        rows = tuple((tuple(col[j] for _, col in reusable), rhs) for j, rhs in enumerate(residual))
        extra = feasible(ILPSystem(len(reusable), rows[:width], rows[width:]))
        if extra is None:
            continue
        times = {block: 1 + extra[v] for v, (block, _) in enumerate(reusable)}
        blocks = [block.pair_counts for block in support for _ in range(times.get(block, 1))]
        outcome = deal_outcome(instance, blocks)
        verdict = check_outcome(instance, outcome, notion)
        if not verdict.stable:
            raise SolverDivergence(f"colors-size witness failed: {verdict}")
        return outcome
    return None
