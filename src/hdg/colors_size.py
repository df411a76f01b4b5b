"""Solver for bounded color count plus bounded coalition size.

A coalition type is one `stability.Block`.  The search walks over which
non-trivial types (2..sigma members) occur in the outcome, its support;
`supports` is that walk, and brute force closes its supports too.  A type
whose members do not want to join a copy of their own coalition may occur
any number of times, any other type once, so a support of pairwise
compatible types decides the stability of its non-trivial coalitions.  The
agents it leaves sit alone: a lone class is a class with agents left whose
one-agent coalition is compatible with every type of the support.  Two lone
agents of one color never deviate to each other (their palette is the same
alone and together), so only lone classes of different colors can exclude
each other, and one integer feasibility system per maximal set of mutually
compatible lone classes decides the support.  Every verdict is the block
form of the instance's `stability.deviation_rule`, shared by every solve.
"""

from __future__ import annotations

from operator import sub
from typing import Iterator

from .core import Instance
from .errors import SearchSpaceTooLarge, SolverDivergence, search_cap
from .ilp import ILPSystem, feasible
from .stability import Block, Outcome, check_outcome, deal_outcome, deviation_rule, shapes

TYPES_CAP = 50_000
SUPPORT_CAP = 2_000_000

Shape = tuple[tuple[int, ...], Block, int]  # count vector, Block, size


def enumerate_coalition_types(instance: Instance) -> list[tuple[tuple[int, ...], Block]]:
    """Every coalition type the instance can realize, sizes 1..sigma, as
    `stability.shapes` lists them: the one-agent types, then `Shapes.shape`
    order."""
    limit, table = search_cap(TYPES_CAP), shapes(instance)
    if table.draw(limit + 1) > limit:
        raise SearchSpaceTooLarge(f"more than {limit} coalition types (cap via HDG_SEARCH_CAP)")
    return table.listed()


def supports(instance: Instance, notion: str) -> Iterator[tuple[list[Shape], tuple[int, ...]]]:
    """Every support once, in walk order, with what one copy of each of its
    types leaves of each present pair.  A support is a set of at most
    min(rho1, rho2) distinct non-trivial types, taken in `Shapes.shape`
    order (the larger first), that fit the instance and that no member
    would leave, to go alone or for another type of the set.  The empty support comes first.
    Extensions that would leave more than rho1 coalitions even with types
    of sigma members are not walked.  The yielded list is the walk's own.
    SearchSpaceTooLarge once it reads more than TYPES_CAP types.
    """
    b = instance.budgets
    free = deviation_rule(instance, notion).free
    table = shapes(instance)
    drawn, depth, limit = table.drawn, min(b.rho1, b.rho2), search_cap(TYPES_CAP)
    chosen: list[Shape] = []

    def walk(options: list[Shape], seen: int, residual: tuple[int, ...], left: int):
        # `options` holds the types of the first `seen` drawn that may join
        # `chosen`; a type that may not never joins an extension either.
        yield chosen, residual
        k = len(chosen)
        if k == depth:
            return
        # A type of `size` members leaves `left - size` agents to place with
        # at most depth - k - 1 more types of sigma members.
        most = b.rho1 - k - 1 + (depth - k - 1) * (b.sigma - 1)
        pos = 0
        while True:
            # Types drawn since; only when no option is left is one more drawn.
            while seen < len(drawn) or (pos == len(options) and table.shape(seen)):
                if seen == limit:
                    raise SearchSpaceTooLarge(
                        f"more than {limit} coalition types (cap via HDG_SEARCH_CAP)"
                    )
                vec, block, size = shape = drawn[seen]
                seen += 1
                if (
                    left - size <= most
                    and min(map(sub, residual, vec)) >= 0
                    and free(block)
                    and all(free(block, other) and free(other, block) for _, other, _ in chosen)
                ):
                    options.append(shape)
            if pos == len(options):
                return
            vec, block, size = shape = options[pos]
            pos += 1
            rest, rest_left = tuple(map(sub, residual, vec)), left - size
            after = [
                (vec2, other, size2) for vec2, other, size2 in options[pos:]
                if rest_left - size2 <= most - b.sigma
                and min(map(sub, rest, vec2)) >= 0
                and free(block, other) and free(other, block)
            ] if k + 1 < depth else []
            chosen.append(shape)
            yield from walk(after, seen, rest, rest_left)
            chosen.pop()

    if instance.n - depth * (b.sigma - 1) <= b.rho1:
        yield from walk([], 0, table.counts, instance.n)


def _lone_sets(lone: list[int], fits) -> Iterator[list[int]]:
    """The maximal sets of pairwise `fits` classes of `lone`, each once
    (Bron-Kerbosch)."""

    def grow(group: list[int], options: list[int], passed: list[int]) -> Iterator[list[int]]:
        if not options and not passed:
            yield group
        for k, i in enumerate(options):
            yield from grow(
                group + [i],
                [j for j in options[k + 1 :] if fits(i, j)],
                [j for j in passed + options[:k] if fits(i, j)],
            )

    yield from grow([], lone, [])


def solve_colors_size(instance: Instance, notion: str) -> Outcome | None:
    """Some stable budget-respecting outcome, or None if none exists: the
    first feasible system, in walk order.  Its variables count the extra
    copies of each self-compatible type of the support, then the lone agents
    of each class of the set, which come last so that each is fixed by its
    own equality row; two inequality rows keep the coalition budgets.
    """
    b, pairs = instance.budgets, instance.present_pairs
    free = deviation_rule(instance, notion).free
    singles = shapes(instance).singles
    budget = search_cap(SUPPORT_CAP)
    tolerant: dict[Block, int] = {}  # per type, the classes whose lone agents it keeps, as bits

    def fits(single: Block, other: Block) -> bool:
        return free(single, other) and free(other, single)

    for examined, (support, residual) in enumerate(supports(instance, notion), 1):
        if examined > budget:
            raise SearchSpaceTooLarge(f"more than {budget} supports (cap via HDG_SEARCH_CAP)")
        kept = -1
        for _, block, _ in support:
            if block not in tolerant:
                tolerant[block] = sum(1 << j for j, single in enumerate(singles) if fits(single, block))
            kept &= tolerant[block]
        reusable = [(vec, block) for vec, block, _ in support if free(block, block)]
        # A class with more agents left than the extra copies can take must
        # have lone agents.
        k = len(support)
        reach = [(min(b.rho1, b.rho2) - k) * max(col) for col in zip(*(v for v, _ in reusable))]
        needed = sum(1 << j for j, r in enumerate(residual) if r > (reach[j] if reach else 0))
        if needed & ~kept:
            continue
        lone = [j for j, r in enumerate(residual) if r and kept >> j & 1]
        for group in _lone_sets(lone, lambda i, j: fits(singles[i], singles[j])):
            if needed & ~sum(1 << g for g in group):
                continue
            width = len(reusable) + len(group)
            eqs = tuple(
                (tuple(vec[j] for vec, _ in reusable) + tuple(int(j == g) for g in group), r)
                for j, r in enumerate(residual)
            )
            les = (((1,) * width, b.rho1 - k), ((1,) * len(reusable) + (0,) * len(group), b.rho2 - k))
            extra = feasible(ILPSystem(width, eqs, les))
            if extra is None:
                continue
            blocks = [block for _, block, _ in support]
            blocks += [block for v, (_, block) in enumerate(reusable) for _ in range(extra[v])]
            alone = [(pairs[g], extra[len(reusable) + v]) for v, g in enumerate(group)]
            outcome = deal_outcome(instance, [block.pair_counts for block in blocks], alone)
            verdict = check_outcome(instance, outcome, notion)
            if not verdict.stable:
                raise SolverDivergence(f"colors-size witness failed: {verdict}")
            return outcome
    return None
