"""Exhaustive reference solver, over agent classes.

Agents of one (color, type) class are interchangeable, so an outcome is
fixed, up to swapping them, by the class counts of its coalitions.  The
search walks multisets of at most rho2 count vectors of size 2..sigma (the
non-trivial coalitions; every other agent sits alone, and rho1 is checked
on each candidate) and decides each at class level with the block form of
`stability.DeviationRule`.  A vector is used only when none of its classes
would rather go alone, and joins the chosen ones only when compatible with
each, itself too when it repeats: a deviation between chosen coalitions
survives whatever else a candidate holds.  Each candidate is then settled
by its agents alone, and only the first stable one is dealt out.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

from .core import Instance, compositions_upto
from .errors import SearchSpaceTooLarge, SolverDivergence, search_cap
from .stability import Block, DeviationRule, Outcome, check_outcome, deal_outcome

# perfbench/tracing.py still hooks these names here; brute force no longer calls them.
from .stability import find_is_deviation, find_ns_deviation  # noqa: F401

BRUTE_CAP = 200_000  # candidate outcomes decided


def _usable_vectors(instance: Instance, pairs, rule: DeviationRule) -> Iterator[tuple]:
    """(vector, block) for the count vectors over the (color, type) `pairs`,
    of size 2..sigma, that no member class would leave to go alone."""
    pools = [len(instance.agents_of_ct[pair]) for pair in pairs]
    for v in compositions_upto(pools, instance.budgets.sigma, 2):
        block = Block([(p, x) for p, x in zip(pairs, v) if x], instance.gamma)
        if rule.free(block):
            yield v, block


def settled(rule: DeviationRule, chosen: list[Block], alone: list[Block]) -> bool:
    """Whether a candidate with pairwise compatible non-trivial coalitions
    `chosen` and lone agents of the classes `alone` is stable.  Two lone
    agents of one class see one palette alone and together."""
    free = rule.free
    return all(
        all(free(single, block) and free(block, single) for block in chosen)
        and all(free(single, other) for other in alone if other is not single)
        for single in alone
    )


def enumerate_stable(instance: Instance, notion: str) -> Iterator[Outcome]:
    """Every stable budget-respecting outcome, one per multiset of class
    counts; SearchSpaceTooLarge once more than BRUTE_CAP candidates are decided."""
    b = instance.budgets
    limit = search_cap(BRUTE_CAP)
    rule = DeviationRule(instance, notion)
    pairs = sorted(instance.agents_of_ct)
    singles = [Block([(pair, 1)], instance.gamma) for pair in pairs]
    source = _usable_vectors(instance, pairs, rule)  # drawn only as far as the walk needs
    drawn: list[tuple[tuple[int, ...], Block]] = []
    tried = 0

    def vector(i: int) -> tuple[int, ...] | None:
        while len(drawn) <= i and (entry := next(source, None)) is not None:
            drawn.append(entry)
        return drawn[i][0] if i < len(drawn) else None

    @cache
    def compatible(i: int, j: int) -> bool:
        src, dst = drawn[i][1], drawn[j][1]
        return rule.free(src, dst) and (i == j or rule.free(dst, src))

    def rec(start: int, chosen: list[int], residual: list[int]) -> Iterator[Outcome]:
        nonlocal tried
        k = len(chosen)
        if k + sum(residual) <= b.rho1:
            tried += 1
            if tried > limit:
                raise SearchSpaceTooLarge(f"more than {limit} outcomes (cap via HDG_SEARCH_CAP)")
            alone = [single for single, r in zip(singles, residual) if r]
            blocks = [drawn[i][1] for i in chosen]
            if settled(rule, blocks, alone):
                blocks += [single for single, r in zip(singles, residual) for _ in range(r)]
                yield deal_outcome(instance, [block.pair_counts for block in blocks])
        i = start
        while k < b.rho2 and (v := vector(i)) is not None:
            if all(x <= r for x, r in zip(v, residual)) and all(compatible(j, i) for j in chosen):
                chosen.append(i)
                yield from rec(i, chosen, [r - x for r, x in zip(residual, v)])
                chosen.pop()
            i += 1

    yield from rec(0, [], [len(instance.agents_of_ct[pair]) for pair in pairs])


def solve_brute(instance: Instance, notion: str) -> Outcome | None:
    """The first outcome `enumerate_stable` yields, re-verified, else None."""
    if instance.n > instance.budgets.rho1 * instance.budgets.sigma:
        return None  # no outcome meets the budgets
    for outcome in enumerate_stable(instance, notion):
        if not check_outcome(instance, outcome, notion).stable:
            raise SolverDivergence(f"brute force witness {outcome} fails its check")
        return outcome
    return None


# perfbench/run.py still looks up this name; it is the same solver.
solve_brute_positions = solve_brute
