"""Exhaustive reference solver, over agent classes.

Agents of one (color, type) class are interchangeable, so an outcome is
fixed, up to swapping them, by the class counts of its coalitions.  Brute
force walks colors-size's supports (`colors_size.supports`) and closes each
by trying every number of extra copies of its self-compatible shapes, up to
rho2 shapes in all, with every other agent alone and rho1 checked.  Each
candidate is settled by its lone agents, since the walk has decided its
shapes, and only the first stable one is dealt out.
"""

from __future__ import annotations

from operator import sub
from typing import Iterator

from .colors_size import supports
from .core import Instance
from .errors import SearchSpaceTooLarge, SolverDivergence, search_cap
from .stability import Block, DeviationRule, Outcome, check_outcome, deal_outcome, deviation_rule, shapes

# perfbench/tracing.py still hooks these names here; brute force no longer calls them.
from .stability import find_is_deviation, find_ns_deviation  # noqa: F401

BRUTE_CAP = 200_000  # candidate outcomes decided


def settled(rule: DeviationRule, chosen: list[Block], alone: list[Block]) -> bool:
    """Whether pairwise compatible coalitions `chosen` and lone agents of
    the classes `alone` are stable; two lone agents of one class are as
    well off apart as together."""
    free = rule.free
    return all(
        all(free(single, block) and free(block, single) for block in chosen)
        and all(free(single, other) for other in alone if other is not single)
        for single in alone
    )


def _copies(reusable: list, residual: tuple[int, ...], room: int) -> Iterator[tuple[list, tuple]]:
    """Every way to add at most `room` extra copies of the `reusable`
    (count vector, `Block`) shapes that fits `residual`, as (the added
    blocks, what they leave), each once."""
    if not reusable:
        yield [], residual
        return
    (vec, block), rest = reusable[0], reusable[1:]
    yield from _copies(rest, residual, room)
    after = tuple(map(sub, residual, vec))
    if room and min(after) >= 0:
        for more, left in _copies(reusable, after, room - 1):
            yield [block] + more, left


def enumerate_stable(instance: Instance, notion: str) -> Iterator[Outcome]:
    """Every stable budget-respecting outcome, one per multiset of class
    counts; SearchSpaceTooLarge once more than BRUTE_CAP candidates are decided."""
    b, limit, tried = instance.budgets, search_cap(BRUTE_CAP), 0
    rule = deviation_rule(instance, notion)
    pairs, singles = instance.present_pairs, shapes(instance).singles
    for support, residual in supports(instance, notion):
        blocks = [block for _, block, _ in support]
        reusable = [(vec, block) for vec, block, _ in support if rule.free(block, block)]
        for added, left in _copies(reusable, residual, min(b.rho1, b.rho2) - len(blocks)):
            if len(blocks) + len(added) + sum(left) > b.rho1:
                continue
            tried += 1
            if tried > limit:
                raise SearchSpaceTooLarge(f"more than {limit} outcomes (cap via HDG_SEARCH_CAP)")
            chosen = blocks + added
            if settled(rule, chosen, [single for single, r in zip(singles, left) if r]):
                yield deal_outcome(instance, [block.pair_counts for block in chosen], zip(pairs, left))


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
