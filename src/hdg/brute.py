"""Exhaustive reference solver, over agent classes.

Agents of one (color, type) class are interchangeable, so an outcome is
fixed, up to swapping them, by the class counts of its coalitions.  The
search walks multisets of at most rho2 count vectors of size 2..sigma (the
non-trivial coalitions; every other agent sits alone, and rho1 is checked
on each candidate), deals each candidate out with `deal_outcome` and
decides it with the deviation search of `stability`.  Two prunes keep it
exact.  A vector is never used when one of its classes strictly prefers
being alone to its palette, since going alone is always allowed.  A
deviation from one chosen coalition into another survives below the
candidate, where the chosen coalitions stay as they are, so the whole
subtree is skipped.
"""

from __future__ import annotations

from typing import Iterator

from .core import Instance, compositions_upto, reduce_counts, singleton_palette
from .errors import SearchSpaceTooLarge, SolverDivergence, search_cap
from .stability import NS, Outcome, check_outcome, deal_outcome
from .stability import find_is_deviation, find_ns_deviation

BRUTE_CAP = 200_000  # outcomes tried


def _usable_vectors(instance: Instance, pairs) -> Iterator[tuple[int, ...]]:
    """Count vectors over the (color, type) `pairs`, of size 2..sigma, that
    no member class would leave to go alone."""
    prefs = instance.prefs
    alone = [prefs[t].tier_of(singleton_palette(c, instance.gamma)) for c, t in pairs]
    pools = [len(instance.agents_of_ct[pair]) for pair in pairs]
    for v in compositions_upto(pools, instance.budgets.sigma, 2):
        counts = [0] * instance.gamma
        for (c, _), x in zip(pairs, v):
            counts[c] += x
        palette = reduce_counts(counts)
        if all(
            not x or alone[j] >= prefs[t].tier_of(palette)
            for j, ((_, t), x) in enumerate(zip(pairs, v))
        ):
            yield v


def enumerate_stable(instance: Instance, notion: str) -> Iterator[Outcome]:
    """Every stable budget-respecting outcome, one per multiset of class counts.

    Raises SearchSpaceTooLarge once more than BRUTE_CAP outcomes are tried.
    """
    b = instance.budgets
    limit = search_cap(BRUTE_CAP)
    finder = find_ns_deviation if notion == NS else find_is_deviation
    pairs = sorted(instance.agents_of_ct)
    source = _usable_vectors(instance, pairs)  # drawn only as far as the walk needs
    vectors: list[tuple[int, ...]] = []
    tried = 0

    def vector(i: int) -> tuple[int, ...] | None:
        while len(vectors) <= i and (v := next(source, None)) is not None:
            vectors.append(v)
        return vectors[i] if i < len(vectors) else None

    def rec(start: int, chosen: list, residual: list) -> Iterator[Outcome]:
        nonlocal tried
        k = len(chosen)
        if k + sum(residual) <= b.rho1:
            tried += 1
            if tried > limit:
                raise SearchSpaceTooLarge(f"more than {limit} outcomes (cap via HDG_SEARCH_CAP)")
            blocks = [[(p, x) for p, x in zip(pairs, v) if x] for v in chosen]
            blocks += [[(p, 1)] for p, r in zip(pairs, residual) for _ in range(r)]
            outcome = deal_outcome(instance, blocks)
            dev = finder(instance, outcome)
            if dev is None:
                yield outcome
            elif 0 <= dev.target < k and any(dev.agent in c for c in outcome.coalitions[:k]):
                return
        i = start
        while k < b.rho2 and (v := vector(i)) is not None:
            if all(x <= r for x, r in zip(v, residual)):
                chosen.append(v)
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
