"""Exhaustive reference solver.

This module is the trusted oracle every other solver is checked against:
it enumerates set partitions of the agents (as restricted-growth strings,
pruned by the outcome budgets) and tests stability directly from the
definitions.  A second variant enumerates only the agent placements into
at most rho2 non-trivial "position" blocks, which is the cheaper search
when rho2 * sigma is small.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .core import Instance
from .errors import InstanceTooLarge, SearchSpaceTooLarge, search_cap
from .stability import NS, Outcome, find_is_deviation, find_ns_deviation

BRUTE_CAP = 12
POSITIONS_CAP = 16
PLACEMENTS_CAP = 100_000


def partitions_within_budgets(instance: Instance) -> Iterator[Outcome]:
    """All budget-respecting partitions, one per symmetry class.

    Agents sharing a (color, type) pair are interchangeable, so among the
    restricted-growth strings we keep only those where adjacent same-class
    agents have non-decreasing block labels; swapping an out-of-order pair
    yields a lexicographically smaller string of the same symmetry class,
    hence the lex-minimum of every class survives the filter.
    """
    n = instance.n
    b = instance.budgets
    classes = list(zip(instance.colors, instance.types))
    labels = [0] * n
    sizes = [0] * (n + 1)

    def rec(i: int, used: int, nontrivial: int) -> Iterator[Outcome]:
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(used)]
            for agent, lab in enumerate(labels):
                blocks[lab].append(agent)
            yield Outcome.from_sets(blocks)
            return
        lo = labels[i - 1] if i > 0 and classes[i] == classes[i - 1] else 0
        for lab in range(lo, min(used, b.rho1 - 1) + 1):
            new_block = lab == used
            if not new_block and sizes[lab] >= b.sigma:
                continue
            grew_nontrivial = not new_block and sizes[lab] == 1
            if grew_nontrivial and nontrivial >= b.rho2:
                continue
            labels[i] = lab
            sizes[lab] += 1
            yield from rec(
                i + 1, used + (1 if new_block else 0), nontrivial + (1 if grew_nontrivial else 0)
            )
            sizes[lab] -= 1

    yield from rec(0, 0, 0)


def enumerate_stable(instance: Instance, notion: str) -> Iterator[Outcome]:
    """All stable, budget-respecting outcomes (up to agent interchange)."""
    finder = find_ns_deviation if notion == NS else find_is_deviation
    for outcome in partitions_within_budgets(instance):
        if finder(instance, outcome) is None:
            yield outcome


def solve_brute(instance: Instance, notion: str) -> Outcome | None:
    """Existence oracle: some stable budget-respecting outcome, else None.

    Instances with more agents than rho1 * sigma admit no budget-feasible
    partition at all and are decided without enumeration.
    """
    b = instance.budgets
    if instance.n > b.rho1 * b.sigma:
        return None
    limit = search_cap(BRUTE_CAP)
    if instance.n > limit:
        raise InstanceTooLarge(f"n={instance.n} exceeds brute-force cap {limit}")
    for outcome in enumerate_stable(instance, notion):
        return outcome
    return None


def solve_brute_positions(instance: Instance, notion: str) -> Outcome | None:
    """Position-branching variant: same answers as solve_brute.

    Branches over the number of non-trivial coalitions and their sizes,
    then over which agents occupy the positions; leftover agents become
    singletons.  PLACEMENTS_CAP bounds the placements checked, which grow
    like n^(rho2*sigma) even when rho2*sigma is within POSITIONS_CAP.
    """
    b = instance.budgets
    n = instance.n
    limit = search_cap(POSITIONS_CAP)
    positions = min(b.rho2, n // 2) * min(b.sigma, n)
    if positions > limit:
        raise InstanceTooLarge(f"rho2*sigma={positions} exceeds positions cap {limit}")
    placement_limit = search_cap(PLACEMENTS_CAP)
    tried = 0
    finder = find_ns_deviation if notion == NS else find_is_deviation

    def size_vectors(d: int) -> Iterator[tuple[int, ...]]:
        def rec(left: int, cap_size: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
            if left == 0:
                yield tuple(acc)
                return
            for s in range(min(cap_size, b.sigma), 1, -1):
                if sum(acc) + s > n:
                    continue
                acc.append(s)
                yield from rec(left - 1, s, acc)
                acc.pop()

        yield from rec(d, b.sigma, [])

    def fill(sizes: tuple[int, ...], idx: int, avail: list[int], prev_min: int):
        if idx == len(sizes):
            yield []
            return
        s = sizes[idx]
        same_run = idx > 0 and sizes[idx - 1] == s
        for combo in itertools.combinations(avail, s):
            if same_run and combo[0] < prev_min:
                continue
            rest = [a for a in avail if a not in combo]
            for tail in fill(sizes, idx + 1, rest, combo[0]):
                yield [list(combo)] + tail

    for d in range(0, min(b.rho2, n // 2) + 1):
        for sizes in size_vectors(d):
            if d + (n - sum(sizes)) > b.rho1:
                continue
            for blocks in fill(sizes, 0, list(range(n)), -1):
                tried += 1
                if tried > placement_limit:
                    raise SearchSpaceTooLarge(
                        f"more than {placement_limit} placements (cap via HDG_SEARCH_CAP)"
                    )
                taken = {a for blk in blocks for a in blk}
                full = blocks + [[a] for a in range(n) if a not in taken]
                outcome = Outcome.from_sets(full)
                if finder(instance, outcome) is None:
                    return outcome
    return None
