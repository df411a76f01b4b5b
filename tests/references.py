"""Literal, per-branch forms of the parameterized solvers, for tests only.

Each solver decides its branches implicitly (colors-types defers the branch
choice into one DP, colors-size prunes supports during its walk,
colors-ntcoal decides validity per agent class).  The functions here spell
one branch out at a time on top of the solver's own building blocks, so
tests can check those blocks against the definitions on tiny inputs.
Unlike `oracles.py`, this code shares helpers with the solvers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Mapping

from hdg.colors_ntcoal import Guess, _class_valid
from hdg.colors_size import TWO_PLUS, CoalitionType, _deviation_free
from hdg.colors_types import _Setup
from hdg.core import Instance, Palette, reduce_counts
from hdg.errors import SearchSpaceTooLarge
from hdg.prefs import TierCache
from hdg.stability import IS, NS

# --------------------------------------------------------------------------
# colors-types: explicit worst/second-worst branch product.
# --------------------------------------------------------------------------

BRANCH_CAP = 5_000


@dataclass(frozen=True)
class WorstPair:
    """Branched (worst, second-worst) palettes per (color, type)."""

    palettes: Mapping[tuple[int, int], tuple[Palette, Palette]]

    def worst(self, pair):
        return self.palettes[pair][0]

    def second_worst(self, pair):
        return self.palettes[pair][1]


@dataclass(frozen=True)
class Pattern:
    a: Mapping[tuple[int, int], int]
    w: Mapping[tuple[int, int], int]
    r: int
    l: int


def coalition_compatible(
    candidate: Mapping[tuple[int, int], int],
    pattern: Pattern,
    worst_pairs: WorstPair,
    instance: Instance,
    notion: str,
) -> bool:
    """Literal compatibility test of one candidate against a pattern.

    The candidate is a count vector over (color, type) pairs.  Pairs with
    no agents in the instance are skipped entirely.
    """
    cache = TierCache(instance)
    gamma = instance.gamma
    size = sum(candidate.values())
    if size == 0 or size > instance.budgets.sigma:
        return False
    counts = [0] * gamma
    for (c, _), k in candidate.items():
        counts[c] += k
    palette = reduce_counts(counts)
    present_types = {t for (c, t), k in candidate.items() if k >= 1}

    if pattern.r + (1 if size >= 2 else 0) > instance.budgets.rho2:
        return False
    if pattern.l + 1 > instance.budgets.rho1:
        return False

    for pair in instance.present_pairs:
        c, t = pair
        n_ct = instance.n_ct[pair]
        a_c = candidate.get(pair, 0)
        c1, c2 = worst_pairs.worst(pair), worst_pairs.second_worst(pair)
        if a_c >= 1 and cache.prefers(t, c1, palette):
            return False
        if pattern.a.get(pair, 0) + a_c > n_ct:
            return False
        w_c = 1 if a_c >= 1 and cache.prefers(t, c2, palette) else 0
        if pattern.w.get(pair, 0) + w_c > 1:
            return False
        grown = list(counts)
        grown[c] += 1
        plus = reduce_counts(grown)
        if w_c == 1 and not cache.prefers(t, plus, c2):
            continue
        if w_c == 0 and not cache.prefers(t, plus, c1):
            continue
        if a_c == n_ct:
            continue
        if notion == IS and any(
            cache.prefers(t2, palette, plus) for t2 in present_types
        ):
            continue
        return False
    return True


def worst_pair_branches(instance: Instance) -> Iterator[WorstPair]:
    """All branched worst/second-worst palette choices, one class rep each."""
    setup = _Setup(instance, NS)
    per_pair: list[list[tuple[Palette, Palette]]] = []
    for i, (c, t) in enumerate(setup.pairs):
        reps: dict[int, Palette] = {}
        for p in sorted(setup.rank[i]):
            reps.setdefault(setup.rank[i][p], p)
        s0 = setup.singleton_rank[i]
        options = []
        for t1 in setup.theta_ranks[i]:
            if t1 < s0:
                continue
            for t2 in setup.theta_ranks[i]:
                if t2 >= t1:
                    options.append((reps[t1], reps[t2]))
        per_pair.append(options)

    total = 1
    for options in per_pair:
        total *= max(len(options), 1)
        if total > BRANCH_CAP:
            raise SearchSpaceTooLarge(f"{total}+ worst-pair branches")

    def rec(i: int, acc: dict):
        if i == len(setup.pairs):
            yield WorstPair(dict(acc))
            return
        for c1, c2 in per_pair[i]:
            acc[setup.pairs[i]] = (c1, c2)
            yield from rec(i + 1, acc)
        acc.pop(setup.pairs[i], None)

    yield from rec(0, {})


def branch_reaches_target(
    instance: Instance, worst_pairs: WorstPair, notion: str
) -> bool:
    """Pattern DP for one explicit branch: is a full packing realizable?"""
    setup = _Setup(instance, notion)
    pairs = setup.pairs
    n_vec = setup.n_vec
    realized = {((0,) * len(pairs), (0,) * len(pairs), 0, 0)}
    frontier = deque(realized)
    while frontier:
        a, w, r, l = frontier.popleft()
        pattern = Pattern(dict(zip(pairs, a)), dict(zip(pairs, w)), r, l)
        for vec in setup.candidates:
            candidate = {pair: k for pair, k in zip(pairs, vec) if k >= 1}
            if not coalition_compatible(candidate, pattern, worst_pairs, instance, notion):
                continue
            pal = setup.palette_of_candidate(vec)
            new_w = list(w)
            for i, (c, t) in enumerate(pairs):
                if vec[i] >= 1 and setup.cache.prefers(
                    t, worst_pairs.second_worst(pairs[i]), pal
                ):
                    new_w[i] += 1
            new = (
                tuple(x + y for x, y in zip(a, vec)),
                tuple(new_w),
                r + (1 if sum(vec) >= 2 else 0),
                l + 1,
            )
            if new in realized:
                continue
            if new[0] == n_vec:
                return True
            realized.add(new)
            frontier.append(new)
    return False


def solve_colors_types_branchwise(instance: Instance, notion: str) -> bool:
    """Literal algorithm: one pattern DP per branch.  YES/NO only."""
    return any(
        branch_reaches_target(instance, branch, notion)
        for branch in worst_pair_branches(instance)
    )


# --------------------------------------------------------------------------
# colors-size: one explicit multiplicity branch.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Branch:
    """Multiplicity class (0, 1 or at-least-2) per coalition type."""

    pi: Mapping[CoalitionType, int]

    def realized(self) -> list[CoalitionType]:
        return [t for t, k in self.pi.items() if k >= 1]


def branch_is_stable(instance: Instance, branch: Branch, notion: str) -> bool:
    """Whether every outcome respecting the branch is stable.

    Checks every (color, type) member of every realized coalition type
    against every other realized type, against a second copy of its own
    type when that type occurs at least twice, and against going alone.
    """
    cache = TierCache(instance)
    gamma = instance.gamma
    realized = branch.realized()
    counts = {t: t.color_counts(gamma) for t in realized}
    for src in realized:
        if not _deviation_free(cache, gamma, src, None, None, notion):
            return False
        for dst in realized:
            if dst == src and branch.pi[dst] != TWO_PLUS:
                continue
            if not _deviation_free(cache, gamma, src, dst, counts[dst], notion):
                return False
    return True


# --------------------------------------------------------------------------
# colors-ntcoal: validity of one agent's seat under one guess.
# --------------------------------------------------------------------------


def is_valid_for(
    agent: int, target, guess: Guess, instance: Instance, notion: str
) -> bool:
    """May this agent occupy the given coalition (or a trivial one)?"""
    cache = TierCache(instance)
    return _class_valid(
        cache,
        instance,
        instance.colors[agent],
        instance.types[agent],
        target,
        guess,
        notion,
    )
