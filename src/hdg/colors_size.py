"""Solver for bounded color count plus bounded coalition size.

A coalition type is a multiset of (color, preference type) pairs.  The
search walks over which coalition types occur in the outcome and whether
each occurs once or at least twice; types that are pairwise deviation-free
(and tolerate self-copies / going alone) form a stability-feasible branch,
and an integer feasibility system decides whether the agent counts can be
partitioned accordingly.  A branch where every occurring type is marked
with its exact multiplicity class is exactly the data needed: stability of
any outcome respecting the branch depends on nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

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


def _build_ilp(
    instance: Instance,
    support: list[CoalitionType],
    pi: list[int],
) -> tuple[ILPSystem, list[int]]:
    """Feasibility system over the types marked at-least-two.

    Variables count occurrences beyond the two mandatory copies; equality
    rows make the per-(color,type) usage hit the instance exactly and the
    two inequality rows enforce the coalition-count budgets.
    """
    pairs = instance.present_pairs
    variables = [i for i, k in enumerate(pi) if k == TWO_PLUS]
    eqs = []
    for pair in pairs:
        committed = sum(support[i].count(pair) * pi[i] for i in range(len(support)))
        coeffs = tuple(support[v].count(pair) for v in variables)
        eqs.append((coeffs, instance.n_ct[pair] - committed))
    committed_all = sum(pi)
    committed_nt = sum(pi[i] for i in range(len(support)) if support[i].size >= 2)
    les = [
        (tuple(1 for _ in variables), instance.budgets.rho1 - committed_all),
        (
            tuple(1 if support[v].size >= 2 else 0 for v in variables),
            instance.budgets.rho2 - committed_nt,
        ),
    ]
    if any(rhs < 0 for _, rhs in eqs) or any(rhs < 0 for _, rhs in les):
        return None, variables  # over-committed branch
    return ILPSystem(len(variables), tuple(eqs), tuple(les)), variables


def solve_colors_size(instance: Instance, notion: str) -> Outcome | None:
    """Some stable budget-respecting outcome, or None if none exists.

    Branches with realized-type supports that admit a deviation are pruned
    during the support walk, which is exactly the branch stability test;
    surviving branches go to integer feasibility, smallest committed agent
    count first.
    """
    prefs, gamma = instance.prefs, instance.gamma
    types = enumerate_coalition_types(instance)
    # Types whose members would rather go alone can never be realized.
    types = [
        t
        for t in types
        if _deviation_free(prefs, gamma, t, None, None, notion)
    ]
    counts = [t.color_counts(gamma) for t in types]
    self_ok = [
        _deviation_free(prefs, gamma, t, t, counts[i], notion)
        for i, t in enumerate(types)
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

    pairs = instance.present_pairs
    n_vec = tuple(instance.n_ct[p] for p in pairs)
    budget = search_cap(SUPPORT_CAP)
    examined = 0
    branches: list[tuple[int, list[int], list[int]]] = []

    def dfs(start: int, chosen: list[int], residual: tuple[int, ...]):
        nonlocal examined
        examined += 1
        if examined > budget:
            raise SearchSpaceTooLarge(
                f"more than {budget} supports (cap via HDG_SEARCH_CAP)"
            )
        if chosen:
            _expand_multiplicities(chosen)
        if len(chosen) >= min(instance.budgets.rho1, instance.n):
            return
        for i in range(start, len(types)):
            usage = tuple(types[i].count(p) for p in pairs)
            if any(u > r for u, r in zip(usage, residual)):
                continue
            if not all(compatible(j, i) for j in chosen):
                continue
            chosen.append(i)
            dfs(i + 1, chosen, tuple(r - u for r, u in zip(residual, usage)))
            chosen.pop()

    def _expand_multiplicities(chosen: list[int]):
        # All {exactly-one, at-least-two} markings of the support.
        def rec(k: int, pi: list[int], committed: int):
            if k == len(chosen):
                branches.append((committed, list(chosen), list(pi)))
                return
            idx = chosen[k]
            pi.append(1)
            rec(k + 1, pi, committed + types[idx].size)
            pi.pop()
            if self_ok[idx]:
                pi.append(TWO_PLUS)
                rec(k + 1, pi, committed + 2 * types[idx].size)
                pi.pop()

        rec(0, [], 0)

    dfs(0, [], n_vec)

    branches.sort(key=lambda b: (b[0], b[1], b[2]))
    for _, chosen, pi in branches:
        support = [types[i] for i in chosen]
        system, variables = _build_ilp(instance, support, pi)
        if system is None:
            continue
        extra = feasible(system)
        if extra is None:
            continue
        blocks = []
        for k, idx in enumerate(chosen):
            times = pi[k] if pi[k] == 1 else 2 + extra[variables.index(k)]
            blocks += [types[idx].pair_counts] * times
        outcome = deal_outcome(instance, blocks)
        verdict = check_outcome(instance, outcome, notion)
        if not verdict.stable:
            raise SolverDivergence(f"colors-size witness failed: {verdict}")
        return outcome
    return None
