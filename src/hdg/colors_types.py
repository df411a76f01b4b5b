"""Solver for bounded color count plus bounded number of agent types.

The search packs coalitions one by one, summarizing partial packings by a
pattern: agents used per (color, type), a flag per (color, type) for "one
coalition below the second-worst palette already exists", and the two
coalition counters.  Whether a candidate coalition may join a partial
packing depends on two branched palettes per (color, type): the worst
palette C1 any coalition holding such an agent may have, and the
second-worst palette C2 (with C2 weakly above C1), which together encode
all deviation checks between packed coalitions.

Enumerating the branch product up front is hopeless even at toy sizes, so
the production solver runs one DP in which every (color, type) carries the
set of still-viable (C2, w) choices, each with an interval of viable C1
ranks; the per-(color, type) choices never interact, so this is exactly
the disjunction of the per-branch DPs.  A literal per-branch reference
implementation, for cross-checking on tiny inputs, lives with the tests in
`tests/references.py`.

Branched C1 palettes are additionally required to sit weakly above the
agent's own singleton palette: any packing certified with a C1 below the
singleton could leave an agent that prefers going alone, while the worst
coalition of a genuinely stable outcome always clears its members'
singletons, so completeness is unaffected.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque

from .core import Instance, Palette, compositions_upto, reduce_counts, singleton_palette
from .errors import SearchSpaceTooLarge, SolverDivergence, search_cap
from .prefs import TierCache, order_values
from .stability import IS, Outcome, check_outcome, deal_outcome

STATES_CAP = 400_000


# --------------------------------------------------------------------------
# Shared candidate/rank precomputation.
# --------------------------------------------------------------------------


class _Setup:
    def __init__(self, instance: Instance, notion: str):
        self.instance = instance
        self.notion = notion
        self.cache = TierCache(instance)
        self.pairs: list[tuple[int, int]] = list(instance.present_pairs)
        self.n_vec = tuple(instance.n_ct[p] for p in self.pairs)
        self.sigma = min(instance.budgets.sigma, instance.n)
        self.candidates = self._enumerate_candidates()
        self._build_rank_tables()

    def _enumerate_candidates(self) -> list[tuple[int, ...]]:
        limit = search_cap(STATES_CAP)
        out: list[tuple[int, ...]] = []

        def rec(i: int, total: int, acc: list[int]):
            if i == len(self.pairs):
                if total >= 1:
                    out.append(tuple(acc))
                    if len(out) > limit:
                        raise SearchSpaceTooLarge(
                            f"more than {limit} candidate coalitions "
                            f"(cap via HDG_SEARCH_CAP)"
                        )
                return
            for k in range(0, min(self.n_vec[i], self.sigma - total) + 1):
                acc.append(k)
                rec(i + 1, total + k, acc)
                acc.pop()

        rec(0, 0, [])
        out.sort()
        return out

    def palette_of_candidate(self, vec: tuple[int, ...]) -> Palette:
        counts = [0] * self.instance.gamma
        for (c, _), k in zip(self.pairs, vec):
            counts[c] += k
        return reduce_counts(counts)

    def _build_rank_tables(self):
        inst = self.instance
        # Palettes a branched worst/second-worst may take: everything some
        # coalition within the size budget can realize with that color.
        theta_by_color: dict[int, set[Palette]] = {c: set() for c in range(inst.gamma)}
        limit = search_cap(STATES_CAP)
        for scanned, counts in enumerate(compositions_upto(inst.class_sizes, self.sigma)):
            if scanned > limit:
                raise SearchSpaceTooLarge(
                    f"more than {limit} realizable compositions (cap via HDG_SEARCH_CAP)"
                )
            p = reduce_counts(counts)
            for c in range(inst.gamma):
                if counts[c] > 0:
                    theta_by_color[c].add(p)

        plus_by_pair: dict[int, set[Palette]] = {i: set() for i in range(len(self.pairs))}
        self.cand_palette = [self.palette_of_candidate(v) for v in self.candidates]
        self.cand_plus: list[list[Palette]] = []
        for vec in self.candidates:
            counts = [0] * inst.gamma
            for (c, _), k in zip(self.pairs, vec):
                counts[c] += k
            row = []
            for i, (c, _) in enumerate(self.pairs):
                counts[c] += 1
                row.append(reduce_counts(counts))
                counts[c] -= 1
                plus_by_pair[i].add(row[-1])
            self.cand_plus.append(row)

        # Joint dense ranks per pair over branch palettes and plus-palettes.
        self.rank: list[dict[Palette, int]] = []
        self.theta_ranks: list[list[int]] = []
        self.singleton_rank: list[int] = []
        for i, (c, t) in enumerate(self.pairs):
            universe = theta_by_color[c] | plus_by_pair[i]
            values = order_values(self.cache, t, sorted(universe))
            self.rank.append(values)
            self.theta_ranks.append(sorted({values[p] for p in theta_by_color[c]}))
            self.singleton_rank.append(values[singleton_palette(c, inst.gamma)])

        # Static per-candidate, per-pair condition data.
        self.cand_static: list[list[tuple[bool, int, int, bool]]] = []
        for idx, vec in enumerate(self.candidates):
            pal = self.cand_palette[idx]
            present_types = {t for (c, t), k in zip(self.pairs, vec) if k >= 1}
            row = []
            for i, (c, t) in enumerate(self.pairs):
                in_s = vec[i] >= 1
                r_c = self.rank[i][pal] if in_s else -1
                r_plus = self.rank[i][self.cand_plus[idx][i]]
                escape = vec[i] == self.n_vec[i]
                if not escape and self.notion == IS:
                    plus = self.cand_plus[idx][i]
                    escape = any(
                        self.cache.prefers(t2, pal, plus) for t2 in present_types
                    )
                row.append((in_s, r_c, r_plus, escape))
            self.cand_static.append(row)

    def theta_in(self, i: int, lo: int, hi: int) -> bool:
        ranks = self.theta_ranks[i]
        pos = bisect_left(ranks, lo)
        return pos < len(ranks) and ranks[pos] <= hi


# --------------------------------------------------------------------------
# Production solver: branch choices deferred into viability sets.
# --------------------------------------------------------------------------

# One entry: (theta2 rank, w used so far, lo..hi interval of theta1 ranks).
Entries = tuple[tuple[int, int, int, int], ...]


def _initial_entries(setup: _Setup, i: int) -> Entries:
    s0 = setup.singleton_rank[i]
    out = []
    for t2 in setup.theta_ranks[i]:
        if t2 >= s0 and setup.theta_in(i, s0, t2):
            out.append((t2, 0, s0, t2))
    return tuple(out)


def _apply_candidate(
    setup: _Setup, i: int, entries: Entries, cand_idx: int
) -> Entries:
    in_s, r_c, r_plus, escape = setup.cand_static[cand_idx][i]
    out = []
    for t2, w, lo, hi in entries:
        w_c = 1 if in_s and r_c < t2 else 0
        if w + w_c > 1:
            continue
        if w_c == 1:
            if not (escape or r_plus <= t2):
                continue
        elif not escape:
            lo2 = max(lo, r_plus)
            if lo2 > lo:
                lo = lo2
        if in_s and r_c < hi:
            hi = r_c
        if lo > hi or not setup.theta_in(i, lo, hi):
            continue
        out.append((t2, w + w_c, lo, hi))
    return tuple(sorted(set(out)))


def solve_colors_types(instance: Instance, notion: str) -> Outcome | None:
    """Some stable budget-respecting outcome, or None if none exists."""
    setup = _Setup(instance, notion)
    pairs = setup.pairs
    n_vec = setup.n_vec
    budgets = instance.budgets
    limit = search_cap(STATES_CAP)

    init_viab = tuple(_initial_entries(setup, i) for i in range(len(pairs)))
    if any(not e for e in init_viab):
        return None
    zero = (0,) * len(pairs)
    start = (zero, 0, 0, 0, init_viab)  # a, r, l, next candidate index, viability

    transition_cache: dict[tuple[int, int, Entries], Entries] = {}

    def shift(viab, cand_idx):
        out = []
        for i, entries in enumerate(viab):
            key = (i, cand_idx, entries)
            new = transition_cache.get(key)
            if new is None:
                new = _apply_candidate(setup, i, entries, cand_idx)
                transition_cache[key] = new
            if not new:
                return None
            out.append(new)
        return tuple(out)

    seen = {start}
    queue = deque([start])
    parent: dict[tuple, tuple] = {}
    target_state = None
    while queue:
        state = queue.popleft()
        a, r, l, nxt, viab = state
        if a == n_vec:
            target_state = state
            break
        if l + 1 > budgets.rho1:
            continue
        for cand_idx in range(nxt, len(setup.candidates)):
            vec = setup.candidates[cand_idx]
            new_a = tuple(x + y for x, y in zip(a, vec))
            if any(x > m for x, m in zip(new_a, n_vec)):
                continue
            r_c = 1 if sum(vec) >= 2 else 0
            if r + r_c > budgets.rho2:
                continue
            new_viab = shift(viab, cand_idx)
            if new_viab is None:
                continue
            new_state = (new_a, r + r_c, l + 1, cand_idx, new_viab)
            if new_state in seen:
                continue
            if len(seen) > limit:
                raise SearchSpaceTooLarge(
                    f"more than {limit} packing states (cap via HDG_SEARCH_CAP)"
                )
            seen.add(new_state)
            parent[new_state] = (state, cand_idx)
            queue.append(new_state)

    if target_state is None:
        return None

    chosen: list[int] = []
    state = target_state
    while state in parent:
        state, cand_idx = parent[state]
        chosen.append(cand_idx)
    outcome = deal_outcome(
        instance, (zip(setup.pairs, setup.candidates[i]) for i in chosen)
    )
    verdict = check_outcome(instance, outcome, notion)
    if not verdict.stable:
        raise SolverDivergence(f"colors-types witness failed: {verdict}")
    return outcome
