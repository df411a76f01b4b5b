"""Solver for bounded color count plus bounded number of agent types.

The search packs coalitions ("candidates": a count per (color, type)
within the size budget) until every agent is placed.  Whether a candidate
may join a partial packing depends on two branched palettes per (color,
type): the worst palette C1 any coalition holding such an agent may have,
and the second-worst palette C2 (with C2 weakly above C1), which together
encode all deviation checks between packed coalitions.

Enumerating the branch product up front is hopeless even at toy sizes, so
the solver runs one search in which every (color, type) carries the set
of still-viable (C2, w) choices, each with an interval of viable C1 ranks
(`Entries`); the per-(color, type) choices never interact, so this is
exactly the disjunction of the per-branch searches.  A literal per-branch
reference implementation, for cross-checking on tiny inputs, lives with
the tests in `tests/references.py`.

A packing is a multiset of coalitions, and the order in which they are
packed does not matter: `_apply_candidate` adds to `w`, takes the max of
`lo` and the min of `hi`, and its filters only drop entries that no later
candidate could revive, so any order of the same candidates gives the same
entries.  A search state is therefore (residual counts per (color, type),
r, viability): r counts the non-trivial coalitions, which rho2 bounds, and
the viability is the tuple of every pair's entries.  Any fitting candidate
may follow any state.  The search is breadth-first, one level per
coalition, so rho1 is a bound on the level and each state is met first
with the fewest coalitions.  A state is dropped when its residual and
viability were already reached with no more non-trivial coalitions: that
earlier state can finish every packing this one can.  `STATES_CAP` bounds
the number of distinct states kept.

Branched C1 palettes are additionally required to sit weakly above the
agent's own singleton palette: any packing certified with a C1 below the
singleton could leave an agent that prefers going alone, while the worst
coalition of a genuinely stable outcome always clears its members'
singletons, so completeness is unaffected.
"""

from __future__ import annotations

from bisect import bisect_left

from .core import Instance, Palette, compositions_upto, reduce_counts, singleton_palette
from .errors import SearchSpaceTooLarge, SolverDivergence, search_cap
from .stability import IS, Outcome, check_outcome, deal_outcome

STATES_CAP = 400_000


# --------------------------------------------------------------------------
# Shared candidate/rank precomputation.
# --------------------------------------------------------------------------


def _order_values(tier_of, universe) -> dict[Palette, int]:
    """Dense order values over a palette universe; higher = better."""
    tiers = {p: tier_of(p) for p in universe}
    dense = {t: i for i, t in enumerate(sorted(set(tiers.values()), reverse=True))}
    return {p: dense[t] for p, t in tiers.items()}


class _Setup:
    def __init__(self, instance: Instance, notion: str):
        self.instance = instance
        self.notion = notion
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
            values = _order_values(inst.prefs[t].tier_of, sorted(universe))
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
                        inst.prefs[t2].tier_of(pal) < inst.prefs[t2].tier_of(plus)
                        for t2 in present_types
                    )
                row.append((in_s, r_c, r_plus, escape))
            self.cand_static.append(row)

    def theta_in(self, i: int, lo: int, hi: int) -> bool:
        ranks = self.theta_ranks[i]
        pos = bisect_left(ranks, lo)
        return pos < len(ranks) and ranks[pos] <= hi


# --------------------------------------------------------------------------
# Search: branch choices deferred into viability sets.
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


class _Residuals:
    """Count vectors packed into ints, and the candidates that fit each.

    A residual (agents per (color, type) still to pack) is one int with a
    field per pair.  Each field carries a guard bit above its count, so
    subtracting a packed candidate leaves every guard bit set exactly when
    the candidate fits, and the difference is the next residual.
    """

    def __init__(self, setup: _Setup):
        width = max(setup.n_vec).bit_length() + 1
        self.bits = width * len(setup.n_vec)
        self.empty = self._pack([1 << (width - 1)] * len(setup.n_vec), width)
        self.full = self.empty + self._pack(setup.n_vec, width)
        self._packed = [
            (k, self._pack(vec, width), sum(vec) >= 2)
            for k, vec in enumerate(setup.candidates)
        ]
        self._fits: dict[int, tuple[list, list]] = {}

    @staticmethod
    def _pack(vec, width: int) -> int:
        return sum(x << (i * width) for i, x in enumerate(vec))

    def fits(self, residual: int) -> tuple[list, list]:
        """(singletons, non-singletons) that fit, as (candidate, next residual)."""
        lists = self._fits.get(residual)
        if lists is None:
            lists = self._fits[residual] = ([], [])
            empty = self.empty
            for k, vec, multi in self._packed:
                rest = residual - vec
                if rest & empty == empty:
                    lists[multi].append((k, rest))
        return lists


class _Viabilities:
    """Interned viability tuples and the moves between them.

    Entry tuples are interned per pair; a viability is the tuple of its
    pairs' entry ids, interned in turn.  `moves[vid * n_cand + k]` holds
    the id after packing candidate k, or -1 when some pair is left with no
    entry; the per-pair moves below it are shared by every viability.
    """

    def __init__(self, setup: _Setup, init_viab: tuple[Entries, ...]):
        self.setup = setup
        self.n_cand = len(setup.candidates)
        self.pair_ids: list[dict[Entries, int]] = [{e: 0} for e in init_viab]
        self.pair_entries: list[list[Entries]] = [[e] for e in init_viab]
        self.pair_moves: list[dict[int, int]] = [{} for _ in init_viab]
        self.ids = {(0,) * len(init_viab): 0}
        self.viabs = list(self.ids)
        self.moves: dict[int, int] = {}

    def move(self, vid: int, cand_idx: int) -> int:
        out = []
        for i, eid in enumerate(self.viabs[vid]):
            key = eid * self.n_cand + cand_idx
            nxt = self.pair_moves[i].get(key)
            if nxt is None:
                new = _apply_candidate(self.setup, i, self.pair_entries[i][eid], cand_idx)
                nxt = self.pair_ids[i].get(new, -1) if new else -1
                if new and nxt < 0:
                    nxt = self.pair_ids[i][new] = len(self.pair_entries[i])
                    self.pair_entries[i].append(new)
                self.pair_moves[i][key] = nxt
            if nxt < 0:
                break
            out.append(nxt)
        else:
            viab = tuple(out)
            nxt = self.ids.get(viab)
            if nxt is None:
                nxt = self.ids[viab] = len(self.viabs)
                self.viabs.append(viab)
        self.moves[vid * self.n_cand + cand_idx] = nxt
        return nxt


State = tuple[int, int, int]  # residual, r, viability id


def _search(setup: _Setup, init_viab: tuple[Entries, ...]) -> list[int] | None:
    """Candidate indices of some full packing, or None if there is none.

    Breadth-first over states, one level per coalition packed; any fitting
    candidate may follow any state.  best_r, keyed on (viability id,
    residual) packed into one int, holds the fewest non-trivial coalitions
    the key was reached with, all at this level or an earlier one; a state
    that does not beat it is dominated and dropped.
    """
    budgets = setup.instance.budgets
    rho1, rho2 = budgets.rho1, budgets.rho2
    limit = search_cap(STATES_CAP)
    residuals = _Residuals(setup)
    empty, bits = residuals.empty, residuals.bits
    viabilities = _Viabilities(setup, init_viab)
    moves, n_cand = viabilities.moves, viabilities.n_cand

    start: State = (residuals.full, 0, 0)
    best_r = {residuals.full: 0}
    parent: dict[State, tuple[State, int]] = {}
    frontier = [start]
    for _ in range(rho1):
        next_frontier = []
        for state in frontier:
            residual, r, vid = state
            base = vid * n_cand
            for group, new_r in zip(residuals.fits(residual), (r, r + 1)):
                if new_r > rho2:
                    break
                for cand_idx, rest in group:
                    nid = moves.get(base + cand_idx)
                    if nid is None:
                        nid = viabilities.move(vid, cand_idx)
                    if nid < 0:
                        continue
                    key = nid << bits | rest
                    old_r = best_r.get(key)
                    if old_r is not None and old_r <= new_r:
                        continue
                    if len(parent) >= limit:
                        raise SearchSpaceTooLarge(
                            f"more than {limit} packing states (cap via HDG_SEARCH_CAP)"
                        )
                    best_r[key] = new_r
                    new_state = (rest, new_r, nid)
                    parent[new_state] = (state, cand_idx)
                    if rest == empty:
                        return _unwind(parent, new_state)
                    next_frontier.append(new_state)
        frontier = next_frontier
    return None


def _unwind(parent: dict[State, tuple[State, int]], state: State) -> list[int]:
    chosen = []
    while state in parent:
        state, cand_idx = parent[state]
        chosen.append(cand_idx)
    return chosen


def solve_colors_types(instance: Instance, notion: str) -> Outcome | None:
    """Some stable budget-respecting outcome, or None if none exists."""
    setup = _Setup(instance, notion)
    init_viab = tuple(_initial_entries(setup, i) for i in range(len(setup.pairs)))
    if any(not e for e in init_viab):
        return None
    chosen = _search(setup, init_viab)
    if chosen is None:
        return None
    outcome = deal_outcome(
        instance, (zip(setup.pairs, setup.candidates[i]) for i in chosen)
    )
    verdict = check_outcome(instance, outcome, notion)
    if not verdict.stable:
        raise SolverDivergence(f"colors-types witness failed: {verdict}")
    return outcome
