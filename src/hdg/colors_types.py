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

Packing candidates commutes (`_apply_candidate` adds to `w`, takes the
max of `lo` and the min of `hi`, and drops only entries no later candidate
could revive), and packing one candidate more than twice leaves the
entries of packing it twice.  So singletons are never searched: the
search is breadth-first over the non-trivial candidates, at most rho2
levels deep, on states (residual counts per (color, type), viability),
and closes every state by sending each leftover agent alone, which rho1
must allow.  `STATES_CAP` bounds the number of distinct states kept.

Branched C1 palettes are additionally required to sit weakly above the
agent's own singleton palette: any packing certified with a C1 below the
singleton could leave an agent that prefers going alone, while the worst
coalition of a genuinely stable outcome always clears its members'
singletons, so completeness is unaffected.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice

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
        limit = search_cap(STATES_CAP)
        self.candidates = list(islice(compositions_upto(self.n_vec, self.sigma), limit + 1))
        if len(self.candidates) > limit:
            raise SearchSpaceTooLarge(
                f"more than {limit} candidate coalitions (cap via HDG_SEARCH_CAP)"
            )
        self._build_rank_tables()

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
        self.cand_palette: list[Palette] = []
        self.cand_plus: list[list[Palette]] = []
        for vec in self.candidates:
            counts = [0] * inst.gamma
            for (c, _), k in zip(self.pairs, vec):
                counts[c] += k
            self.cand_palette.append(reduce_counts(counts))
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
    """Count vectors packed into ints, and the non-trivial candidates that fit.

    A residual (agents per (color, type) still to pack) is one int with a
    field per pair.  Each field carries a guard bit above its count, so
    subtracting a packed candidate leaves every guard bit set exactly when
    the candidate fits, and the difference is the next residual.
    """

    def __init__(self, setup: _Setup):
        self.width = width = max(setup.n_vec).bit_length() + 1
        self.n_pairs = len(setup.n_vec)
        self.bits = width * self.n_pairs
        self.empty = self._pack([1 << (width - 1)] * self.n_pairs, width)
        self.full = self.empty + self._pack(setup.n_vec, width)
        self._packed = [
            (k, self._pack(vec, width))
            for k, vec in enumerate(setup.candidates)
            if sum(vec) >= 2
        ]
        self._fits: dict[int, list[tuple[int, int]]] = {}

    @staticmethod
    def _pack(vec, width: int) -> int:
        return sum(x << (i * width) for i, x in enumerate(vec))

    def left(self, residual: int) -> list[int]:
        """Agents still to pack, per pair."""
        count = (1 << (self.width - 1)) - 1
        return [residual >> (i * self.width) & count for i in range(self.n_pairs)]

    def fits(self, residual: int) -> list[tuple[int, int]]:
        """Non-trivial candidates that fit, as (candidate, next residual)."""
        out = self._fits.get(residual)
        if out is None:
            empty = self.empty
            out = self._fits[residual] = [
                (k, rest) for k, vec in self._packed if (rest := residual - vec) & empty == empty
            ]
        return out


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
        pairs = range(len(init_viab))
        self.singles = [setup.candidates.index(tuple(int(j == i) for j in pairs)) for i in pairs]

    def move(self, vid: int, cand_idx: int) -> int:
        nxt = self.moves.get(vid * self.n_cand + cand_idx)
        if nxt is not None:
            return nxt
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

    def send_alone(self, vid: int, left: list[int]) -> int:
        """The id after each pair's `left` agents go alone, or -1; a
        candidate packed a third time changes no entries."""
        for single, count in zip(self.singles, left):
            for _ in range(min(count, 2)):
                vid = self.move(vid, single)
                if vid < 0:
                    return -1
        return vid


def _search(setup: _Setup, init_viab: tuple[Entries, ...]) -> list[int] | None:
    """Candidate indices of some full packing, or None if there is none.

    Level r holds the states first met with r non-trivial candidates, each
    one int (its viability id above its residual), closed as it is met:
    its r coalitions plus one per leftover agent must stay within rho1.
    """
    budgets = setup.instance.budgets
    limit = search_cap(STATES_CAP)
    residuals = _Residuals(setup)
    bits = residuals.bits
    mask = (1 << bits) - 1
    viabilities = _Viabilities(setup, init_viab)
    move, moves, n_cand = viabilities.move, viabilities.moves, viabilities.n_cand
    parent: dict[int, tuple[int, int] | None] = {residuals.full: None}

    def close(state: int, r: int) -> list[int] | None:
        left = residuals.left(state & mask)
        if r + sum(left) > budgets.rho1 or viabilities.send_alone(state >> bits, left) < 0:
            return None
        chosen = [single for single, count in zip(viabilities.singles, left) for _ in range(count)]
        while (step := parent[state]) is not None:
            state, cand_idx = step
            chosen.insert(0, cand_idx)
        return chosen

    frontier = [residuals.full]
    if (chosen := close(residuals.full, 0)) is not None:
        return chosen
    for r in range(1, min(budgets.rho1, budgets.rho2) + 1):
        next_frontier = []
        for state in frontier:
            vid = state >> bits
            base = vid * n_cand
            for cand_idx, rest in residuals.fits(state & mask):
                nid = moves.get(base + cand_idx)
                if nid is None:
                    nid = move(vid, cand_idx)
                if nid < 0:
                    continue
                new_state = nid << bits | rest
                if new_state in parent:
                    continue
                if len(parent) > limit:
                    raise SearchSpaceTooLarge(
                        f"more than {limit} packing states (cap via HDG_SEARCH_CAP)"
                    )
                parent[new_state] = (state, cand_idx)
                if (chosen := close(new_state, r)) is not None:
                    return chosen
                next_frontier.append(new_state)
        frontier = next_frontier
    return None


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
