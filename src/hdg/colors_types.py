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
must allow.  `STATES_CAP` bounds the number of candidates and of distinct
states kept.

A rank is a negated tier, so higher is better.  Every comparison the
search makes depends only on the order of ranks, so any order-preserving
values would give the same entries, states and witness.  The static data
of one (pair, candidate) is filled on first use: the search's first level
tries every candidate from the start state, and most of them die on their
first pairs, so it reads well under half of that table.

Branched C1 palettes are additionally required to sit weakly above the
agent's own singleton palette: any packing certified with a C1 below the
singleton could leave an agent that prefers going alone, while the worst
coalition of a genuinely stable outcome always clears its members'
singletons, so completeness is unaffected.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice

from .core import Instance, PackedCounts, compositions_upto, tier_table
from .errors import SearchSpaceTooLarge, SolverDivergence, search_cap
from .stability import IS, Outcome, check_outcome, deal_outcome

STATES_CAP = 400_000


# --------------------------------------------------------------------------
# Candidates, theta ranks and static per-candidate data.
# --------------------------------------------------------------------------


class _Setup:
    """What the search reads of one instance: the candidates, each pair's
    theta ranks and singleton rank, and per pair and candidate a static
    cell filled on first use.  All tiers come from the instance's `tier_table`.
    """

    def __init__(self, instance: Instance, notion: str):
        self.instance = instance
        self.notion = notion
        self.pairs: list[tuple[int, int]] = list(instance.present_pairs)
        self.n_vec = tuple(instance.n_ct[p] for p in self.pairs)
        sigma = min(instance.budgets.sigma, instance.n)
        limit = search_cap(STATES_CAP)
        self.candidates = list(islice(compositions_upto(self.n_vec, sigma), limit + 1))
        if len(self.candidates) > limit:
            raise SearchSpaceTooLarge(
                f"more than {limit} candidate coalitions (cap via HDG_SEARCH_CAP)"
            )
        self.tiers = tier_table(instance)
        # Pairs are sorted by color, so each color's pairs are one slice.
        edges = [bisect_left(self.pairs, (c,)) for c in range(instance.gamma + 1)]
        spans = list(zip(edges, edges[1:]))
        self.cand_counts = [
            tuple([sum(vec[a:b]) for a, b in spans]) for vec in self.candidates
        ]
        # Palettes a branched worst/second-worst may take: those of every
        # coalition within the size budget that holds the color.  A
        # color's count splits freely over its pairs, so these are the
        # candidates' color-count vectors.
        vectors = list(dict.fromkeys(self.cand_counts))
        own = self.tiers.own
        self.theta_ranks: list[list[int]] = []
        self.singleton_rank: list[int] = []
        for c, t in self.pairs:
            self.theta_ranks.append(sorted({-own(t, v) for v in vectors if v[c]}))
            self.singleton_rank.append(-self.tiers.single(t, c))
        # Per pair and candidate: (in it, rank of its palette, rank once one
        # more agent of the pair joins, whether that agent may not join).
        self.cand_static: list[list[tuple[bool, int | None, int, bool] | None]] = [
            [None] * len(self.candidates) for _ in self.pairs
        ]

    def cell(self, i: int, idx: int) -> tuple[bool, int | None, int, bool]:
        """The static data of pair i and candidate idx, filled and kept."""
        vec, counts = self.candidates[idx], self.cand_counts[idx]
        c, t = self.pairs[i]
        k = vec[i]
        escape = k == self.n_vec[i]
        tiers = self.tiers
        if not escape and self.notion == IS:
            members = frozenset(t2 for (_, t2), k2 in zip(self.pairs, vec) if k2)
            escape = tiers.refused(counts, c, members)
        cell = self.cand_static[i][idx] = (
            k > 0, -tiers.own(t, counts) if k else None, -tiers.joined(t, counts, c), escape
        )
        return cell

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
    in_s, r_c, r_plus, escape = setup.cand_static[i][cand_idx] or setup.cell(i, cand_idx)
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
    """Residual count vectors (agents per (color, type) still to pack) as
    `PackedCounts`, and the non-trivial candidates that fit: a candidate
    fits when its difference keeps every guard bit."""

    def __init__(self, setup: _Setup):
        self.packing = packing = PackedCounts(setup.n_vec)
        self._packed = [
            (k, packing.pack(vec)) for k, vec in enumerate(setup.candidates) if sum(vec) >= 2
        ]
        self._fits: dict[int, list[tuple[int, int]]] = {}

    def fits(self, residual: int) -> list[tuple[int, int]]:
        """Non-trivial candidates that fit, as (candidate, next residual)."""
        out = self._fits.get(residual)
        if out is None:
            guard = self.packing.guard
            out = self._fits[residual] = [
                (k, rest) for k, vec in self._packed if (rest := residual - vec) & guard == guard
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

    def send_alone(self, vid: int, left: tuple[int, ...]) -> int:
        """The id after each pair's `left` agents go alone, or -1; a
        candidate packed a third time changes no entries."""
        for single, count in zip(self.singles, left):
            for _ in range(min(count, 2)):
                vid = self.move(vid, single)
                if vid < 0:
                    return -1
        return vid


def _search(
    setup: _Setup, init_viab: tuple[Entries, ...]
) -> tuple[list[int], tuple[int, ...]] | None:
    """The non-trivial candidate indices of some full packing and the
    agents it leaves alone per pair, or None if there is none.

    Level r holds the states first met with r non-trivial candidates, each
    one int (its viability id above its residual), closed as it is met:
    its r coalitions plus one per leftover agent must stay within rho1.
    """
    budgets = setup.instance.budgets
    limit = search_cap(STATES_CAP)
    residuals = _Residuals(setup)
    packing = residuals.packing
    bits, full = packing.bits, packing.full
    mask = (1 << bits) - 1
    viabilities = _Viabilities(setup, init_viab)
    move, moves, n_cand = viabilities.move, viabilities.moves, viabilities.n_cand
    parent: dict[int, tuple[int, int] | None] = {full: None}

    def close(state: int, r: int) -> tuple[list[int], tuple[int, ...]] | None:
        left = packing.unpack(state & mask)
        if r + sum(left) > budgets.rho1 or viabilities.send_alone(state >> bits, left) < 0:
            return None
        chosen: list[int] = []
        while (step := parent[state]) is not None:
            state, cand_idx = step
            chosen.insert(0, cand_idx)
        return chosen, left

    frontier = [full]
    if (found := close(full, 0)) is not None:
        return found
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
                if (found := close(new_state, r)) is not None:
                    return found
                next_frontier.append(new_state)
        frontier = next_frontier
    return None


def solve_colors_types(instance: Instance, notion: str) -> Outcome | None:
    """Some stable budget-respecting outcome, or None if none exists."""
    setup = _Setup(instance, notion)
    init_viab = tuple(_initial_entries(setup, i) for i in range(len(setup.pairs)))
    if any(not e for e in init_viab):
        return None
    found = _search(setup, init_viab)
    if found is None:
        return None
    chosen, left = found
    outcome = deal_outcome(
        instance, (zip(setup.pairs, setup.candidates[i]) for i in chosen), zip(setup.pairs, left)
    )
    verdict = check_outcome(instance, outcome, notion)
    if not verdict.stable:
        raise SolverDivergence(f"colors-types witness failed: {verdict}")
    return outcome
