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
and extends a state only from the candidate that first reached it on.
Pairs move independently, and a pair's move reads the candidate only
through its static cell, so moves are memoized per pair on (entries,
cell).  A state closes when rho1 allows one more coalition per leftover
agent and every pair keeps an entry once each pair's singleton is packed
for those agents, at most twice; that too is memoized per pair.  The
last level is never extended, so its children are decided pair by pair
and never interned.  `STATES_CAP` bounds the number of candidates, of
distinct states kept, and of the last level's live children.

The candidates are the instance's `stability.shapes` in their one
order: first each pair's singleton, candidate i that of pair i, then the
non-trivial ones in `Shapes.shape` order, the larger first.  The search
reads each candidate's count vector and `Block` (its color counts and
member types), and what it reads of them under either notion
(`_Classes`: theta and singleton ranks, the NS cells and the packed
residuals) is built once per instance and kept in its `core.shared`
parts, so an IS solve after an NS one, or the reverse, starts from it.

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
from functools import cached_property

from .core import Instance, PackedCounts, shared, tier_table
from .errors import SearchSpaceTooLarge, SolverDivergence, search_cap
from .stability import IS, Outcome, Shapes, check_outcome, deal_outcome, shapes

STATES_CAP = 400_000


# --------------------------------------------------------------------------
# Candidates, theta ranks and static per-candidate data.
# --------------------------------------------------------------------------


class _Classes:
    """What the search reads of one instance under either notion: the
    pairs and their counts, the candidates (the instance's
    `stability.shapes`, as count vectors and `Block`s), each pair's theta
    ranks and singleton rank, the NS cells and the candidates' packed
    residuals.  Built once per instance, from its `tier_table`, and kept
    in its `core.shared` parts."""

    def __init__(self, instance: Instance, table: Shapes):
        self.pairs: list[tuple[int, int]] = list(instance.present_pairs)
        self.n_vec = table.counts
        self.candidates, self.blocks = map(list, zip(*table.listed()))
        self.tiers = tiers = tier_table(instance)
        # Palettes a branched worst/second-worst may take: those of every
        # coalition within the size budget that holds the color.  A
        # color's count splits freely over its pairs, so these are the
        # candidates' color-count vectors.
        vectors = {block.counts for block in self.blocks}
        own = tiers.own
        self.theta_ranks: list[list[int]] = []
        self.singleton_rank: list[int] = []
        for c, t in self.pairs:
            self.theta_ranks.append(sorted({-own(t, v) for v in vectors if v[c]}))
            self.singleton_rank.append(-tiers.single(t, c))
        # Per pair and candidate, the NS cell (see `_Setup`), filled on
        # first use under either notion: an IS cell differs only in its
        # escape flag.
        self.ns_cells: list[list[tuple[bool, int | None, int, bool] | None]] = [
            [None] * len(self.candidates) for _ in self.pairs
        ]

    @cached_property
    def residuals(self) -> _Residuals:
        return _Residuals(self)


class _Setup:
    """What the search reads of one instance under one notion: its
    `_Classes`, and per pair and candidate a static cell filled on first
    use.  The candidate cap is checked on every set-up, against the
    instance's shapes, before any shared part is read.
    """

    def __init__(self, instance: Instance, notion: str):
        self.instance = instance
        self.notion = notion
        limit = search_cap(STATES_CAP)
        table = shapes(instance)
        if table.draw(limit + 1) > limit:
            raise SearchSpaceTooLarge(
                f"more than {limit} candidate coalitions (cap via HDG_SEARCH_CAP)"
            )
        parts = shared(instance).parts
        classes = parts.get("colors_types")
        if classes is None:
            classes = parts["colors_types"] = _Classes(instance, table)
        self.classes = classes
        self.pairs, self.n_vec, self.tiers = classes.pairs, classes.n_vec, classes.tiers
        self.candidates, self.blocks = classes.candidates, classes.blocks
        self.theta_ranks, self.singleton_rank = classes.theta_ranks, classes.singleton_rank
        # Per pair and candidate: (in it, rank of its palette, rank once one
        # more agent of the pair joins, whether that agent may not join).
        self.cand_static = classes.ns_cells if notion != IS else [
            [None] * len(self.candidates) for _ in self.pairs
        ]

    def cell(self, i: int, idx: int) -> tuple[bool, int | None, int, bool]:
        """The static data of pair i and candidate idx, filled and kept: the
        NS cell once per instance, and under IS that cell with the IS veto
        added to its escape flag."""
        vec, block = self.candidates[idx], self.blocks[idx]
        c, t = self.pairs[i]
        tiers = self.tiers
        cell = self.classes.ns_cells[i][idx]
        if cell is None:
            k, counts = vec[i], block.counts
            cell = self.classes.ns_cells[i][idx] = (
                k > 0, -tiers.own(t, counts) if k else None, -tiers.joined(t, counts, c),
                k == self.n_vec[i],
            )
        if self.notion == IS:
            if not cell[3] and tiers.refused(block.counts, c, block.types):
                cell = cell[:3] + (True,)
            self.cand_static[i][idx] = cell
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
    `PackedCounts`, the non-trivial candidates (those past the pairs'
    singletons) that fit (a candidate fits when its difference keeps every
    guard bit), and what closing a residual reads of it."""

    def __init__(self, classes: _Classes):
        self.packing = packing = PackedCounts(classes.n_vec)
        first = len(classes.pairs)
        nontrivial = enumerate(classes.candidates[first:], first)
        self._packed = [(k, packing.pack(vec)) for k, vec in nontrivial]
        self._fits: dict[int, list[tuple[int, int]]] = {}
        self._left: dict[int, tuple[int, int]] = {}

    def fits(self, residual: int, start: int = 0) -> list[tuple[int, int]]:
        """Non-trivial candidates from index `start` on that fit, as
        (candidate, next residual)."""
        out = self._fits.get(residual)
        if out is None:
            guard = self.packing.guard
            out = self._fits[residual] = [
                (k, rest) for k, vec in self._packed if (rest := residual - vec) & guard == guard
            ]
        return out[bisect_left(out, (start,)):] if start else out

    def left(self, residual: int) -> tuple[int, int]:
        """The number of agents left, and their count per pair capped at 2
        as base-3 digits, the first pair lowest."""
        out = self._left.get(residual)
        if out is None:
            counts = self.packing.unpack(residual)
            pattern = 0
            for count in reversed(counts):
                pattern = 3 * pattern + min(count, 2)
            out = self._left[residual] = (sum(counts), pattern)
        return out


class _Viabilities:
    """Interned viability tuples and the moves between them.

    Entry tuples are interned per pair; a viability is the tuple of its
    pairs' entry ids, interned in turn.  `moves[vid * n_cand + k]` holds
    the id after packing candidate k, or -1 when some pair is left with no
    entry.  A pair's move reads the candidate only through its cell, so
    cells are interned per pair on first use, and the per-pair moves below
    `moves`, shared by every viability, are keyed on (entry id, cell id).
    """

    def __init__(self, setup: _Setup, init_viab: tuple[Entries, ...]):
        self.setup = setup
        self.n_cand = n_cand = len(setup.candidates)
        pairs = range(len(init_viab))
        self.pair_ids: list[dict[Entries, int]] = [{e: 0} for e in init_viab]
        self.pair_entries: list[list[Entries]] = [[e] for e in init_viab]
        self.cell_ids: list[list[int]] = [[-1] * n_cand for _ in pairs]
        self.pair_cells: list[dict[tuple, int]] = [{} for _ in pairs]
        self.pair_moves: list[dict[int, int]] = [{} for _ in pairs]
        self.pair_closes: list[dict[int, bool]] = [{} for _ in pairs]
        self.patterns = 3 ** len(init_viab)
        self.ids = {(0,) * len(init_viab): 0}
        self.viabs = list(self.ids)
        self.moves: dict[int, int] = {}
        self.singles = pairs  # candidate i is pair i's singleton

    def pair_move(self, i: int, eid: int, cand_idx: int) -> int:
        """Pair i's entry id after packing candidate cand_idx, or -1."""
        cid = self.cell_ids[i][cand_idx]
        if cid < 0:
            cell = self.setup.cand_static[i][cand_idx] or self.setup.cell(i, cand_idx)
            cells = self.pair_cells[i]
            cid = self.cell_ids[i][cand_idx] = cells.setdefault(cell, len(cells))
        key = eid * self.n_cand + cid
        nxt = self.pair_moves[i].get(key)
        if nxt is None:
            new = _apply_candidate(self.setup, i, self.pair_entries[i][eid], cand_idx)
            nxt = self.pair_ids[i].get(new, -1) if new else -1
            if new and nxt < 0:
                nxt = self.pair_ids[i][new] = len(self.pair_entries[i])
                self.pair_entries[i].append(new)
            self.pair_moves[i][key] = nxt
        return nxt

    def move(self, vid: int, cand_idx: int) -> int:
        out = []
        for i, eid in enumerate(self.viabs[vid]):
            nxt = self.pair_move(i, eid, cand_idx)
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

    def closes(self, i: int, eid: int, pattern: int) -> bool:
        """Whether pair i keeps an entry once every leftover agent goes
        alone: each pair's singleton packed as often as its digit of
        `pattern` says (a candidate packed a third time changes no
        entries).  Pairs move independently, so a viability survives
        exactly when each of its pairs does."""
        key = eid * self.patterns + pattern
        ok = self.pair_closes[i].get(key)
        if ok is None:
            counts = pattern
            for single in self.singles:
                for _ in range(counts % 3):
                    if eid >= 0:
                        eid = self.pair_move(i, eid, single)
                counts //= 3
            ok = self.pair_closes[i][key] = eid >= 0
        return ok


def _search(
    setup: _Setup, init_viab: tuple[Entries, ...]
) -> tuple[list[int], tuple[int, ...]] | None:
    """The non-trivial candidate indices of some full packing and the
    agents it leaves alone per pair, or None if there is none.

    Level r holds the states first met with r non-trivial candidates, each
    one int (its viability id above its residual), closed as it is met:
    its r coalitions plus one per leftover agent must stay within rho1,
    and every pair must keep an entry once those agents go alone.

    Packing commutes, so a state is extended only from the candidate that
    first reached it on.  If Q + k first met S, a child S + k' with k' < k
    is (Q + k') + k, and Q + k' was met before S, so that child was met
    before S is extended: skipping it changes no state and no witness.

    The last level, depth = min(rho1, rho2), is never extended, so its
    children are decided pair by pair, moved and then closed, and not
    interned; the first that closes is the one a search keeping them would
    return, since a child met before did not close then, and closing only
    gets harder as r grows.  `STATES_CAP` bounds the states kept, and on
    its own the last level's live children, those every pair survives.
    """
    budgets = setup.instance.budgets
    depth = min(budgets.rho1, budgets.rho2)
    limit = search_cap(STATES_CAP)
    residuals = setup.classes.residuals
    packing = residuals.packing
    bits, full = packing.bits, packing.full
    mask = (1 << bits) - 1
    viabilities = _Viabilities(setup, init_viab)
    move, moves, n_cand = viabilities.move, viabilities.moves, viabilities.n_cand
    viabs, pair_move, closes = viabilities.viabs, viabilities.pair_move, viabilities.closes
    parent: dict[int, tuple[int, int] | None] = {full: None}

    def too_many() -> SearchSpaceTooLarge:
        return SearchSpaceTooLarge(f"more than {limit} packing states (cap via HDG_SEARCH_CAP)")

    def closing(viab: tuple[int, ...] | list[int], rest: int, r: int) -> bool:
        left, pattern = residuals.left(rest)
        return r + left <= budgets.rho1 and all(
            closes(i, eid, pattern) for i, eid in enumerate(viab)
        )

    def children(state: int) -> list[tuple[int, int]]:
        step = parent[state]
        return residuals.fits(state & mask, step[1] if step else 0)

    def found(state: int, chosen: list[int], rest: int) -> tuple[list[int], tuple[int, ...]]:
        while (step := parent[state]) is not None:
            state, cand_idx = step
            chosen.insert(0, cand_idx)
        return chosen, packing.unpack(rest)

    if closing(viabs[0], full & mask, 0):
        return found(full, [], full & mask)
    frontier = [full] if depth else []
    for r in range(1, depth):
        next_frontier = []
        for state in frontier:
            vid = state >> bits
            base = vid * n_cand
            for cand_idx, rest in children(state):
                nid = moves.get(base + cand_idx)
                if nid is None:
                    nid = move(vid, cand_idx)
                if nid < 0:
                    continue
                new_state = nid << bits | rest
                if new_state in parent:
                    continue
                if len(parent) > limit:
                    raise too_many()
                parent[new_state] = (state, cand_idx)
                if closing(viabs[nid], rest, r):
                    return found(new_state, [], rest)
                next_frontier.append(new_state)
        frontier = next_frontier
    live = 0
    for state in frontier:
        viab = viabs[state >> bits]
        for cand_idx, rest in children(state):
            child = []
            for i, eid in enumerate(viab):
                nxt = pair_move(i, eid, cand_idx)
                if nxt < 0:
                    break
                child.append(nxt)
            else:
                if live > limit:
                    raise too_many()
                live += 1
                if closing(child, rest, depth):
                    return found(state, [cand_idx], rest)
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
        instance, (setup.blocks[i].pair_counts for i in chosen), zip(setup.pairs, left)
    )
    verdict = check_outcome(instance, outcome, notion)
    if not verdict.stable:
        raise SolverDivergence(f"colors-types witness failed: {verdict}")
    return outcome
