"""Reference code for tests only.

* Literal, per-branch forms of the parameterized solvers.  Each solver
  decides its branches implicitly (colors-types defers the branch choice
  into one DP, colors-size prunes supports during its walk, colors-ntcoal
  screens seats and passes over dominated refinements), and all three
  read tiers from one per-solve `TierTable`.  The functions here spell one
  branch out at a time and read every tier straight off its palette with
  `tier_of`, so tests can check the solvers' building blocks against the
  definitions on tiny inputs; colors-ntcoal's guess walk is spelled out
  whole, every guess straight to `max_flow`.
* The agent-level enumeration of budget-respecting partitions, the
  small-n reference for the class-level brute force.
* Source-side deciders and witness decoders of the reductions, the
  agent-by-agent form of the sGASP construction's columns, and an exact
  row check of ILP assignments.

Unlike `oracles.py`, this code shares helpers and types with the solvers.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from hdg.colors_ntcoal import TRIVIAL, Guess, _compositions
from hdg.colors_size import CoalitionType, enumerate_coalition_types
from hdg.core import (
    Instance,
    Palette,
    PreferenceOrder,
    compositions_upto,
    reduce_counts,
    singleton_palette,
)
from hdg.errors import SearchSpaceTooLarge
from hdg.ilp import ILPSystem, feasible
from hdg.maxflow import FlowNetwork, max_flow
from hdg.reductions import SGaspInstance
from hdg.stability import IS, NS, Outcome, deal_outcome

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
    prefs = instance.prefs
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
        tier_of = prefs[t].tier_of
        if a_c >= 1 and tier_of(c1) < tier_of(palette):
            return False
        if pattern.a.get(pair, 0) + a_c > n_ct:
            return False
        w_c = 1 if a_c >= 1 and tier_of(c2) < tier_of(palette) else 0
        if pattern.w.get(pair, 0) + w_c > 1:
            return False
        grown = list(counts)
        grown[c] += 1
        plus = reduce_counts(grown)
        if w_c == 1 and tier_of(plus) >= tier_of(c2):
            continue
        if w_c == 0 and tier_of(plus) >= tier_of(c1):
            continue
        if a_c == n_ct:
            continue
        if notion == IS and any(
            prefs[t2].tier_of(palette) < prefs[t2].tier_of(plus) for t2 in present_types
        ):
            continue
        return False
    return True


def theta_palettes(instance: Instance) -> dict[int, set[Palette]]:
    """Per color, the palettes of every coalition within the size budget
    that holds the color: the worst and second-worst palettes a branch may
    choose for that color's agents."""
    sigma = min(instance.budgets.sigma, instance.n)
    theta: dict[int, set[Palette]] = {c: set() for c in range(instance.gamma)}
    for counts in compositions_upto(instance.class_sizes, sigma):
        p = reduce_counts(counts)
        for c, k in enumerate(counts):
            if k:
                theta[c].add(p)
    return theta


def worst_pair_branches(instance: Instance) -> Iterator[WorstPair]:
    """All branched worst/second-worst palette choices, one palette per
    tier, worst tiers first; the worst never below going alone."""
    theta = theta_palettes(instance)
    pairs = instance.present_pairs
    per_pair: list[list[tuple[Palette, Palette]]] = []
    for c, t in pairs:
        tier_of = instance.prefs[t].tier_of
        reps: dict[int, Palette] = {}
        for p in sorted(theta[c]):
            reps.setdefault(tier_of(p), p)
        alone = tier_of(singleton_palette(c, instance.gamma))
        worst_first = sorted(reps, reverse=True)
        per_pair.append(
            [
                (reps[t1], reps[t2])
                for t1 in worst_first
                if t1 <= alone
                for t2 in worst_first
                if t2 <= t1
            ]
        )

    total = 1
    for options in per_pair:
        total *= max(len(options), 1)
        if total > BRANCH_CAP:
            raise SearchSpaceTooLarge(f"{total}+ worst-pair branches")

    def rec(i: int, acc: dict):
        if i == len(pairs):
            yield WorstPair(dict(acc))
            return
        for c1, c2 in per_pair[i]:
            acc[pairs[i]] = (c1, c2)
            yield from rec(i + 1, acc)
        acc.pop(pairs[i], None)

    yield from rec(0, {})


def branch_reaches_target(
    instance: Instance, worst_pairs: WorstPair, notion: str
) -> bool:
    """Pattern DP for one explicit branch: is a full packing realizable?"""
    pairs = instance.present_pairs
    n_vec = tuple(instance.n_ct[p] for p in pairs)
    candidates = list(compositions_upto(n_vec, min(instance.budgets.sigma, instance.n)))
    realized = {((0,) * len(pairs), (0,) * len(pairs), 0, 0)}
    frontier = deque(realized)
    while frontier:
        a, w, r, l = frontier.popleft()
        pattern = Pattern(dict(zip(pairs, a)), dict(zip(pairs, w)), r, l)
        for vec in candidates:
            candidate = {pair: k for pair, k in zip(pairs, vec) if k >= 1}
            if not coalition_compatible(candidate, pattern, worst_pairs, instance, notion):
                continue
            counts = [0] * instance.gamma
            for (c, _), k in candidate.items():
                counts[c] += k
            pal = reduce_counts(counts)
            new_w = list(w)
            for i, (c, t) in enumerate(pairs):
                tier_of = instance.prefs[t].tier_of
                if vec[i] >= 1 and tier_of(worst_pairs.second_worst(pairs[i])) < tier_of(pal):
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


def candidate_rows(instance: Instance, notion: str) -> list[list[tuple[bool, int, int, bool]]]:
    """colors-types' static data, eagerly and straight from `tier_of`.

    One row per candidate (count vectors over the present pairs within the
    size budget, in `compositions_upto` order), one entry per pair: whether
    the pair is in the candidate, the tier of its palette and of its
    palette once one more agent of the pair joins, and whether that agent
    may not join: the candidate holds every agent of the pair or, under
    IS, some member type prefers the candidate as it is.
    """
    prefs, gamma = instance.prefs, instance.gamma
    pairs = instance.present_pairs
    n_vec = tuple(instance.n_ct[p] for p in pairs)
    rows = []
    for vec in compositions_upto(n_vec, min(instance.budgets.sigma, instance.n)):
        counts = [0] * gamma
        for (c, _), k in zip(pairs, vec):
            counts[c] += k
        palette = reduce_counts(counts)
        members = {t for (_, t), k in zip(pairs, vec) if k}
        row = []
        for i, (c, t) in enumerate(pairs):
            grown = list(counts)
            grown[c] += 1
            plus = reduce_counts(grown)
            refused = vec[i] == n_vec[i] or (
                notion == IS
                and any(prefs[t2].tier_of(palette) < prefs[t2].tier_of(plus) for t2 in members)
            )
            row.append((vec[i] >= 1, prefs[t].tier_of(palette), prefs[t].tier_of(plus), refused))
        rows.append(row)
    return rows


def solve_colors_types_branchwise(instance: Instance, notion: str) -> bool:
    """Literal algorithm: one pattern DP per branch.  YES/NO only."""
    return any(
        branch_reaches_target(instance, branch, notion)
        for branch in worst_pair_branches(instance)
    )


# --------------------------------------------------------------------------
# colors-size: explicit multiplicity branches.
# --------------------------------------------------------------------------

TWO_PLUS = 2  # multiplicity class "at least two"


@dataclass(frozen=True)
class Branch:
    """Multiplicity class (0, 1 or at-least-2) per coalition type."""

    pi: Mapping[CoalitionType, int]

    def realized(self) -> list[CoalitionType]:
        return [t for t, k in self.pi.items() if k >= 1]


def deviation_free(
    prefs: Mapping[int, PreferenceOrder],
    gamma: int,
    source: CoalitionType,
    target: CoalitionType | None,
    notion: str,
) -> bool:
    """No member of `source` wants to move to `target` (None = go alone),
    read straight off each palette with `tier_of`."""

    def color_counts(ctype: CoalitionType) -> list[int]:
        counts = [0] * gamma
        for (c, _), k in ctype.pair_counts:
            counts[c] += k
        return counts

    src_palette = reduce_counts(color_counts(source))
    for (c, t), _ in source.pair_counts:
        if target is None:
            lure = singleton_palette(c, gamma)
        else:
            grown = color_counts(target)
            grown[c] += 1
            lure = reduce_counts(grown)
        if prefs[t].tier_of(lure) >= prefs[t].tier_of(src_palette):
            continue
        if notion == IS and target is not None:
            base = reduce_counts(color_counts(target))
            if any(
                prefs[t2].tier_of(base) < prefs[t2].tier_of(lure)
                for (_, t2), _ in target.pair_counts
            ):
                continue  # some member of the target vetoes the join
        return False
    return True


def branch_is_stable(instance: Instance, branch: Branch, notion: str) -> bool:
    """Whether every outcome respecting the branch is stable.

    Checks every (color, type) member of every realized coalition type
    against every other realized type, against a second copy of its own
    type when that type occurs at least twice, and against going alone.
    """
    prefs, gamma = instance.prefs, instance.gamma
    realized = branch.realized()
    for src in realized:
        if not deviation_free(prefs, gamma, src, None, notion):
            return False
        for dst in realized:
            if dst == src and branch.pi[dst] != TWO_PLUS:
                continue
            if not deviation_free(prefs, gamma, src, dst, notion):
                return False
    return True


def some_branch_is_feasible(instance: Instance, notion: str) -> bool:
    """Whether some stable (support, marking) branch has an integer solution.

    colors-size without its pruning: every set of distinct realizable types
    that fits the instance with one copy each, every {one, at-least-two}
    marking of it that `branch_is_stable` accepts, and one feasibility
    system per branch with rows built from `CoalitionType.count`.  An
    over-committed branch has a negative right-hand side, which
    `ilp.feasible` rejects.
    """
    pairs = instance.present_pairs
    b = instance.budgets
    types = enumerate_coalition_types(instance)

    def supports(start: int, chosen: list[CoalitionType], left: list[int]):
        if chosen:
            yield list(chosen)
        for i in range(start, len(types)):
            use = [types[i].count(p) for p in pairs]
            if all(u <= r for u, r in zip(use, left)):
                chosen.append(types[i])
                yield from supports(i + 1, chosen, [r - u for r, u in zip(left, use)])
                chosen.pop()

    for support in supports(0, [], [instance.n_ct[p] for p in pairs]):
        for marking in itertools.product((1, TWO_PLUS), repeat=len(support)):
            if not branch_is_stable(instance, Branch(dict(zip(support, marking))), notion):
                continue
            twos = [t for t, m in zip(support, marking) if m == TWO_PLUS]
            eqs = tuple(
                (
                    tuple(t.count(p) for t in twos),
                    instance.n_ct[p] - sum(t.count(p) * m for t, m in zip(support, marking)),
                )
                for p in pairs
            )
            nontrivial = [int(t.size >= 2) for t in support]
            les = (
                (tuple(1 for _ in twos), b.rho1 - sum(marking)),
                (
                    tuple(int(t.size >= 2) for t in twos),
                    b.rho2 - sum(m * nt for m, nt in zip(marking, nontrivial)),
                ),
            )
            if feasible(ILPSystem(len(twos), eqs, les)) is not None:
                return True
    return False


# --------------------------------------------------------------------------
# colors-ntcoal: seat validity and the unpruned guess walk.
# --------------------------------------------------------------------------


def _joined(comp: tuple[int, ...], color: int) -> Palette:
    grown = list(comp)
    grown[color] += 1
    return reduce_counts(grown)


def _pair_palette(c1: int, c2: int, gamma: int) -> Palette:
    counts = [0] * gamma
    counts[c1] += 1
    counts[c2] += 1
    return reduce_counts(counts)


def class_valid(
    instance: Instance, color: int, type_id: int, target, guess: Guess, notion: str
) -> bool:
    """May agents of class (color, type_id) sit at target, read straight
    off each deviation's palette with `tier_of`?"""
    gamma = instance.gamma
    tier_of = instance.prefs[type_id].tier_of
    comps = guess.compositions
    if target == TRIVIAL:
        if guess.trivial_counts[color] == 0:
            return False
        own = singleton_palette(color, gamma)
        own_index = None
    else:
        if comps[target][color] == 0:
            return False
        own = reduce_counts(comps[target])
        own_index = target
    own_tier = tier_of(own)

    def accepts(j: int) -> bool:
        return guess.accepted is None or guess.accepted[j][color]

    for j, comp in enumerate(comps):
        if j == own_index:
            continue
        if notion == IS and not accepts(j):
            continue
        if tier_of(_joined(comp, color)) < own_tier:
            return False
    for c2 in range(gamma):
        if guess.trivial_counts[c2] == 0 or c2 == color:
            continue
        if notion == IS and guess.blocked is not None and (c2, color) in guess.blocked:
            continue
        if tier_of(_pair_palette(c2, color, gamma)) < own_tier:
            return False
    if tier_of(singleton_palette(color, gamma)) < own_tier:
        return False
    if target == TRIVIAL and notion == IS and guess.blocked is not None:
        for c_from, c_to in guess.blocked:
            if c_from == color and own_tier >= tier_of(_pair_palette(color, c_to, gamma)):
                return False
    return True


def is_valid_for(
    agent: int, target, guess: Guess, instance: Instance, notion: str
) -> bool:
    """May this agent occupy the given coalition (or a trivial one)?"""
    return class_valid(
        instance, instance.colors[agent], instance.types[agent], target, guess, notion
    )


def ntcoal_is_refinements(
    instance: Instance, comps: tuple[tuple[int, ...], ...], trivial_counts: tuple[int, ...]
) -> Iterator[Guess]:
    """Every accept/blocked/blocker refinement of one composition guess, in
    the solver's order: refused accept flags by subset size (each with a
    member class objecting to the join), then blocker covers, then blocked
    subsets."""
    gamma, prefs = instance.gamma, instance.prefs
    types_of_color: dict[int, list[int]] = {}
    for (c, t) in instance.present_pairs:
        types_of_color.setdefault(c, []).append(t)

    def seats(color: int) -> list[Palette]:
        return [singleton_palette(color, gamma)] + [
            reduce_counts(comp) for comp in comps if comp[color] > 0
        ]

    def lures_someone(lure: Palette, color: int) -> bool:
        return any(
            prefs[t].tier_of(lure) < prefs[t].tier_of(seat)
            for t in types_of_color[color]
            for seat in seats(color)
        )

    relevant_accept = []
    objectors = {}
    for j, comp in enumerate(comps):
        for c in range(gamma):
            if types_of_color.get(c) and lures_someone(_joined(comp, c), c):
                relevant_accept.append((j, c))
                objectors[(j, c)] = [
                    (c2, t2)
                    for c2 in range(gamma)
                    if comp[c2] > 0
                    for t2 in types_of_color.get(c2, [])
                    if prefs[t2].tier_of(reduce_counts(comp))
                    < prefs[t2].tier_of(_joined(comp, c))
                ]
    relevant_blocked = [
        (c_from, c_to)
        for c_from in range(gamma)
        if trivial_counts[c_from] > 0
        for c_to in range(gamma)
        if c_to != c_from
        and types_of_color.get(c_to)
        and lures_someone(_pair_palette(c_from, c_to, gamma), c_to)
    ]

    def subsets(items):
        for r in range(len(items) + 1):
            yield from itertools.combinations(items, r)

    for refused in subsets(relevant_accept):
        if any(not objectors[key] for key in refused):
            continue
        accepted = tuple(
            tuple((j, c) not in refused for c in range(gamma)) for j in range(len(comps))
        )
        cover_choices = []
        for j in range(len(comps)):
            colors_here = [c for (jj, c) in refused if jj == j]
            covers = {
                frozenset(pick)
                for pick in itertools.product(*(objectors[(j, c)] for c in colors_here))
            }
            cover_choices.append(sorted(covers, key=sorted))
        for cover_pick in itertools.product(*cover_choices):
            blockers = tuple(
                (klass, j) for j, classes in enumerate(cover_pick) for klass in sorted(classes)
            )
            for blocked in subsets(relevant_blocked):
                yield Guess(comps, trivial_counts, accepted, frozenset(blocked), blockers)


def ntcoal_flow(instance: Instance, guess: Guess, notion: str) -> Outcome | None:
    """The guess's class-to-seat network, straight to `max_flow`."""
    slots, caps = [], []
    for j, comp in enumerate(guess.compositions):
        for c, k in enumerate(comp):
            if k > 0:
                slots.append((j, c))
                caps.append(k)
    for c, k in enumerate(guess.trivial_counts):
        if k > 0:
            slots.append((TRIVIAL, c))
            caps.append(k)
    rows = instance.present_pairs
    supplies = [instance.n_ct[pair] for pair in rows]
    for pair, j in guess.blockers:
        if not class_valid(instance, *pair, j, guess, notion):
            return None
        r, s = rows.index(pair), slots.index((j, pair[0]))
        supplies[r] -= 1
        caps[s] -= 1
        if supplies[r] < 0 or caps[s] < 0:
            return None
    edges = frozenset(
        (r, s)
        for r, (color, t) in enumerate(rows)
        for s, (target, c) in enumerate(slots)
        if c == color and class_valid(instance, color, t, target, guess, notion)
    )
    value, flow = max_flow(FlowNetwork(tuple(supplies), tuple(caps), edges))
    if value != sum(supplies):
        return None
    members: list[dict] = [{} for _ in guess.compositions]
    singles = []
    for pair, j in guess.blockers:
        members[j][pair] = members[j].get(pair, 0) + 1
    for (r, s), amount in flow.items():
        target = slots[s][0]
        if target == TRIVIAL:
            singles.extend([(rows[r], 1)] for _ in range(amount))
        else:
            members[target][rows[r]] = members[target].get(rows[r], 0) + amount
    return deal_outcome(instance, [sorted(m.items()) for m in members] + singles)


def ntcoal_walk(instance: Instance, notion: str) -> tuple[Outcome | None, int]:
    """colors-ntcoal without screens or dominance: every guess in the
    solver's order goes to `max_flow`.  Returns the first saturating
    guess's outcome and the number of guesses generated up to it."""
    budgets, sizes = instance.budgets, instance.class_sizes
    comps_all = _compositions(instance)
    examined = 0
    for d in range(min(budgets.rho2, budgets.rho1, instance.n // 2) + 1):
        for comps in itertools.combinations_with_replacement(comps_all, d):
            used = [sum(comp[c] for comp in comps) for c in range(instance.gamma)]
            if any(u > s for u, s in zip(used, sizes)):
                continue
            trivial_counts = tuple(s - u for s, u in zip(sizes, used))
            if d + sum(trivial_counts) > budgets.rho1:
                continue
            if notion == NS:
                guesses: Iterable[Guess] = [Guess(comps, trivial_counts)]
            else:
                guesses = ntcoal_is_refinements(instance, comps, trivial_counts)
            for guess in guesses:
                examined += 1
                outcome = ntcoal_flow(instance, guess, notion)
                if outcome is not None:
                    return outcome, examined
    return None, examined


# --------------------------------------------------------------------------
# Agent-level partitions: the small-n reference of the class-level brute force.
# --------------------------------------------------------------------------


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


# --------------------------------------------------------------------------
# Reductions: source-side deciders and witness decoders.
# --------------------------------------------------------------------------


def x3c_solvable(universe: Sequence[int], family: Sequence[Iterable[int]]) -> bool:
    """Exhaustive exact-cover search."""
    triples = [frozenset(x) for x in family]
    want = frozenset(universe)

    def rec(covered: frozenset, start: int) -> bool:
        if covered == want:
            return True
        for i in range(start, len(triples)):
            if triples[i] & covered:
                continue
            if rec(covered | triples[i], i + 1):
                return True
        return False

    return rec(frozenset(), 0)


def decode_x3c(instance: Instance, outcome: Outcome) -> list[tuple[int, ...]]:
    """Triples housed with a green agent, read back from agent ids."""
    cover = []
    for block in outcome.coalitions:
        ids = sorted(instance.agent_ids[a] for a in block)
        if any(i.startswith("g") for i in ids):
            cover.append(tuple(sorted(int(i[1:]) for i in ids if i.startswith("u"))))
    return sorted(cover)


def partition_solvable(values: Sequence[int]) -> bool:
    total = sum(values)
    if total % 2 != 0:
        return False
    target = total // 2
    values = list(values)

    def rec(i: int, acc: int) -> bool:
        if acc == target:
            return True
        if i == len(values) or acc > target:
            return False
        return rec(i + 1, acc + values[i]) or rec(i + 1, acc)

    return rec(0, 0)


def decode_partition(instance: Instance, outcome: Outcome) -> list[list[int]]:
    """Value multisets of the coalitions holding value agents."""
    halves = []
    for block in outcome.coalitions:
        vals = sorted(
            int(instance.agent_ids[a].split(".")[0][1:])
            for a in block
            if instance.agent_ids[a].startswith("v")
        )
        if vals:
            halves.append(vals)
    return sorted(halves)


def mss_solvable(sets, target) -> bool:
    k = len(target)
    for pick in itertools.product(*(list(group) + [None] for group in sets)):
        sums = [0] * k
        for vec in pick:
            if vec is None:
                continue
            for j in range(k):
                sums[j] += vec[j]
        if sums == list(target):
            return True
    return False


def decode_mss(instance: Instance, outcome: Outcome) -> dict[int, tuple[int, ...]]:
    """Chosen vector per marker, read off the marker coalitions."""
    omega = sum(1 for name in instance.agent_ids if name.startswith("m"))
    width = instance.gamma - omega
    chosen = {}
    for block in outcome.coalitions:
        markers = [a for a in block if instance.agent_ids[a].startswith("m")]
        if len(markers) != 1 or len(block) == 1:
            continue
        i = int(instance.agent_ids[markers[0]][1:])
        axes: dict[int, int] = {}
        for a in block:
            name = instance.agent_ids[a]
            if name.startswith("n"):
                j = int(name.split(".")[0][1:])
                axes[j] = axes.get(j, 0) + 1
        chosen[i] = tuple(axes.get(j, 0) for j in range(width))
    return chosen


def independent_set_solvable(num_vertices: int, edges, k: int) -> bool:
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    for combo in itertools.combinations(range(num_vertices), k):
        if not any(
            (min(u, v), max(u, v)) in edge_set
            for u, v in itertools.combinations(combo, 2)
        ):
            return True
    return False


def decode_independent_set(instance: Instance, outcome: Outcome) -> tuple[int, ...]:
    for block in outcome.coalitions:
        ids = [instance.agent_ids[a] for a in block]
        if "G" in ids and len(ids) > 1:
            return tuple(sorted(int(i[1:]) for i in ids if i.startswith("x")))
    return ()


def sgasp_solvable(sgasp: SGaspInstance, cap: int = 2_000_000) -> bool:
    """Brute-force decider; groups interchangeable participants.

    Enumerates how many participants of each approval class go to each
    activity (everyone must be assigned somewhere).
    """
    classes: dict[frozenset, int] = {}
    for p in sgasp.participants:
        classes[sgasp.approvals.get(p, frozenset())] = (
            classes.get(sgasp.approvals.get(p, frozenset()), 0) + 1
        )
    acts = list(sgasp.activities)
    class_list = list(classes.items())

    def splits(count: int, bins: int):
        if bins == 1:
            yield (count,)
            return
        for head in range(count + 1):
            for rest in splits(count - head, bins - 1):
                yield (head,) + rest

    work = 1
    for _, count in class_list:
        ways = 1
        for i in range(len(acts) - 1):
            ways = ways * (count + i + 1) // (i + 1)
        work *= max(ways, 1)
        if work > cap:
            raise SearchSpaceTooLarge(f"sGASP brute force needs {work} > {cap} branches")

    for layout in itertools.product(
        *(list(splits(count, len(acts))) for _, count in class_list)
    ):
        sizes = [0] * len(acts)
        for split in layout:
            for i, x in enumerate(split):
                sizes[i] += x
        ok = True
        for (approval, _), split in zip(class_list, layout):
            for i, x in enumerate(split):
                if x > 0 and (acts[i], sizes[i]) not in approval:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def sgasp_agent_columns(sgasp: SGaspInstance) -> tuple[list[int], list[int], list[str]]:
    """Colors, types and ids of `from_sgasp` on a normalized instance, one
    agent at a time.

    Blue participants come first, with one type per distinct approval set
    in order of first use; then z_i = 100 i + 1 red markers per activity,
    one type each; then the red spoilers, one more type.
    """
    red, blue = 0, 1
    colors: list[int] = []
    types: list[int] = []
    ids: list[str] = []
    type_of: dict[frozenset, int] = {}
    for p in sgasp.participants:
        t = type_of.setdefault(sgasp.approvals.get(p, frozenset()), len(type_of))
        colors.append(blue)
        types.append(t)
        ids.append(f"p:{p}")
    num_a = len(sgasp.activities)
    for i in range(1, num_a + 1):
        for x in range(100 * i + 1):
            colors.append(red)
            types.append(len(type_of) + i - 1)
            ids.append(f"m{i}.{x}")
    for x in range(400 * num_a**2 * 200 * num_a**2 + 1):
        colors.append(red)
        types.append(len(type_of) + num_a)
        ids.append(f"s{x}")
    return colors, types, ids


# --------------------------------------------------------------------------
# ILP: exact row check of an assignment.
# --------------------------------------------------------------------------


def evaluate(system: ILPSystem, assignment: dict[int, int]) -> bool:
    """Re-check an assignment against every row exactly."""
    xs = [assignment.get(i, 0) for i in range(system.num_vars)]
    if any(x < 0 for x in xs):
        return False
    for coeffs, rhs in system.equalities:
        if sum(c * x for c, x in zip(coeffs, xs)) != rhs:
            return False
    for coeffs, rhs in system.inequalities_le:
        if sum(c * x for c, x in zip(coeffs, xs)) > rhs:
            return False
    return True
