"""Solver for bounded color count plus bounded non-trivial coalition count.

Guess the number of non-trivial coalitions and each one's per-color
composition; the leftover agents of each color sit in trivial coalitions.
An agent may occupy a slot only when it weakly prefers that coalition's
palette over joining any other guessed coalition (or going alone), and
that depends only on its (color, type) class, so a saturating flow of the
classes (supplies n_ct) onto the (coalition, color) slots is exactly a
stable outcome, found by maximum flow on a network whose size does not
depend on n.

Individual stability additionally guesses, per coalition and color,
whether joiners of that color would be accepted, with a blocking member
class certifying each refusal, and per color pair whether some trivial
coalition would accept the second color.  Agents of one (color, type)
class are interchangeable, so a blocker is a demand for one agent of its
class in its coalition, and accept/blocked guesses that can never affect
any agent's validity are fixed to their permissive value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .core import Instance, Palette, compositions_upto, reduce_counts, singleton_palette
from .errors import SearchSpaceTooLarge, SolverDivergence, search_cap
from .maxflow import FlowNetwork, max_flow
from .stability import IS, NS, Outcome, check_outcome, deal_outcome

GUESS_CAP = 500_000

TRIVIAL = "trivial"


@dataclass(frozen=True)
class Guess:
    """One branch: d non-trivial compositions plus per-color trivial counts.

    The three optional fields exist only for individual stability:
    accepted[j][c] says coalition j would accept color-c joiners, blocked
    holds (c, c') pairs where no trivial c-coalition accepts color c', and
    blockers demands one agent of a (color, type) class in each coalition
    that class refuses joiners for.
    """

    compositions: tuple[tuple[int, ...], ...]
    trivial_counts: tuple[int, ...]
    accepted: tuple[tuple[bool, ...], ...] | None = None
    blocked: frozenset[tuple[int, int]] | None = None
    blockers: tuple[tuple[tuple[int, int], int], ...] = ()  # ((color, type), coalition index)


def _joined(comp: tuple[int, ...], color: int) -> Palette:
    grown = list(comp)
    grown[color] += 1
    return reduce_counts(grown)


def _pair_palette(c1: int, c2: int, gamma: int) -> Palette:
    counts = [0] * gamma
    counts[c1] += 1
    counts[c2] += 1
    return reduce_counts(counts)


def _class_valid(
    instance: Instance,
    color: int,
    type_id: int,
    target,  # coalition index or TRIVIAL
    guess: Guess,
    notion: str,
) -> bool:
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
        if (
            notion == IS
            and guess.blocked is not None
            and (c2, color) in guess.blocked
        ):
            continue
        if tier_of(_pair_palette(c2, color, gamma)) < own_tier:
            return False
    # Joining a same-color singleton or going alone both yield the
    # singleton palette, covered by one check.
    if tier_of(singleton_palette(color, gamma)) < own_tier:
        return False
    if target == TRIVIAL and notion == IS and guess.blocked is not None:
        for c_from, c_to in guess.blocked:
            if c_from == color and own_tier >= tier_of(_pair_palette(color, c_to, gamma)):
                return False
    return True


def _compositions(instance: Instance) -> list[tuple[int, ...]]:
    sigma = min(instance.budgets.sigma, instance.n)
    limit = search_cap(GUESS_CAP)
    out = []
    for c in compositions_upto(instance.class_sizes, sigma, min_size=2):
        out.append(c)
        if len(out) > limit:
            raise SearchSpaceTooLarge(
                f"more than {limit} coalition compositions (cap via HDG_SEARCH_CAP)"
            )
    return sorted(out)


def _try_flow(instance: Instance, guess: Guess, notion: str) -> Outcome | None:
    """Transportation network of classes onto slots; an outcome on saturation.

    Rows are the instance's (color, type) classes with supply n_ct, slots
    the (coalition, color) and (trivial, color) seats with their counts.
    Blocker demands are seated first: each takes one agent of its class
    and one seat of its coalition, and fails the guess when the class or
    the seat runs short or the class may not sit there.
    """
    gamma = instance.gamma
    slots: list[tuple] = []
    caps: list[int] = []
    for j, comp in enumerate(guess.compositions):
        for c in range(gamma):
            if comp[c] > 0:
                slots.append((j, c))
                caps.append(comp[c])
    for c in range(gamma):
        if guess.trivial_counts[c] > 0:
            slots.append((TRIVIAL, c))
            caps.append(guess.trivial_counts[c])
    slot_index = {s: i for i, s in enumerate(slots)}

    class_ok: dict[tuple[int, int, object], bool] = {}

    def valid(color, type_id, target) -> bool:
        key = (color, type_id, target)
        hit = class_ok.get(key)
        if hit is None:
            hit = _class_valid(instance, color, type_id, target, guess, notion)
            class_ok[key] = hit
        return hit

    rows = instance.present_pairs
    row_index = {pair: r for r, pair in enumerate(rows)}
    supplies = [instance.n_ct[pair] for pair in rows]
    for pair, j in guess.blockers:
        if not valid(*pair, j):
            return None  # blocker cannot sit where it blocks
        r, s = row_index[pair], slot_index[(j, pair[0])]
        supplies[r] -= 1
        caps[s] -= 1
        if supplies[r] < 0 or caps[s] < 0:
            return None

    edges = set()
    for r, (color, type_id) in enumerate(rows):
        for s, (target, c) in enumerate(slots):
            if c == color and valid(color, type_id, target):
                edges.add((r, s))
    net = FlowNetwork(tuple(supplies), tuple(caps), frozenset(edges))
    value, flow = max_flow(net)
    if value != sum(supplies):
        return None
    members: list[dict[tuple[int, int], int]] = [{} for _ in guess.compositions]
    singles: list[list[tuple[tuple[int, int], int]]] = []
    for pair, j in guess.blockers:
        members[j][pair] = members[j].get(pair, 0) + 1
    for (r, s), amount in flow.items():
        target = slots[s][0]
        if target == TRIVIAL:
            singles.extend([(rows[r], 1)] for _ in range(amount))
        else:
            members[target][rows[r]] = members[target].get(rows[r], 0) + amount
    return deal_outcome(instance, [sorted(m.items()) for m in members] + singles)


def _is_guesses(
    instance: Instance,
    comps: tuple[tuple[int, ...], ...],
    trivial_counts: tuple[int, ...],
) -> Iterator[Guess]:
    """Accept/blocked/blocker refinements of one composition guess.

    Flags whose restrictive choice cannot change any agent's validity are
    fixed to the permissive one; restrictive accept flags need a member
    class that objects to the join, and each chosen objecting class
    becomes a demand for one of its agents in the coalition.
    """
    gamma, prefs = instance.gamma, instance.prefs
    types_of_color: dict[int, list[int]] = {}
    for (c, t) in instance.present_pairs:
        types_of_color.setdefault(c, []).append(t)

    def seats(color: int) -> list[Palette]:
        out = [singleton_palette(color, gamma)]
        for comp in comps:
            if comp[color] > 0:
                out.append(reduce_counts(comp))
        return out

    # Acceptance flags that could matter: some joiner class strictly
    # gains over one of its potential seats.
    relevant_accept: list[tuple[int, int]] = []
    objectors: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for j, comp in enumerate(comps):
        own = reduce_counts(comp)
        for c in range(gamma):
            if not types_of_color.get(c):
                continue
            lure = _joined(comp, c)
            if not any(
                prefs[t].tier_of(lure) < prefs[t].tier_of(seat)
                for t in types_of_color[c]
                for seat in seats(c)
            ):
                continue
            classes = [
                (c2, t2)
                for c2 in range(gamma)
                if comp[c2] > 0
                for t2 in types_of_color.get(c2, [])
                if prefs[t2].tier_of(own) < prefs[t2].tier_of(lure)
            ]
            relevant_accept.append((j, c))
            objectors[(j, c)] = classes

    relevant_blocked: list[tuple[int, int]] = []
    for c_from in range(gamma):
        if trivial_counts[c_from] == 0:
            continue
        for c_to in range(gamma):
            if c_to == c_from or not types_of_color.get(c_to):
                continue
            lure = _pair_palette(c_from, c_to, gamma)
            if any(
                prefs[t].tier_of(lure) < prefs[t].tier_of(seat)
                for t in types_of_color[c_to]
                for seat in seats(c_to)
            ):
                relevant_blocked.append((c_from, c_to))

    base_accept = [[True] * gamma for _ in comps]

    for refused in _subsets(relevant_accept):
        if any(not objectors[key] for key in refused):
            continue  # refusal needs at least one objecting member class
        accepted = tuple(
            tuple(base_accept[j][c] and (j, c) not in refused for c in range(gamma))
            for j in range(len(comps))
        )
        cover_choices: list[list[frozenset[tuple[int, int]]]] = []
        for j in range(len(comps)):
            colors_here = [c for (jj, c) in refused if jj == j]
            if not colors_here:
                cover_choices.append([frozenset()])
                continue
            covers = {
                frozenset(pick)
                for pick in itertools.product(
                    *(objectors[(j, c)] for c in colors_here)
                )
            }
            cover_choices.append(sorted(covers, key=sorted))
        for cover_pick in itertools.product(*cover_choices):
            blockers = tuple(
                (klass, j)
                for j, classes in enumerate(cover_pick)
                for klass in sorted(classes)
            )
            for blocked in _subsets(relevant_blocked):
                yield Guess(
                    compositions=comps,
                    trivial_counts=trivial_counts,
                    accepted=accepted,
                    blocked=frozenset(blocked),
                    blockers=blockers,
                )


def _subsets(items: list) -> Iterator[tuple]:
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def solve_colors_ntcoal(instance: Instance, notion: str) -> Outcome | None:
    """Some stable budget-respecting outcome, or None if none exists."""
    budgets = instance.budgets
    n = instance.n
    sizes = instance.class_sizes
    limit = search_cap(GUESS_CAP)
    d_max = min(budgets.rho2, budgets.rho1, n // 2)
    comps_all = _compositions(instance)
    examined = 0

    for d in range(0, d_max + 1):
        for comps in itertools.combinations_with_replacement(comps_all, d):
            used = [sum(comp[c] for comp in comps) for c in range(instance.gamma)]
            if any(u > s for u, s in zip(used, sizes)):
                continue
            trivial_counts = tuple(s - u for s, u in zip(sizes, used))
            if d + sum(trivial_counts) > budgets.rho1:
                continue
            if notion == NS:
                guesses: Iterator[Guess] = iter(
                    [Guess(compositions=comps, trivial_counts=trivial_counts)]
                )
            else:
                guesses = _is_guesses(instance, comps, trivial_counts)
            for guess in guesses:
                examined += 1
                if examined > limit:
                    raise SearchSpaceTooLarge(
                        f"more than {limit} guesses (cap via HDG_SEARCH_CAP)"
                    )
                outcome = _try_flow(instance, guess, notion)
                if outcome is not None:
                    verdict = check_outcome(instance, outcome, notion)
                    if not verdict.stable:
                        raise SolverDivergence(
                            f"colors-ntcoal witness failed: {verdict}"
                        )
                    return outcome
    return None
