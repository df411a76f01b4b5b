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
any agent's validity are fixed to their permissive value.  Every seat is
decided by one test, `_seat_ok`, under the flags a guess sets for the
class's color; the screens below rely on its being monotone in them.
One function, `_network`, lays out, screens and solves every
class-to-seat network, a guess's own and the IS family screen's relaxed
ones.  Blocker demands aside, it tests each class at each seat once,
and it keeps no seat test past the network: the refinements of one
composition guess rarely meet the same (class, seat, flags) again.

Most guesses are decided before a network is built, each in the guess
order of the plain walk, so the first saturating guess is the same:

* Tier memo: each (type, palette) tier is read once, on first use, into
  the instance's tier table, which back-to-back calls on one instance
  share; a tier depends on nothing the guess changes.  The composition
  list is built once per instance too, for both notions.
* Seat screen, in `_network`: a row with supply but no valid seat, or a
  seat with room but no valid row, fails the guess; edges stay within a
  color and per color the supplies equal the seats, so a saturating flow
  uses both.
* Composition walk: under both notions, for each d, a depth-first walk
  over the sorted prefixes P of k compositions that fit the class sizes,
  whose leaves (k = d) come in `combinations_with_replacement` order.
* NS cut: with top[c] the most agents of color c in any composition, a
  color c with sizes[c] - used[c] > (d - k) * top[c] keeps lone agents
  in every leaf below P; tau is 1 on those forced lone colors and 0
  elsewhere.  The NS walk cuts P's subtree
  when a forced lone color, or a seat (j, c) of P, has no class that
  `_seat_ok(P, tau)` seats there.  A leaf below P has P's compositions
  and more, and trivial room at least in every forced lone color, so it
  only adds join and pair targets, which never add a valid seat; its
  (trivial, c) seat and P's seat (j, c) still have room, and with no
  valid class the seat screen fails it.  At a leaf tau is the trivial
  counts' support, so the cut is the seat screen's empty-seat test.  The
  all-alone guess (d = 0) goes straight to the flow.
* IS family screen: before the refinements of a composition guess are
  built, one relaxed network tests them all, and then one tests each
  non-empty refused set.  Its seats are those `_seat_ok` accepts under
  every refusable flag of the family, every blockable pair and no blocker
  demands.  A refinement that could saturate has its flags below these,
  so by monotonicity its valid seats lie within the relaxed ones: when
  the relaxed network cannot seat everyone (seat screen, then max-flow),
  no refinement of the family saturates.  Skipped when the composition
  guess has a single refinement.  Composition guesses are not pruned
  under IS.

GUESS_CAP counts, under NS, every node the composition walk visits (the
all-alone guess and every prefix that fits the class sizes, cut or not),
so a walk that cuts every leaf stays bounded; under IS, every refinement
that passes the family screen and reaches the flow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Collection, Iterator

from .core import Instance, TierTable, compositions_upto, shared, tier_table
from .errors import SearchSpaceTooLarge, SolverDivergence, search_cap
from .maxflow import FlowNetwork, max_flow
from .stability import IS, NS, Outcome, check_outcome, deal_outcome

GUESS_CAP = 500_000

TRIVIAL = "trivial"
NO_FLAGS = (0, 0, 0)


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


def _seat_ok(
    tiers: TierTable,
    comps: tuple[tuple[int, ...], ...],
    trivial_counts: tuple[int, ...],
    color: int,
    type_id: int,
    target,  # coalition index or TRIVIAL
    flags: tuple[int, int, int],
) -> bool:
    """May agents of class (color, type_id) sit at target?

    flags = (refused, into, out) are bit sets: the coalitions that refuse
    color-`color` joiners, the colors whose trivial agents refuse this
    color, and the colors this class's trivial agents must refuse; Nash
    stability sets none.  A refused or into bit only waives a deviation and
    an out bit only adds one, so the test is monotone: more refused or into
    bits never remove a valid seat, and more out bits never add one.
    Likewise, more compositions in `comps` or more colors with trivial
    room only add join and pair deviations: while the target keeps its
    composition and room, they never add a valid seat.
    """
    refused, into, out = flags
    if target == TRIVIAL:
        if trivial_counts[color] == 0:
            return False
        own_tier = tiers.single(type_id, color)
    else:
        if comps[target][color] == 0:
            return False
        own_tier = tiers.own(type_id, comps[target])
    # Empty flag sets (always, under NS) skip their bit tests: this is
    # the solver's innermost loop.
    for j, comp in enumerate(comps):
        if j == target or (refused and refused >> j & 1):
            continue
        if tiers.joined(type_id, comp, color) < own_tier:
            return False
    for c2, count in enumerate(trivial_counts):
        if count == 0 or c2 == color or (into and into >> c2 & 1):
            continue
        if tiers.pair(type_id, c2, color) < own_tier:
            return False
    # Joining a same-color singleton or going alone both yield the
    # singleton palette, covered by one check.
    if tiers.single(type_id, color) < own_tier:
        return False
    if out and target == TRIVIAL:
        for c_to in range(len(trivial_counts)):
            if out >> c_to & 1 and own_tier >= tiers.pair(type_id, color, c_to):
                return False
    return True


def _flags(guess: Guess) -> list[tuple[int, int, int]]:
    """The `_seat_ok` flags of each color under the guess's accept flags
    and blocked pairs."""
    gamma = len(guess.trivial_counts)
    refused, into, out = [0] * gamma, [0] * gamma, [0] * gamma
    for j, accepts in enumerate(guess.accepted or ()):
        for c, ok in enumerate(accepts):
            if not ok:
                refused[c] |= 1 << j
    for c_from, c_to in guess.blocked or ():
        into[c_to] |= 1 << c_from
        out[c_from] |= 1 << c_to
    return list(zip(refused, into, out))


def _compositions(instance: Instance) -> list[tuple[int, ...]]:
    """The color-count vectors of 2..sigma agents the instance can form, in
    `compositions_upto`'s lexicographic order, built once per instance and
    kept in its `core.shared` parts; the composition guard is checked on
    every call."""
    limit = search_cap(GUESS_CAP)
    parts = shared(instance).parts
    out = parts.get("colors_ntcoal")
    if out is None:
        sigma = min(instance.budgets.sigma, instance.n)
        vectors = compositions_upto(instance.class_sizes, sigma, min_size=2)
        out = list(itertools.islice(vectors, limit + 1))
        if len(out) <= limit:
            parts["colors_ntcoal"] = out
    if len(out) > limit:
        raise SearchSpaceTooLarge(
            f"more than {limit} coalition compositions (cap via HDG_SEARCH_CAP)"
        )
    return out


def _network(
    instance: Instance,
    tiers: TierTable,
    comps: tuple[tuple[int, ...], ...],
    trivial_counts: tuple[int, ...],
    flags: list[tuple[int, int, int]],
    blockers: tuple[tuple[tuple[int, int], int], ...] = (),
) -> list[tuple[tuple[int, int], object, int]] | None:
    """The class-to-seat network of a guess: its flow, as (class, target,
    agents) triples, when it seats every agent, else None.

    Rows are the instance's (color, type) classes with supply n_ct, slots
    the seats with room, and a class may sit where `_seat_ok` accepts it
    under its color's `flags`.  Blocker demands are seated first: each
    takes one agent of its class and one seat of its coalition, and fails
    the guess when the class or the seat runs short or the class may not
    sit there.  Then the seat screen, then `max_flow`.
    """
    slots = [(j, c) for j, comp in enumerate(comps) for c, room in enumerate(comp) if room]
    slots += [(TRIVIAL, c) for c, room in enumerate(trivial_counts) if room]
    caps = [trivial_counts[c] if j == TRIVIAL else comps[j][c] for j, c in slots]
    rows = instance.present_pairs
    supplies = [instance.n_ct[pair] for pair in rows]
    for (color, type_id), j in blockers:
        if not _seat_ok(tiers, comps, trivial_counts, color, type_id, j, flags[color]):
            return None  # blocker cannot sit where it blocks
        r, s = rows.index((color, type_id)), slots.index((j, color))
        supplies[r] -= 1
        caps[s] -= 1
        if supplies[r] < 0 or caps[s] < 0:
            return None

    edges = set()
    filled = [cap == 0 for cap in caps]
    for r, (color, type_id) in enumerate(rows):
        seated, row_flags = supplies[r] == 0, flags[color]
        for s, (target, c) in enumerate(slots):
            if c == color and _seat_ok(
                tiers, comps, trivial_counts, color, type_id, target, row_flags
            ):
                edges.add((r, s))
                if supplies[r] and caps[s]:
                    seated = filled[s] = True
        if not seated:
            return None
    if not all(filled):
        return None
    value, flow = max_flow(FlowNetwork(tuple(supplies), tuple(caps), frozenset(edges)))
    if value != sum(supplies):
        return None
    return [(rows[r], slots[s][0], amount) for (r, s), amount in flow.items()]


def _try_flow(instance: Instance, guess: Guess, notion: str, tiers: TierTable) -> Outcome | None:
    """The guess's `_network` under its flags (none under NS), dealt out
    as an outcome when it saturates; each blocker demand joins its
    coalition."""
    comps = guess.compositions
    flags = _flags(guess) if notion == IS else [NO_FLAGS] * instance.gamma
    seated = _network(instance, tiers, comps, guess.trivial_counts, flags, guess.blockers)
    if seated is None:
        return None
    members: list[dict[tuple[int, int], int]] = [{} for _ in comps]
    singles: list[tuple[tuple[int, int], int]] = []
    for pair, j in guess.blockers:
        members[j][pair] = members[j].get(pair, 0) + 1
    for pair, target, amount in seated:
        if target == TRIVIAL:
            singles.append((pair, amount))
        else:
            members[target][pair] = members[target].get(pair, 0) + amount
    return deal_outcome(instance, [sorted(m.items()) for m in members], singles)


def _relaxed_saturates(
    instance: Instance,
    tiers: TierTable,
    comps: tuple[tuple[int, ...], ...],
    trivial_counts: tuple[int, ...],
    refusable: Collection[tuple[int, int]],
    into: list[int],
) -> bool:
    """Can a refinement refusing only (coalition, color) flags in
    `refusable` saturate?  No, when the `_network` of the seats `_seat_ok`
    accepts under those refusals, the `into` bits and no out bits does not
    saturate: such a refinement that could saturate has its flags below
    these, so by monotonicity its valid seats lie within them, and its
    blockers only take supply and room from them."""
    refused = [0] * instance.gamma
    for j, c in refusable:
        refused[c] |= 1 << j
    flags = [(refused[c], into[c], 0) for c in range(instance.gamma)]
    return _network(instance, tiers, comps, trivial_counts, flags) is not None


def _is_guesses(
    instance: Instance,
    tiers: TierTable,
    types_of_color: dict[int, list[int]],
    comps: tuple[tuple[int, ...], ...],
    trivial_counts: tuple[int, ...],
) -> Iterator[Guess]:
    """Accept/blocked/blocker refinements of one composition guess.

    Flags whose restrictive choice cannot change any agent's validity are
    fixed to the permissive one; restrictive accept flags need a member
    class that objects to the join, and each chosen objecting class
    becomes a demand for one of its agents in the coalition.  Only
    refinements that could be the first to saturate are yielded: none of
    a family whose relaxed network (see `_relaxed_saturates`) does not
    saturate, first for the whole composition guess and then for each
    non-empty refused set.
    """
    gamma = instance.gamma

    def seat_tiers(t: int, color: int) -> list[int]:
        out = [tiers.single(t, color)]
        for comp in comps:
            if comp[color] > 0:
                out.append(tiers.own(t, comp))
        return out

    # Acceptance flags that could matter: some joiner class strictly
    # gains over one of its potential seats.  A refusal needs at least one
    # objecting member class.
    refusable: list[tuple[int, int]] = []
    objectors: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for j, comp in enumerate(comps):
        for c in range(gamma):
            if not types_of_color.get(c):
                continue
            if not any(
                tiers.joined(t, comp, c) < seat
                for t in types_of_color[c]
                for seat in seat_tiers(t, c)
            ):
                continue
            classes = [
                (c2, t2)
                for c2 in range(gamma)
                if comp[c2] > 0
                for t2 in types_of_color.get(c2, [])
                if tiers.own(t2, comp) < tiers.joined(t2, comp, c)
            ]
            if classes:
                refusable.append((j, c))
                objectors[(j, c)] = classes

    relevant_blocked: list[tuple[int, int]] = []
    for c_from in range(gamma):
        if trivial_counts[c_from] == 0:
            continue
        for c_to in range(gamma):
            if c_to == c_from or not types_of_color.get(c_to):
                continue
            if any(
                tiers.pair(t, c_from, c_to) < seat
                for t in types_of_color[c_to]
                for seat in seat_tiers(t, c_to)
            ):
                relevant_blocked.append((c_from, c_to))

    def cover_choices(refused) -> list[list[frozenset[tuple[int, int]]]]:
        out = []
        for j in range(len(comps)):
            picks = itertools.product(*(objectors[key] for key in refused if key[0] == j))
            out.append(sorted({frozenset(pick) for pick in picks}, key=sorted))
        return out

    if not (refusable or relevant_blocked):
        # The one refinement goes to the flow as it is.
        accept_all = tuple((True,) * gamma for _ in comps)
        yield Guess(comps, trivial_counts, accept_all, frozenset())
        return

    # The relaxed into bits: a blocked pair can be part of a saturating
    # refinement only when some trivial agent of its first color refuses
    # the second, or its out bit leaves those trivial seats no valid class.
    into = [0] * gamma
    for c_from, c_to in relevant_blocked:
        if any(
            tiers.single(t, c_from) < tiers.pair(t, c_from, c_to)
            for t in types_of_color[c_from]
        ):
            into[c_to] |= 1 << c_from
    if not _relaxed_saturates(instance, tiers, comps, trivial_counts, refusable, into):
        return

    for refused in _subsets(refusable):
        if refused and not _relaxed_saturates(
            instance, tiers, comps, trivial_counts, refused, into
        ):
            continue
        accepted = tuple(
            tuple((j, c) not in refused for c in range(gamma))
            for j in range(len(comps))
        )
        for cover_pick in itertools.product(*cover_choices(refused)):
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


def _types_of_color(instance: Instance) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for c, t in instance.present_pairs:
        out.setdefault(c, []).append(t)
    return out


def _can_stay(
    tiers: TierTable,
    types_of_color: dict[int, list[int]],
    comps: tuple[tuple[int, ...], ...],
    lone: tuple[int, ...],
) -> bool:
    """Does every forced lone color and every seat of `comps` keep a class
    that `_seat_ok` seats, with `lone` as the trivial counts?  Equal
    compositions lie next to each other and have equal seats."""
    for c, forced in enumerate(lone):
        if forced:
            for t in types_of_color[c]:
                if _seat_ok(tiers, comps, lone, c, t, TRIVIAL, NO_FLAGS):
                    break
            else:
                return False
    for j, comp in enumerate(comps):
        if j and comp is comps[j - 1]:
            continue
        for c, room in enumerate(comp):
            if room:
                for t in types_of_color[c]:
                    if _seat_ok(tiers, comps, lone, c, t, j, NO_FLAGS):
                        break
                else:
                    return False
    return True


def _composition_walk(
    instance: Instance,
    comps_all: list[tuple[int, ...]],
    d_max: int,
    keep: Callable[[tuple[tuple[int, ...], ...], tuple[int, ...], int], bool],
) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]]:
    """Every (compositions, trivial counts) guess that fits the class sizes
    and rho1, for d = 0..d_max, each d's in `combinations_with_replacement`
    order: a depth-first walk over the sorted prefixes of d compositions
    that fit the class sizes.  `keep(prefix, agents left per color, d -
    len(prefix))` sees every node of it, before a leaf's rho1 test, and
    cuts the subtree of each node it refuses."""
    sizes, rho1 = instance.class_sizes, instance.budgets.rho1
    last = len(comps_all)
    for d in range(d_max + 1):
        stack = [((), sizes, 0)]  # (prefix, agents left per color, first index)
        while stack:
            comps, left, first = stack.pop()
            rem = d - len(comps)
            if not keep(comps, left, rem) or not rem and d + sum(left) > rho1:
                continue
            if not rem:
                yield comps, left
                continue
            children = []
            for i in range(first, last):
                comp = comps_all[i]
                rest = tuple([k - u for k, u in zip(left, comp)])
                if min(rest) >= 0:
                    children.append((comps + (comp,), rest, i))
            stack.extend(reversed(children))


def _ns_guesses(
    instance: Instance,
    tiers: TierTable,
    comps_all: list[tuple[int, ...]],
    d_max: int,
    limit: int,
) -> Iterator[Guess]:
    """The NS guesses that may saturate, in the plain walk's order: the
    composition walk, cutting every prefix `_can_stay` rejects.  Each node
    it visits counts towards `limit`."""
    examined = 0
    top = types_of_color = None

    def keep(comps: tuple[tuple[int, ...], ...], left: tuple[int, ...], rem: int) -> bool:
        nonlocal examined, top, types_of_color
        examined += 1
        if examined > limit:
            raise SearchSpaceTooLarge(f"more than {limit} guesses (cap via HDG_SEARCH_CAP)")
        if not (comps or rem):  # the all-alone guess goes to the flow without this set-up
            return True
        if top is None:
            top = [max((comp[c] for comp in comps_all), default=0) for c in range(instance.gamma)]
            types_of_color = _types_of_color(instance)
        lone = tuple([1 if k > rem * m else 0 for k, m in zip(left, top)])
        return _can_stay(tiers, types_of_color, comps, lone)

    for comps, trivial_counts in _composition_walk(instance, comps_all, d_max, keep):
        yield Guess(comps, trivial_counts)


def _is_walk(
    instance: Instance,
    tiers: TierTable,
    comps_all: list[tuple[int, ...]],
    d_max: int,
    limit: int,
) -> Iterator[Guess]:
    """The IS refinements that pass the family screens, each composition
    guess's in turn; each refinement counts towards `limit`."""
    types_of_color = _types_of_color(instance)
    examined = 0
    for comps, trivial_counts in _composition_walk(instance, comps_all, d_max, lambda *_: True):
        for guess in _is_guesses(instance, tiers, types_of_color, comps, trivial_counts):
            examined += 1
            if examined > limit:
                raise SearchSpaceTooLarge(f"more than {limit} guesses (cap via HDG_SEARCH_CAP)")
            yield guess


def solve_colors_ntcoal(instance: Instance, notion: str) -> Outcome | None:
    """Some stable budget-respecting outcome, or None if none exists."""
    budgets = instance.budgets
    limit = search_cap(GUESS_CAP)
    d_max = min(budgets.rho2, budgets.rho1, instance.n // 2)
    comps_all = _compositions(instance)
    tiers = tier_table(instance)
    walk = _ns_guesses if notion == NS else _is_walk
    for guess in walk(instance, tiers, comps_all, d_max, limit):
        outcome = _try_flow(instance, guess, notion, tiers)
        if outcome is not None:
            verdict = check_outcome(instance, outcome, notion)
            if not verdict.stable:
                raise SolverDivergence(f"colors-ntcoal witness failed: {verdict}")
            return outcome
    return None
