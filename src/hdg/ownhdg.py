"""Nash solver for own-ratio games, parameterized by non-trivial coalitions.

Own-ratio games are the fragment where every agent cares only about the
fraction its own color holds in its coalition.  The solver branches over
the sizes of the (at most rho2) non-trivial coalitions, then runs a
reachability DP that admits one color class at a time: a record stores how
many agents each planned coalition already holds, and an arc between
records exists when the new color's agents can be routed (by max flow,
one row per type of the color with its agent count as supply) to
coalitions and singletons without creating Nash deviations.  Because the
whole color class is placed in one step, the deviation checks against
planned coalitions use their final same-color counts.

Two deviation targets are invisible to the per-coalition counts alone and
are handled by an extra branch over which colors end up with singleton
coalitions (none, exactly one color, or at least two colors): an agent
joining a singleton of a different color would hold exactly half of the
resulting pair, so whenever such a singleton exists anywhere, every agent
of another color must weakly prefer its own seat to the ratio 1/2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .core import Instance, NamedFamily, compositions_upto, reduce_counts
from .errors import OwnColorViolation, SearchSpaceTooLarge, SolverDivergence, search_cap
from .maxflow import FlowNetwork, max_flow
from .stability import NS, Outcome, check_outcome, deal_outcome

UNIVERSE_CAP = 200_000

# Singleton-color profiles.
NO_SINGLETONS = "none"
MANY_SINGLETONS = "many"


FracOrder = Callable[[Fraction], int]  # smaller = better, like tier_of


def own_ratio_orders(instance: Instance) -> dict[tuple[int, int], FracOrder]:
    """Fraction-level order per (color, type), or OwnColorViolation.

    Own-ratio tier families are read off directly.  Any other order is
    validated against the instance's palette universe: two palettes giving
    the agent's color the same fraction must be indifferent.
    """
    orders: dict[tuple[int, int], FracOrder] = {}
    generic_pairs = []
    for pair in instance.present_pairs:
        c, t = pair
        pref = instance.prefs[t]
        if isinstance(pref, NamedFamily) and pref.name == "own_ratio_tiers" and pref.params["color"] == c:
            table = {
                Fraction(num, den): i
                for i, tier in enumerate(pref.params["tiers"])
                for num, den in tier
            }
            bottom = len(pref.params["tiers"])
            orders[pair] = lambda f, table=table, bottom=bottom: table.get(f, bottom)
        else:
            generic_pairs.append(pair)
    if generic_pairs:
        orders.update(_orders_from_palettes(instance, generic_pairs))
    return orders


def _orders_from_palettes(instance: Instance, pairs) -> dict[tuple[int, int], FracOrder]:
    # Palettes of coalitions plus one-more-agent extensions: every fraction
    # the DP may query corresponds to one of these.
    limits = [s + 1 for s in instance.class_sizes]
    cap = search_cap(UNIVERSE_CAP)
    expected = 1
    for l in limits:
        expected *= l + 1
    if expected > cap:
        raise SearchSpaceTooLarge(
            f"more than {cap} own-ratio validation count vectors: {expected}"
            " (cap via HDG_SEARCH_CAP)"
        )
    palettes = {
        reduce_counts(counts)
        for counts in compositions_upto(limits, instance.n + 1)
    }
    out: dict[tuple[int, int], FracOrder] = {}
    for c, t in pairs:
        pref = instance.prefs[t]
        table: dict[Fraction, int] = {}
        for p in sorted(palettes):
            if p[c] == 0:
                continue
            frac = Fraction(p[c], sum(p))
            tier = pref.tier_of(p)
            if table.setdefault(frac, tier) != tier:
                raise OwnColorViolation(
                    f"type {t} ranks equal own-color ratios {frac} differently"
                )
        bottom = max(table.values(), default=0) + 1
        out[(c, t)] = lambda f, table=dict(table), bottom=bottom: table.get(f, bottom)
    return out


@dataclass(frozen=True)
class Record:
    colors_done: int
    alloc: tuple[int, ...]


def arc_exists(
    record_from: Record,
    record_to: Record,
    size_fn: tuple[int, ...],
    instance: Instance,
    orders: Mapping[tuple[int, int], FracOrder] | None = None,
    half_guard_colors: frozenset[int] = frozenset(),
) -> dict[tuple[int, int], int] | None:
    """Placement of the next color class realizing record_to, or None.

    Agents may go to planned coalition j (slot value j) when the final
    own-color ratio new(j)/size(j) is weakly preferred to going alone and
    to joining any other planned coalition, or stay alone (slot value -1)
    when being alone is weakly preferred to joining every planned
    coalition.  Colors in half_guard_colors must additionally tolerate the
    ratio 1/2 (a singleton of another color exists somewhere).  Both rules
    depend only on an agent's type, so the network has one row per type
    of the color, and the placement maps (type, slot value) to a count.
    """
    if record_to.colors_done != record_from.colors_done + 1:
        return None
    i = record_from.colors_done
    new = tuple(b - a for a, b in zip(record_from.alloc, record_to.alloc))
    if any(x < 0 for x in new):
        return None
    if orders is None:
        orders = own_ratio_orders(instance)
    spare = instance.class_sizes[i] - sum(new)
    if spare < 0:
        return None

    one = Fraction(1)
    half = Fraction(1, 2)
    guard = i in half_guard_colors
    lures = [Fraction(new[l] + 1, size_fn[l] + 1) for l in range(len(size_fn))]
    slots: list[int] = [j for j in range(len(size_fn)) if new[j] > 0] + [-1]
    caps = [new[j] for j in slots[:-1]] + [spare]
    rows = [t for c, t in instance.present_pairs if c == i]
    edges = set()
    for r, t in enumerate(rows):
        order = orders[(i, t)]
        for s, j in enumerate(slots):
            mine = one if j == -1 else Fraction(new[j], size_fn[j])
            rank = order(mine)
            ok = all(rank <= order(lure) for l, lure in enumerate(lures) if l != j)
            if ok and j != -1:
                ok = rank <= order(one)
            if ok and guard:
                ok = rank <= order(half)
            if ok:
                edges.add((r, s))
    supplies = tuple(instance.n_ct[(i, t)] for t in rows)
    net = FlowNetwork(supplies, tuple(caps), frozenset(edges))
    value, flow = max_flow(net)
    if value != instance.class_sizes[i]:
        return None
    return {(rows[r], slots[s]): amount for (r, s), amount in flow.items()}


def _size_functions(instance: Instance):
    n = instance.n
    b = instance.budgets
    top = min(b.sigma, n)
    k_max = min(b.rho2, n // 2)
    for k in range(0, k_max + 1):
        for sizes in itertools.combinations_with_replacement(range(2, top + 1), k):
            sizes = tuple(sorted(sizes, reverse=True))
            if sum(sizes) > n:
                continue
            if k + (n - sum(sizes)) > b.rho1:
                continue
            yield sizes


def solve_ownhdg_nash(instance: Instance) -> Outcome | None:
    """Some Nash-stable budget-respecting outcome, or None if none exists."""
    orders = own_ratio_orders(instance)
    n = instance.n
    gamma = instance.gamma
    limit = search_cap(UNIVERSE_CAP)
    branches = 0

    for sizes in _size_functions(instance):
        records = 1
        for s in sizes:
            records *= s + 1
        branches += max(records, 1) * (gamma + 2)
        if branches > limit:
            raise SearchSpaceTooLarge(
                f"more than {limit} record-graph branches (cap via HDG_SEARCH_CAP)"
            )
        profiles: list[tuple[str | int, frozenset[int]]] = []
        if sum(sizes) == n:
            profiles.append((NO_SINGLETONS, frozenset()))
        for c in range(gamma):
            if instance.class_sizes[c] >= 1:
                profiles.append((c, frozenset(set(range(gamma)) - {c})))
        profiles.append((MANY_SINGLETONS, frozenset(range(gamma))))
        for profile, guard_colors in profiles:
            outcome = _search_records(instance, orders, sizes, profile, guard_colors)
            if outcome is not None:
                verdict = check_outcome(instance, outcome, NS)
                if not verdict.stable:
                    raise SolverDivergence(f"own-ratio witness failed: {verdict}")
                return outcome
    return None


def _search_records(instance, orders, sizes, profile, guard_colors):
    gamma = instance.gamma
    start = Record(0, (0,) * len(sizes))
    frontier = {start.alloc: None}  # alloc -> (prev alloc, placement)
    levels = [frontier]
    for i in range(gamma):
        class_size = instance.class_sizes[i]
        nxt: dict[tuple[int, ...], tuple[tuple[int, ...], dict[tuple[int, int], int]]] = {}
        for alloc in levels[i]:
            room = [s - a for s, a in zip(sizes, alloc)]
            for new in itertools.product(*(range(r + 1) for r in room)):
                spare = class_size - sum(new)
                if spare < 0:
                    continue
                if spare > 0 and profile != MANY_SINGLETONS and profile != i:
                    continue
                target = tuple(a + x for a, x in zip(alloc, new))
                if target in nxt:
                    continue
                placement = arc_exists(
                    Record(i, alloc),
                    Record(i + 1, target),
                    sizes,
                    instance,
                    orders,
                    guard_colors,
                )
                if placement is not None:
                    nxt[target] = (alloc, placement)
        levels.append(nxt)
        if not nxt:
            return None
    if sizes not in levels[gamma]:
        return None

    blocks: list[list[tuple[tuple[int, int], int]]] = [[] for _ in sizes]
    singles: list[tuple[tuple[int, int], int]] = []
    alloc = sizes
    for i in range(gamma, 0, -1):
        prev, placement = levels[i][alloc]
        for (t, j), amount in placement.items():
            if j == -1:
                singles.append(((i - 1, t), amount))
            else:
                blocks[j].append(((i - 1, t), amount))
        alloc = prev
    return deal_outcome(instance, [b for b in blocks if b], singles)
