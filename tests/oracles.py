"""Independent reference implementations used to check the real ones.

Everything here is deliberately naive: plain enumeration, no shared code
with the solvers under test.
"""

import itertools
import math


def all_partitions(agents):
    agents = list(agents)
    if not agents:
        yield []
        return
    first, rest = agents[0], agents[1:]
    for sub in all_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [sub[i] | {first}] + sub[i + 1 :]
        yield sub + [{first}]


def box_exhaustive_feasible(system):
    """Scan the full box [0, max rhs]^vars for a satisfying point."""
    top = 0
    for _, rhs in system.equalities + system.inequalities_le:
        top = max(top, rhs)
    for point in itertools.product(range(top + 1), repeat=system.num_vars):
        good = all(
            sum(c * x for c, x in zip(coeffs, point)) == rhs
            for coeffs, rhs in system.equalities
        ) and all(
            sum(c * x for c, x in zip(coeffs, point)) <= rhs
            for coeffs, rhs in system.inequalities_le
        )
        if good:
            return point
    return None


def brute_max_assignment(num_agents, slot_caps, edges):
    """Best agent->slot assignment size by scanning all possibilities."""
    slots = len(slot_caps)
    best = 0
    for choice in itertools.product(range(slots + 1), repeat=num_agents):
        loads = [0] * slots
        size = 0
        ok = True
        for agent, pick in enumerate(choice):
            if pick == slots:
                continue
            if (agent, pick) not in edges:
                ok = False
                break
            loads[pick] += 1
            size += 1
        if ok and all(l <= c for l, c in zip(loads, slot_caps)):
            best = max(best, size)
    return best


def _palette(counts):
    g = math.gcd(*counts)
    return tuple(c // g for c in counts)


def reference_deviation(instance, outcome, kind):
    """First deviation, agent by agent and coalition by coalition.

    The plain O(n^2) search: every (agent, coalition) pair is decided on
    its own, rebuilding the joined coalition's counts each time.  Returns
    (agent, target, kind) in the library's witness order -- lowest agent,
    then lowest target index, going alone (-1) last -- or None.
    """
    gamma, colors, types = instance.gamma, instance.colors, instance.types

    def tier(t, p):
        return instance.prefs[t].tier_of(p)

    def counts_of(block):
        counts = [0] * gamma
        for member in block:
            counts[colors[member]] += 1
        return counts

    owner = {a: idx for idx, block in enumerate(outcome.coalitions) for a in block}
    palettes = [_palette(counts_of(block)) for block in outcome.coalitions]
    for agent in range(instance.n):
        t, color = types[agent], colors[agent]
        own = tier(t, palettes[owner[agent]])
        for idx, block in enumerate(outcome.coalitions):
            if idx == owner[agent]:
                continue
            joined_counts = counts_of(block)
            joined_counts[color] += 1
            joined = _palette(joined_counts)
            if tier(t, joined) >= own:
                continue
            if kind == "is" and not all(
                tier(types[m], joined) <= tier(types[m], palettes[idx]) for m in block
            ):
                continue
            return (agent, idx, kind)
        alone = tuple(1 if c == color else 0 for c in range(gamma))
        if tier(t, alone) < own:
            return (agent, -1, kind)
    return None
