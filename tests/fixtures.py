"""Canonical instances used by tests and docs: hand-built ones, and the
games of the benchmark's n-sweep at any n and rho2."""

from __future__ import annotations

import random

from hdg.core import Instance, TierList, make_instance, realizable_palettes


def example1(sigma=None, rho1=None, rho2=None) -> Instance:
    """Two colors, four agents a,b,c,d; the classic two-type instance.

    Agents a,c,d share one master list, agent b has its own; color classes
    are {a,b} and {c,d}.  {b,c,d}|{a} is Nash stable while {a,c,d}|{b} is
    individually but not Nash stable.
    """
    master = TierList([[(1, 2)], [(2, 1)], [(1, 0)], [(1, 1)], [(0, 1)]])
    b_list = TierList([[(1, 1)], [(1, 2)], [(1, 0)], [(2, 1)]])
    return make_instance(
        colors=[0, 0, 1, 1],
        types=[0, 1, 0, 0],
        prefs={0: master, 1: b_list},
        sigma=sigma,
        rho1=rho1,
        rho2=rho2,
        agent_ids=("a", "b", "c", "d"),
    )


A, B, C, D = 0, 1, 2, 3


def sweep_game(profile, n, rho2):
    """A game of the benchmark's n-sweep: gamma=2, tau=2, sigma=4, four
    equal (color, type) classes, each type a random weak order over six
    palettes of at most five agents."""
    base = make_instance([0] * 5 + [1] * 5, {0: TierList([])}, types=[0] * 10, gamma=2)
    palettes = realizable_palettes(base, 5)
    rng = random.Random(7919 + profile)
    prefs = {}
    for t in (0, 1):
        tiers = []
        for p in rng.sample(palettes, k=6):
            if tiers and rng.random() < 0.4:
                tiers[-1].append(p)
            else:
                tiers.append([p])
        prefs[t] = TierList(tiers)
    colors = [(k % 4) // 2 for k in range(n)]
    types = [k % 2 for k in range(n)]
    return make_instance(colors, prefs, types=types, gamma=2, sigma=4, rho2=rho2)
