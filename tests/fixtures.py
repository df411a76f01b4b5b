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


class LargeInstance(Instance):
    """An `Instance` of over 512 bytes, past CPython's small-object
    allocator, so its memory comes from the C library's `malloc`.

    glibc keeps up to seven freed blocks of each small size in a cache and
    hands out the one freed last first.  A test that holds `spare_blocks`
    while it drops an instance has emptied that cache, so the next one
    made gets the dropped one's id every time; a small object gets it only
    when its pool happens to be the one its size class is served from,
    which varies over a test run.
    """

    __slots__ = tuple(f"_pad{i}" for i in range(64))


def large_copy(instance: Instance) -> LargeInstance:
    """`instance`'s agents, preferences and budgets as a `LargeInstance`."""
    return LargeInstance(
        instance.gamma, instance.colors, instance.types, instance.prefs, instance.budgets
    )


def spare_blocks(fields) -> list[LargeInstance]:
    """Seven `LargeInstance`s to hold while one is dropped: they take the
    blocks glibc keeps ready, so the dropped one's block is handed out next."""
    return [LargeInstance(*fields) for _ in range(7)]


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


def solver_shaped(rng: random.Random, instance: Instance, blocks: int, size: int):
    """Class counts shaped like a class-level solver's witness, as
    `stability.deal_outcome(instance, blocks, alone)` takes them.

    Up to `blocks` blocks of 2..`size` agents are drawn class by class;
    every agent left goes alone, each class in one to three runs, and the
    runs of all classes are shuffled, so a class's lone agents are split
    and interleaved with other classes'.
    """
    left = dict(instance.n_ct)
    drawn = []
    for _ in range(blocks):
        pool = [pair for pair, k in left.items() for _ in range(k)]
        if len(pool) < 2:
            break
        block: dict[tuple[int, int], int] = {}
        for pair in rng.sample(pool, rng.randint(2, min(size, len(pool)))):
            block[pair] = block.get(pair, 0) + 1
            left[pair] -= 1
        drawn.append(sorted(block.items()))
    runs = []
    for pair, k in left.items():
        cuts = sorted(rng.randint(0, k) for _ in range(rng.randint(0, 2)))
        runs += [(pair, b - a) for a, b in zip([0] + cuts, cuts + [k])]
    rng.shuffle(runs)
    return drawn, runs
