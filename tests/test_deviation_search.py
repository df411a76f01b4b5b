"""The class-grouped deviation search against the agent-by-agent reference.

`stability` decides each (agent class, coalition group) pair once; the
reference in `oracles` decides every (agent, coalition) pair.  Both must
return the same witness -- agent, target and kind -- on every input.
"""

import math
import random

from hdg.core import NamedFamily, TierList, make_instance
from hdg.randgen import GenCaps, random_instance
from hdg.stability import IS, NS, Outcome, find_is_deviation, find_ns_deviation

from oracles import all_partitions, reference_deviation
from references import partitions_within_budgets

FINDERS = ((NS, find_ns_deviation), (IS, find_is_deviation))


def _found(finder, instance, outcome):
    dev = finder(instance, outcome)
    return None if dev is None else (dev.agent, dev.target, dev.kind)


def _agree(instance, outcome, seen=None):
    for kind, finder in FINDERS:
        got = _found(finder, instance, outcome)
        assert got == reference_deviation(instance, outcome, kind), (instance, outcome, kind)
        if seen is not None:
            seen.add(_shape(got))


def _shape(witness):
    if witness is None:
        return "stable"
    agent, target, _ = witness
    return ("first-agent" if agent == 0 else "later-agent", "alone" if target == -1 else "join")


def _within_budgets(instance, blocks):
    b = instance.budgets
    return (
        len(blocks) <= b.rho1
        and sum(1 for blk in blocks if len(blk) >= 2) <= b.rho2
        and max(len(blk) for blk in blocks) <= b.sigma
    )


def test_all_budget_feasible_partitions_of_acceptance_instances():
    rng = random.Random(31)
    caps = GenCaps(n=7, gamma=3, tau=3, sigma=5, rho1=5, rho2=2)
    seen = set()
    checked = 0
    for _ in range(100):
        instance = random_instance(rng, caps, own_color=rng.random() < 0.3)
        for blocks in all_partitions(range(instance.n)):
            if _within_budgets(instance, blocks):
                _agree(instance, Outcome.from_sets(blocks), seen)
                checked += 1
    assert checked > 1000
    assert {"stable", ("later-agent", "join"), ("later-agent", "alone")} <= seen


def test_symmetry_class_partitions_with_unrestricted_budgets():
    # One partition per symmetry class (the agent-level reference
    # enumeration), on instances whose budgets allow every coalition shape.
    rng = random.Random(5)
    caps = GenCaps(n=7, gamma=3, tau=3, sigma=7, rho1=7, rho2=7)
    for _ in range(25):
        instance = random_instance(rng, caps, own_color=rng.random() < 0.3)
        for outcome in partitions_within_budgets(instance):
            _agree(instance, outcome)


# --------------------------------------------------------------------------
# Large outcomes: n-singletons, balanced splits and one agent moved.
# --------------------------------------------------------------------------


def _reduced(counts):
    g = math.gcd(*counts)
    return tuple(c // g for c in counts)


def _outcomes(rng, colors, types):
    n = len(colors)
    k = rng.randint(2, max(2, min(12, n // 3)))
    dealt = [[] for _ in range(k)]
    # Dealing agents sorted by class round-robin gives coalitions of equal
    # counts, so most coalitions share their signature group.
    for i, a in enumerate(sorted(range(n), key=lambda a: (colors[a], types[a]))):
        dealt[i % k].append(a)
    shuffled = list(range(n))
    rng.shuffle(shuffled)
    mixed = [shuffled[i::k] for i in range(k)]
    out = {"singletons": [[a] for a in range(n)], "dealt": dealt, "mixed": mixed}
    for name in ("dealt", "mixed"):
        blocks = [list(b) for b in out[name] if b]
        src = rng.randrange(len(blocks))
        if len(blocks[src]) > 1:
            mover = blocks[src].pop(rng.randrange(len(blocks[src])))
            dst = rng.randrange(len(blocks) + 1)
            if dst == len(blocks):
                blocks.append([mover])
            else:
                blocks[dst].append(mover)
        out[name + "-moved"] = blocks
    return {name: [b for b in blocks if b] for name, blocks in out.items()}


def _pool(gamma, colors, outcomes):
    """Palettes an agent meets in these outcomes: own, joined and alone."""
    pool = {tuple(1 if c == color else 0 for c in range(gamma)) for color in range(gamma)}
    for blocks in outcomes.values():
        for block in blocks:
            counts = [0] * gamma
            for a in block:
                counts[colors[a]] += 1
            pool.add(_reduced(counts))
            for color in range(gamma):
                counts[color] += 1
                pool.add(_reduced(counts))
                counts[color] -= 1
    return sorted(pool)


def _random_order(rng, gamma, pool, own_ratio):
    if own_ratio:
        fracs = sorted({(p[0], sum(p)) for p in pool})
        fracs = [(r // math.gcd(r, s), s // math.gcd(r, s)) for r, s in fracs]
        listed = rng.sample(sorted(set(fracs)), k=min(len(set(fracs)), rng.randint(1, 8)))
        tiers = [[list(f)] for f in listed]
        return NamedFamily("own_ratio_tiers", {"color": rng.randrange(gamma), "tiers": tiers})
    listed = rng.sample(pool, k=min(len(pool), rng.randint(1, 12)))
    tiers = []
    for p in listed:
        if tiers and rng.random() < 0.4:
            tiers[-1].append(p)
        else:
            tiers.append([p])
    return TierList(tiers)


def test_large_outcomes_match_reference():
    rng = random.Random(11)
    seen = set()
    for n in (1, 2, 5, 17, 60, 150, 300):
        for own_ratio in (False, True):
            gamma = min(n, rng.randint(2, 3))
            tau = rng.randint(1, 3)
            colors = [rng.randrange(gamma) for _ in range(n)]
            types = [rng.randrange(tau) for _ in range(n)]
            outcomes = _outcomes(rng, colors, types)
            pool = _pool(gamma, colors, outcomes)
            prefs = {t: _random_order(rng, gamma, pool, own_ratio) for t in range(tau)}
            instance = make_instance(colors, prefs, types=types, gamma=gamma)
            for blocks in outcomes.values():
                _agree(instance, Outcome.from_sets(blocks), seen)
    assert {"stable", ("later-agent", "join"), ("later-agent", "alone")} <= seen


# --------------------------------------------------------------------------
# The agent's own coalition opens its signature group.
# --------------------------------------------------------------------------

RED, BLUE = 0, 1


def _two_color(colors, red_tiers):
    prefs = {0: TierList(red_tiers), 1: TierList([])}
    return make_instance(colors, prefs, types=list(colors), gamma=2)


def test_own_group_first_index_targets_second_index():
    # Coalitions 0 and 1 are both red+blue: agent 0 opens that group and
    # can only go to coalition 1, which it prefers (2 red, 1 blue).
    instance = _two_color([RED, BLUE, RED, BLUE], [[(2, 1)]])
    outcome = Outcome.from_sets([{0, 1}, {2, 3}])
    for kind, finder in FINDERS:
        dev = finder(instance, outcome)
        assert (dev.agent, dev.target) == (0, 1)
    _agree(instance, outcome)


def test_own_group_second_index_loses_to_lower_group():
    # Agent 0's group holds coalitions 0 and 2; coalition 1 (two blues) is
    # a different group with a lower index, and both joins are improvements.
    instance = _two_color([RED, BLUE, BLUE, BLUE, RED, BLUE], [[(1, 2), (2, 1)]])
    outcome = Outcome.from_sets([{0, 1}, {2, 3}, {4, 5}])
    assert find_ns_deviation(instance, outcome).target == 1
    _agree(instance, outcome)


def test_own_group_without_second_index_falls_through():
    # Agent 0 opens a group of one; joining the other group is no better,
    # so the witness is going alone.
    instance = _two_color([RED, BLUE, BLUE], [[(1, 0)]])
    outcome = Outcome.from_sets([{0, 1}, {2}])
    dev = find_ns_deviation(instance, outcome)
    assert (dev.agent, dev.target) == (0, -1)
    _agree(instance, outcome)


def test_is_groups_split_by_member_types():
    # Same counts, different member types: under IS coalition 1's blue
    # vetoes the join and coalition 2's does not; under NS both are fine
    # and the lower index wins.
    prefs = {0: TierList([[(2, 1)]]), 1: TierList([]), 2: TierList([[(1, 1)]])}
    instance = make_instance(
        [RED, BLUE, RED, BLUE, RED, BLUE], prefs, types=[0, 1, 0, 2, 0, 1], gamma=2
    )
    outcome = Outcome.from_sets([{0, 1}, {2, 3}, {4, 5}])
    assert find_ns_deviation(instance, outcome).target == 1
    assert find_is_deviation(instance, outcome).target == 2
    _agree(instance, outcome)


def test_random_outcomes_with_repeated_signatures():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(2, 12)
        gamma = rng.randint(1, 2)
        colors = [rng.randrange(gamma) for _ in range(n)]
        types = [rng.randrange(2) for _ in range(n)]
        outcomes = _outcomes(rng, colors, types)
        pool = _pool(gamma, colors, outcomes)
        prefs = {t: _random_order(rng, gamma, pool, False) for t in range(2)}
        instance = make_instance(colors, prefs, types=types, gamma=gamma)
        for blocks in outcomes.values():
            _agree(instance, Outcome.from_sets(blocks))


# --------------------------------------------------------------------------
# Work stays flat in n.
# --------------------------------------------------------------------------


def _tier_calls_on_singletons(n, monkeypatch):
    """Oracle calls of both searches on n singletons."""
    calls = 0
    real = TierList.tier_of

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    # Going alone is top-ranked by both types, so the all-singleton outcome
    # is stable and every agent is looked at.
    top = TierList([[(1, 0), (0, 1)], [(1, 1)]])
    colors = [a % 2 for a in range(n)]
    types = [(a // 2) % 2 for a in range(n)]
    instance = make_instance(colors, {0: top, 1: top}, types=types, gamma=2)
    outcome = Outcome.from_sets([{a} for a in range(n)])
    monkeypatch.setattr(TierList, "tier_of", counted)
    for _, finder in FINDERS:
        assert finder(instance, outcome) is None
    monkeypatch.undo()
    return calls


def test_tier_calls_on_singletons_do_not_grow_with_n(monkeypatch):
    small = _tier_calls_on_singletons(100, monkeypatch)
    assert small == _tier_calls_on_singletons(1000, monkeypatch)
    assert 0 < small < 100
