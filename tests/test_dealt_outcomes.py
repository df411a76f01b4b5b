"""Dealt outcomes against their explicit twins.

`deal_outcome` keeps lone agents as runs of the instance's class pools, and
`check_outcome` reads those runs without listing their coalitions.  An
outcome rebuilt from `coalitions` has no runs, so it is checked coalition
by coalition.  The two must give the same verdict, deviation and detail,
compare and hash alike and write the same bytes; a hand-built run outcome
that is not a partition must never read stable; and a witness whose lone
agents are runs is solved and checked without its coalitions being built.
"""

import dataclasses
import random
from collections import Counter

import pytest

from hdg import bench, stability
from hdg.core import NamedFamily, Runs, make_instance
from hdg.errors import InvalidOutcome, OwnColorViolation, SearchSpaceTooLarge
from hdg.fileio import serialize_outcome
from hdg.randgen import GenCaps, random_instance
from hdg.stability import IS, NS, Outcome, check_outcome, deal_outcome

from fixtures import solver_shaped
from test_acceptance import _suite_instances


def _verdict(instance, outcome, notion):
    try:
        return check_outcome(instance, outcome, notion)
    except InvalidOutcome as exc:
        return f"InvalidOutcome: {exc}"


def _assert_twins(instance, dealt):
    twin = Outcome(dealt.coalitions)
    assert not twin.runs
    for notion in (NS, IS):
        assert _verdict(instance, dealt, notion) == _verdict(instance, twin, notion)
    assert dealt == twin and twin == dealt
    assert hash(dealt) == hash(twin)
    assert repr(dealt) == repr(twin)
    assert serialize_outcome(instance, dealt) == serialize_outcome(instance, twin)


def test_solver_witnesses_check_as_their_explicit_twins():
    # The seed-20240 acceptance population.
    witnesses = 0
    for _, instance in _suite_instances():
        for notion in (NS, IS):
            for solver in bench.SOLVERS.values():
                if notion not in solver.notions:
                    continue
                try:
                    witness = solver.solve(instance, notion)
                except (SearchSpaceTooLarge, OwnColorViolation):
                    continue
                if witness is not None:
                    witnesses += 1
                    _assert_twins(instance, witness)
    assert witnesses > 1000


def _dealt(rng, instance):
    """A random split dealt as a class-level solver would: zero to three
    blocks, then each class's lone agents in up to five runs, shuffled."""
    blocks, alone = solver_shaped(rng, instance, rng.randint(0, 3), 4)
    runs = []
    for pair, k in alone:
        cuts = sorted(rng.randint(0, k) for _ in range(rng.randint(0, 4)))
        runs += [(pair, b - a) for a, b in zip([0] + cuts, cuts + [k])]
    rng.shuffle(runs)
    return deal_outcome(instance, blocks, runs)


CAPS = GenCaps(n=12, gamma=3, tau=3, sigma=4, rho1=12, rho2=3)


def test_hand_dealt_splits_check_as_their_explicit_twins():
    # Random splits, mostly unstable or over budget.
    rng = random.Random(5)
    statuses, split = set(), 0
    for _ in range(2000):
        instance = random_instance(rng, CAPS, own_color=rng.random() < 0.3)
        dealt = _dealt(rng, instance)
        _assert_twins(instance, dealt)
        statuses.add(check_outcome(instance, dealt, NS).status)
        pairs = [pair for pair, _, _, _ in dealt.runs]
        split += len(pairs) > len(set(pairs))
    assert statuses == {"stable", "unstable", "budget"}
    assert split > 500  # a class dealt alone in two runs or more


def _reversed(instance):
    """The instance with its agents in reverse order: the same classes and
    class sizes, each class's pool made of other ids."""
    return make_instance(
        instance.colors[::-1],
        instance.prefs,
        types=instance.types[::-1],
        gamma=instance.gamma,
        **dataclasses.asdict(instance.budgets),
    )


def _broken(rng, instance, dealt):
    """(case, explicit coalitions, runs) made from `dealt`: ones that are
    not a partition, most with n agents dealt in all, and partitions that
    `deal_outcome` would not make (a class's runs out of id order, runs
    of another instance's pools)."""
    explicit, runs = list(dealt.explicit), list(dealt.runs)
    pair, pool, start, stop = run = rng.choice(runs)
    others = [r for r in runs if r is not run]
    yield "a run twice", explicit, runs + [run]
    yield "runs short of n", explicit, others + [(pair, pool, start, stop - 1)]
    yield "run past its pool", explicit, others + [(pair, pool, start, len(pool) + 1)]
    yield "empty run", explicit, others + [(pair, pool, start, start), run]
    if stop - start >= 2:
        # The last agent of the run is left out and another one dealt twice.
        short = others + [(pair, pool, start, stop - 1)]
        yield "overlapping runs", explicit, short + [(pair, pool, stop - 2, stop - 1)]
        yield "block agent at a run start", explicit + [(pool[start],)], short
        agent = pool[rng.randrange(start, stop - 1)]
        if explicit:
            grown = [tuple(sorted(explicit[0] + (agent,)))] + explicit[1:]
            yield "block agent inside a run", grown, short
    yield "runs in reverse order", explicit, runs[::-1]
    twin = dataclasses.replace(instance)
    yield "runs on an equal instance's pools", explicit, [
        (p, twin.agents_of_ct[p], a, b) for p, _, a, b in runs
    ]
    other = _reversed(instance).agents_of_ct
    yield "runs on another instance's pools", explicit, [
        (p, other[p], a, b) for p, _, a, b in runs
    ]


def test_runs_that_are_not_a_partition_never_read_stable():
    rng = random.Random(11)
    cases = Counter()
    for _ in range(1000):
        instance = random_instance(rng, CAPS, own_color=rng.random() < 0.3)
        dealt = _dealt(rng, instance)
        if not dealt.runs:
            continue
        for case, explicit, runs in _broken(rng, instance, dealt):
            bad = Outcome(tuple(explicit), tuple(runs))
            twin = Outcome(bad.coalitions)
            partition = sorted(a for block in twin.coalitions for a in block) == list(
                range(instance.n)
            )
            cases[case, partition] += 1
            for notion in (NS, IS):
                got = _verdict(instance, bad, notion)
                assert got == _verdict(instance, twin, notion), case
                assert partition or isinstance(got, str), case
            for find in (stability.find_ns_deviation, stability.find_is_deviation):
                if not partition:
                    with pytest.raises(InvalidOutcome):
                        find(instance, bad)
                else:
                    assert find(instance, bad) == find(instance, twin)
    faults = ("a run twice", "runs short of n", "run past its pool", "overlapping runs")
    faults += ("block agent at a run start", "block agent inside a run")
    assert min(cases[case, False] for case in faults) > 50
    twins = ("empty run", "runs in reverse order", "runs on an equal instance's pools")
    twins += ("runs on another instance's pools",)
    assert min(cases[case, True] for case in twins) > 50


def _alone_on_top(n):
    # Two classes of one color and type each; every agent's top tier is
    # the all-own-color palette, so going alone is never bettered.
    half = n // 2
    prefs = {t: NamedFamily("own_ratio_tiers", {"color": t, "tiers": [[[1, 1]]]}) for t in (0, 1)}
    column = Runs([(0, half), (1, n - half)])
    return make_instance(column, prefs, types=column, gamma=2, sigma=2, rho2=1)


@pytest.mark.parametrize("n", [1_000, 100_000])
def test_alone_witnesses_are_solved_and_checked_without_their_coalitions(n, monkeypatch):
    reads = []
    real = stability._with_lone

    def counting(*args):
        reads.append(args)
        return real(*args)

    monkeypatch.setattr(stability, "_with_lone", counting)
    instance = _alone_on_top(n)
    for algo, notion in (("colors-ntcoal", NS), ("colors-ntcoal", IS), ("own-nash", NS)):
        witness = bench.SOLVERS[algo].solve(instance, notion)
        assert check_outcome(instance, witness, notion).stable
        assert reads == [], algo
        assert sorted(witness.coalitions) == [(a,) for a in range(n)]
        assert len(reads) == 1
        reads.clear()
