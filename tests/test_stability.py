import random

import pytest

from hdg.core import TierList, compositions_upto, make_instance
from hdg.errors import InvalidOutcome, SolverDivergence
from hdg.stability import (
    EMPTY,
    IS,
    NS,
    Outcome,
    check_outcome,
    deal_outcome,
    find_is_deviation,
    find_ns_deviation,
    shapes,
)
from hdg.randgen import GenCaps, random_instance

from fixtures import A, B, C, D, example1, solver_shaped
from references import shape_multisets


def outcome(*sets):
    return Outcome.from_sets(sets)


def test_ns_deviation_b_to_triple():
    inst = example1()
    dev = find_ns_deviation(inst, outcome({A, C, D}, {B}))
    assert dev is not None
    assert dev.agent == B and dev.target == 0


def test_ns_stable_example1():
    inst = example1()
    assert find_ns_deviation(inst, outcome({B, C, D}, {A})) is None


def test_ns_absent_when_everyone_in_top_tier():
    # Both agents sit in their unique top tier; no palette beats it.
    top = TierList([[(1, 1)]])
    inst = make_instance([0, 1], {0: top}, types=[0, 0], gamma=2)
    assert find_ns_deviation(inst, outcome({0, 1})) is None


def test_is_stable_example1_split():
    inst = example1()
    assert find_is_deviation(inst, outcome({A, C, D}, {B})) is None


def test_is_deviation_to_empty_from_grand_coalition():
    inst = example1()
    # Direct comparator evaluation: a strictly prefers being alone.
    order = inst.prefs[inst.types[A]]
    assert order.tier_of((1, 0)) < order.tier_of((1, 1))
    dev = find_is_deviation(inst, outcome({A, B, C, D}))
    ns_dev = find_ns_deviation(inst, outcome({A, B, C, D}))
    assert (dev.agent, dev.target) == (ns_dev.agent, ns_dev.target)
    assert dev.agent == A and dev.target == EMPTY


def test_is_absent_on_singleton_instance():
    inst = make_instance([0], {0: TierList([])}, types=[0])
    assert find_is_deviation(inst, outcome({0})) is None


def test_check_outcome_examples():
    inst = example1()
    assert check_outcome(inst, outcome({B, C, D}, {A}), NS).stable

    tight = example1(rho1=1)
    res = check_outcome(tight, outcome({B, C, D}, {A}), NS)
    assert res.status == "budget"

    res = check_outcome(inst, outcome({A, C, D}, {B}), NS)
    assert res.status == "unstable"
    assert res.deviation.agent == B and res.deviation.target == 0


def test_budget_details():
    inst = example1(sigma=2)
    assert "sigma" in check_outcome(inst, outcome({A, C, D}, {B}), NS).detail
    inst = example1(rho2=0)
    assert "rho2" in check_outcome(inst, outcome({A, B}, {C, D}), NS).detail


def test_malformed_outcomes_rejected():
    inst = example1()
    with pytest.raises(InvalidOutcome):
        find_ns_deviation(inst, outcome({A, B}))  # agents missing
    with pytest.raises(InvalidOutcome):
        find_ns_deviation(inst, outcome({A, B, C, D}, {A}))  # duplicated
    with pytest.raises(InvalidOutcome):
        find_ns_deviation(inst, Outcome.from_sets([{A, B, C, D}, set()]))


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


def test_ns_stable_implies_is_stable_exhaustive():
    inst = example1()
    for blocks in all_partitions(range(4)):
        out = Outcome.from_sets(blocks)
        if find_ns_deviation(inst, out) is None:
            assert find_is_deviation(inst, out) is None


def test_deviations_ignore_budgets():
    for blocks in all_partitions(range(4)):
        out = Outcome.from_sets(blocks)
        base_ns = find_ns_deviation(example1(), out)
        base_is = find_is_deviation(example1(), out)
        for variant in (example1(sigma=1), example1(rho1=2), example1(rho2=0)):
            assert find_ns_deviation(variant, out) == base_ns
            assert find_is_deviation(variant, out) == base_is


def test_returned_deviation_replays_through_comparator():
    inst = example1()
    for blocks in all_partitions(range(4)):
        out = Outcome.from_sets(blocks)
        owner = out.member_of(inst.n)
        for kind, finder in ((NS, find_ns_deviation), (IS, find_is_deviation)):
            dev = finder(inst, out)
            if dev is None:
                continue
            own = out.coalitions[owner[dev.agent]]
            target = set() if dev.target == EMPTY else set(out.coalitions[dev.target])
            from hdg.core import palette_of

            joined = palette_of(target | {dev.agent}, inst)
            current = palette_of(own, inst)
            order = inst.prefs[inst.types[dev.agent]]
            assert order.tier_of(joined) < order.tier_of(current)
            if kind == IS and dev.target != EMPTY:
                base = palette_of(target, inst)
                for member in target:
                    order = inst.prefs[inst.types[member]]
                    assert order.tier_of(joined) <= order.tier_of(base)


# example1 has four agents, 0..3; each outcome below is not a partition of them.
MALFORMED = {
    "agents missing": ((0, 1), (2,)),
    "duplicated across coalitions": ((0, 1), (1, 2, 3)),
    "duplicated within a coalition": ((0, 0, 1), (2, 3)),
    "duplicated, count still n": ((0, 1), (1, 2)),
    "id past n": ((0, 1, 2), (3, 4)),
    "id past n, count still n": ((0, 1), (2, 4)),
    "negative id": ((-1, 0, 1, 2, 3),),
    "negative id, count still n": ((-1, 0), (1, 2)),
    "empty coalition": ((0, 1, 2, 3), ()),
    "float id": ((0.0, 1), (2, 3)),
    "float id in place of a missing int": ((1, 2), (3, 4.0)),
    "string id": (("0", 1), (2, 3)),
    "bool id": ((0, True), (2, 3)),
    "bool id beside its int": ((0, 1), (True, 2, 3)),
    "false id": ((False, 1), (2, 3)),
    "unhashable id": (([0], 1), (2, 3)),
}
CHECKS = (
    lambda inst, out: check_outcome(inst, out, NS),
    lambda inst, out: check_outcome(inst, out, IS),
    find_ns_deviation,
    find_is_deviation,
)


def test_check_outcome_calls_member_of_only_to_reject(monkeypatch):
    # The partition test runs at C level; member_of only words the error.
    calls = []
    real = Outcome.member_of

    def counting(self, n):
        calls.append(n)
        return real(self, n)

    inst = example1()
    monkeypatch.setattr(Outcome, "member_of", counting)
    for blocks in all_partitions(range(inst.n)):
        for check in CHECKS:
            check(inst, Outcome.from_sets(blocks))
    assert calls == []
    for case, coalitions in MALFORMED.items():
        with pytest.raises(InvalidOutcome) as want:
            real(Outcome(coalitions), inst.n)
        for check in CHECKS:
            with pytest.raises(InvalidOutcome) as got:
                check(inst, Outcome(coalitions))
            assert str(got.value) == str(want.value), case
    # A non-int id is named, not read as the agent it equals or indexes like.
    with pytest.raises(InvalidOutcome, match=r"agent id 0\.0 is not an int"):
        real(Outcome(MALFORMED["float id"]), inst.n)


def test_deal_outcome_deals_each_class_in_id_order():
    # example1's classes: a is (0, 0), b is (0, 1), c and d are (1, 0).
    inst = example1()
    out = deal_outcome(inst, [[((0, 1), 1), ((1, 0), 2)], [((0, 0), 1), ((1, 0), 0)]])
    assert out == outcome({B, C, D}, {A})
    assert deal_outcome(inst, [[((1, 0), 1)], [((1, 0), 1), ((0, 0), 1), ((0, 1), 1)]]) == (
        outcome({C}, {A, B, D})
    )


def test_deal_outcome_rejects_counts_that_are_not_a_partition():
    inst = example1()
    undealt = [[((1, 0), 2)], [((0, 0), 1)]]  # b is left over
    overdrawn = [[((1, 0), 3), ((0, 0), 1), ((0, 1), 1)]]  # three of c, d
    for blocks in (undealt, overdrawn):
        with pytest.raises(SolverDivergence):
            deal_outcome(inst, blocks)


def test_dealing_lone_runs_equals_one_block_per_agent():
    rng = random.Random(41)
    for _ in range(300):
        n, gamma, tau = rng.randint(1, 14), rng.randint(1, 3), rng.randint(1, 3)
        colors = [rng.randrange(gamma) for _ in range(n)]
        types = [rng.randrange(tau) for _ in range(n)]
        prefs = {t: TierList([]) for t in range(tau)}
        inst = make_instance(colors, prefs, types=types, gamma=gamma)
        blocks, runs = solver_shaped(rng, inst, 3, 5)
        one_each = blocks + [[(pair, 1)] for pair, k in runs for _ in range(k)]
        assert deal_outcome(inst, blocks, runs) == deal_outcome(inst, one_each)
        pair, k = runs[0]
        for wrong in (k - 1, k + 1):
            if wrong >= 0:
                with pytest.raises(SolverDivergence):
                    deal_outcome(inst, blocks, [(pair, wrong)] + runs[1:])


def test_shapes_are_the_bounded_multisets_in_one_order():
    # The one-agent `singles`, then `shape(i)`, the ones of two members or
    # more, the larger first and then by entries, drawn in bulk for some
    # instances and one at a time for others; `listed` gives them all, in
    # that order, with their count vectors.
    rng = random.Random(31)
    for trial in range(40):
        inst = random_instance(rng, GenCaps(n=7))
        pairs, sigma = inst.present_pairs, inst.budgets.sigma
        multisets = shape_multisets(pairs, inst.n_ct, sigma)
        limits = [inst.n_ct[p] for p in pairs]
        table = shapes(inst)
        if trial % 2:
            total = table.draw(10**6)
        else:
            total = 0
            while table.draw(total + 1) > total:
                total += 1
        assert total == len(pairs) + len(table.drawn) == len(multisets)
        assert table.draw(total + 1) == total
        got = []
        while (shape := table.shape(len(got))) is not None:
            got.append(shape)
        assert table.shape(len(got)) is None and table.drawn == got
        assert [block.pair_counts for block in table.singles] == [((p, 1),) for p in pairs]
        listed = table.listed()
        assert [block for _, block in listed] == table.singles + [block for _, block, _ in got]
        assert [vec for vec, _ in listed[len(pairs):]] == [vec for vec, _, _ in got]
        assert sorted(vec for vec, _ in listed) == sorted(compositions_upto(limits, sigma))
        blocks = [block.pair_counts for _, block, _ in got]
        assert blocks == sorted(blocks, key=lambda entries: (-sum(k for _, k in entries), entries))
        assert set(blocks) == {shape for shape in multisets if sum(k for _, k in shape) >= 2}
        for vec, block, size in got:
            counts = [0] * inst.gamma
            for (c, _), k in zip(pairs, vec):
                counts[c] += k
            assert block.counts == tuple(counts) and size == sum(vec)
            assert block.types == {t for (_, t), k in zip(pairs, vec) if k}
