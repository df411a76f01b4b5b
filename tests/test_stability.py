import pytest

from hdg.core import TierList, make_instance
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
)

from fixtures import A, B, C, D, example1


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


def test_check_outcome_walks_the_agents_once(monkeypatch):
    # The partition check and the deviation search share one member_of pass.
    calls = []
    real = Outcome.member_of

    def counting(self, n):
        calls.append(n)
        return real(self, n)

    monkeypatch.setattr(Outcome, "member_of", counting)
    inst = example1()
    for notion in (NS, IS):
        for blocks in all_partitions(range(inst.n)):
            calls.clear()
            check_outcome(inst, Outcome.from_sets(blocks), notion)
            assert calls == [inst.n]


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
