import itertools
import random

import pytest

from hdg import ownhdg
from hdg.brute import solve_brute
from hdg.core import NamedFamily, TierList, make_instance
from hdg.errors import OwnColorViolation, SearchSpaceTooLarge
from hdg.ownhdg import Record, arc_exists, own_ratio_orders, solve_ownhdg_nash
from hdg.randgen import GenCaps, random_instance
from hdg.stability import NS, check_outcome


def own_order(color, *tiers):
    return NamedFamily(
        "own_ratio_tiers",
        {"color": color, "tiers": [[[f.numerator, f.denominator] for f in tier] for tier in tiers]},
    )


from fractions import Fraction

from fixtures import example1

F = Fraction


def test_arc_needs_empty_color_class_to_add_nothing():
    inst = make_instance(
        [0, 0],
        {0: own_order(0, [F(1, 1)])},
        types=[0, 0],
        gamma=2,  # color 1 has no agents
    )
    orders = own_ratio_orders(inst)
    sizes = (2,)
    # Color 1 is processed second and is empty.
    assert (
        arc_exists(Record(1, (2,)), Record(2, (2,)), sizes, inst, orders) is not None
    )
    assert arc_exists(Record(1, (1,)), Record(2, (2,)), sizes, inst, orders) is None


def test_arc_alone_rule():
    # Both agents top-prefer being alone; the planned pair must not tempt.
    inst = make_instance(
        [0, 0, 1, 1],
        {0: own_order(0, [F(1, 1)]), 1: own_order(1, [F(1, 1)], [F(1, 2)])},
        types=[0, 0, 1, 1],
        gamma=2,
    )
    orders = own_ratio_orders(inst)
    sizes = (2,)
    # Placing zero color-0 agents into the planned pair: tempting ratio
    # would be 1/3 (bottom), so going alone is fine.
    placement = arc_exists(Record(0, (0,)), Record(1, (0,)), sizes, inst, orders)
    # Both type-0 agents stay alone (slot value -1).
    assert placement == {(0, -1): 2}


def test_arc_placements_match_rule_replay():
    # Exhaustively recheck the two edge rules on a small fixture.
    inst = make_instance(
        [0, 0, 1, 1],
        {0: own_order(0, [F(1, 2)], [F(1, 1)]), 1: own_order(1, [F(1, 2), F(1, 1)])},
        types=[0, 0, 1, 1],
        gamma=2,
    )
    orders = own_ratio_orders(inst)
    sizes = (2, 2)
    for a0 in range(3):
        for a1 in range(3):
            frm = Record(0, (0, 0))
            to = Record(1, (a0, a1))
            placement = arc_exists(frm, to, sizes, inst, orders)
            agents = [0, 1]
            feasible = False
            for pick in itertools.product([-1, 0, 1], repeat=2):
                new = [sum(1 for p in pick if p == j) for j in (0, 1)]
                if (new[0], new[1]) != (a0, a1):
                    continue
                ok = True
                for agent, slot in zip(agents, pick):
                    order = orders[(0, inst.types[agent])]
                    lures = [F(new[l] + 1, sizes[l] + 1) for l in (0, 1)]
                    if slot == -1:
                        ok &= all(order(F(1)) <= order(q) for q in lures)
                    else:
                        mine = F(new[slot], sizes[slot])
                        ok &= order(mine) <= order(F(1))
                        ok &= all(
                            order(mine) <= order(q)
                            for l, q in enumerate(lures)
                            if l != slot
                        )
                if ok:
                    feasible = True
            assert (placement is not None) == feasible, (a0, a1)


def test_everyone_loves_being_alone():
    inst = make_instance(
        [0, 1, 1],
        {0: own_order(0, [F(1, 1)]), 1: own_order(1, [F(1, 1)])},
        types=[0, 1, 1],
        gamma=2,
    )
    out = solve_ownhdg_nash(inst)
    assert out is not None and all(len(b) == 1 for b in out.coalitions)


def test_minority_lover_has_no_stable_outcome():
    # Agent 0 strictly prefers holding half over being alone; agent 1 the
    # opposite.  Alone together they churn: no Nash-stable outcome exists,
    # and in particular all-singletons is unstable because agent 0 would
    # join agent 1's singleton for a 1/2 share.
    inst = make_instance(
        [0, 1],
        {0: own_order(0, [F(1, 2)], [F(1, 1)]), 1: own_order(1, [F(1, 1)])},
        types=[0, 1],
        gamma=2,
    )
    assert solve_brute(inst, NS) is None
    assert solve_ownhdg_nash(inst) is None


def test_two_color_general_orders_are_own_ratio_expressible():
    # With two colors a reduced palette is determined by the own-color
    # fraction, so the checker accepts any two-color instance.
    inst = example1()
    orders = own_ratio_orders(inst)
    assert set(orders) == set(inst.present_pairs)
    out = solve_ownhdg_nash(inst)
    assert out is not None
    assert check_outcome(inst, out, NS).stable


def test_own_color_violation_detected():
    # Same own-color fraction, different tiers: not an own-ratio order.
    bad = TierList([[(1, 1, 0)], [(1, 0, 1)]])
    inst = make_instance(
        [0, 1, 2],
        {0: bad, 1: TierList([]), 2: TierList([])},
        types=[0, 1, 2],
        gamma=3,
    )
    with pytest.raises(OwnColorViolation):
        solve_ownhdg_nash(inst)


def test_validation_universe_cap_names_the_setting(monkeypatch):
    # example1's tier lists are validated over (2+2) x (2+2) = 16 count vectors.
    monkeypatch.delenv("HDG_SEARCH_CAP", raising=False)
    monkeypatch.setattr(ownhdg, "UNIVERSE_CAP", 15)
    with pytest.raises(SearchSpaceTooLarge, match=r"more than 15 .*: 16 .*HDG_SEARCH_CAP"):
        solve_ownhdg_nash(example1())
    monkeypatch.setattr(ownhdg, "UNIVERSE_CAP", 16)
    assert set(own_ratio_orders(example1())) == set(example1().present_pairs)


def test_record_graph_cap_names_the_setting(monkeypatch):
    inst = make_instance([0, 1], {0: own_order(0, [F(1)]), 1: own_order(1, [F(1)])},
                         types=[0, 1], gamma=2)
    monkeypatch.delenv("HDG_SEARCH_CAP", raising=False)
    monkeypatch.setattr(ownhdg, "UNIVERSE_CAP", 1)
    with pytest.raises(SearchSpaceTooLarge, match=r"more than 1 record-graph .*HDG_SEARCH_CAP"):
        solve_ownhdg_nash(inst)


def test_budget_rho2_limits_nontrivial_coalitions():
    # Four distinct colors, everyone wants to hold exactly half: stable
    # outcomes are exactly the two-disjoint-pair structures, so rho2=1
    # flips the instance to NO.
    prefs = {c: own_order(c, [F(1, 2)], [F(1, 1)]) for c in range(4)}
    inst = make_instance([0, 1, 2, 3], prefs, types=[0, 1, 2, 3])
    assert solve_brute(inst, NS) is not None
    assert solve_ownhdg_nash(inst) is not None
    tight = make_instance(
        inst.colors, dict(inst.prefs), types=inst.types, rho2=1
    )
    assert solve_brute(tight, NS) is None
    assert solve_ownhdg_nash(tight) is None


def test_oracle_equivalence_random_own_color():
    rng = random.Random(31337)
    for trial in range(150):
        inst = random_instance(rng, GenCaps(n=7, rho2=2), own_color=True)
        want = solve_brute(inst, NS) is not None
        got = solve_ownhdg_nash(inst)
        assert (got is not None) == want, f"trial {trial}"
        if got is not None:
            assert check_outcome(inst, got, NS).stable
