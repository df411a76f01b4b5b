"""The tier table that back-to-back calls on one instance share.

`core.tier_table` keeps the last instance's table in one slot, by weak
reference.  A call that follows another on the same instance reads no
tier twice; a call on another instance, or on a new instance in a dropped
one's place, never sees a table that is not its own.  `Instance.prefs` is
read-only, so a kept table cannot go stale.
"""

import dataclasses
import gc
import weakref
from collections import Counter

import pytest

from hdg.brute import solve_brute
from hdg.colors_size import solve_colors_size
from hdg.colors_types import solve_colors_types
from hdg.core import Budgets, Instance, NamedFamily, TierList, make_instance, tier_table
from hdg.fileio import parse_instance, serialize_instance
from hdg.reductions import from_x3c
from hdg.stability import IS, NS, Outcome, check_outcome

from fixtures import example1
from oracles import all_partitions, reference_deviation


def _count_tier_reads(monkeypatch) -> Counter:
    calls: Counter = Counter()
    for cls in (TierList, NamedFamily):
        def tier_of(self, palette, _read=cls.tier_of):
            calls[cls.__name__] += 1
            return _read(self, palette)

        monkeypatch.setattr(cls, "tier_of", tier_of)
    return calls


def _outcomes(n):
    return [Outcome.from_sets(blocks) for blocks in all_partitions(range(n))]


def _verdict(instance, outcome, notion):
    result = check_outcome(instance, outcome, notion)
    dev = result.deviation
    return result.stable, None if dev is None else (dev.agent, dev.target, dev.kind)


# --------------------------------------------------------------------------
# Read-only preferences.
# --------------------------------------------------------------------------


def test_prefs_reject_item_assignment():
    inst = example1()
    assert inst.gamma == 2
    with pytest.raises(TypeError):
        inst.prefs[0] = TierList([[(1, 1, 1)]])
    with pytest.raises(TypeError):
        del inst.prefs[1]
    assert inst.prefs[0] == example1().prefs[0]


def test_prefs_are_a_copy_of_the_given_mapping():
    prefs = {0: TierList([[(1, 0)]]), 1: TierList([[(0, 1)]])}
    inst = Instance(2, (0, 1), (0, 1), prefs, Budgets(2, 2, 1))
    prefs[0] = TierList([[(1, 1)]])
    assert inst.prefs[0] == TierList([[(1, 0)]])


def test_replace_and_fileio_keep_equal_prefs():
    inst = example1()
    budgets = dataclasses.replace(inst.budgets, rho2=1)
    moved = dataclasses.replace(inst, budgets=budgets)
    back = parse_instance(serialize_instance(inst))
    for other in (moved, back):
        assert other.prefs == inst.prefs
        assert (other.gamma, other.colors, other.types) == (inst.gamma, inst.colors, inst.types)
        with pytest.raises(TypeError):
            other.prefs[0] = inst.prefs[1]
    assert moved.budgets == budgets and back.budgets == inst.budgets
    assert serialize_instance(parse_instance(serialize_instance(back))) == serialize_instance(inst)


# --------------------------------------------------------------------------
# Sharing.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("notion", [NS, IS])
@pytest.mark.parametrize("solve", [solve_colors_types, solve_colors_size])
def test_check_after_solve_reads_no_tier(monkeypatch, solve, notion):
    inst = from_x3c([1, 2, 3, 4, 5, 6], [[1, 2, 3], [4, 5, 6], [1, 2, 4]])
    calls = _count_tier_reads(monkeypatch)
    witness = solve(inst, notion)
    assert witness is not None and sum(calls.values()) > 0
    calls.clear()
    assert check_outcome(inst, witness, notion).stable
    assert sum(calls.values()) == 0


def test_back_to_back_calls_share_one_table():
    inst = example1()
    table = tier_table(inst)
    solve_brute(inst, NS)
    solve_colors_size(inst, IS)
    assert tier_table(inst) is table
    assert tier_table(example1()) is not table


# --------------------------------------------------------------------------
# Isolation.
# --------------------------------------------------------------------------


def _twins():
    """Two instances with the same agents and different tier lists."""
    colors, types = [0, 0, 1, 1, 1], [0, 1, 0, 1, 1]
    first = {
        0: TierList([[(1, 2)], [(1, 1)], [(1, 0)]]),
        1: TierList([[(1, 1)], [(0, 1), (1, 0)], [(2, 1)]]),
    }
    second = {
        0: TierList([[(1, 0), (0, 1)], [(2, 1)], [(1, 1)]]),
        1: TierList([[(1, 2)], [(1, 1)]]),
    }
    return tuple(make_instance(colors, prefs, types=types, gamma=2) for prefs in (first, second))


def test_alternating_checks_match_checks_alone():
    one, two = _twins()
    outcomes = _outcomes(one.n)
    alone = {}
    for inst in (one, two):
        for notion in (NS, IS):
            alone[inst, notion] = [_verdict(inst, out, notion) for out in outcomes]
    assert alone[one, NS] != alone[two, NS] and alone[one, IS] != alone[two, IS]
    for notion in (NS, IS):
        for k, out in enumerate(outcomes):
            for inst in (one, two):
                assert _verdict(inst, out, notion) == alone[inst, notion][k]
    for inst in (one, two):
        for notion in (NS, IS):
            for out, (_, dev) in zip(outcomes, alone[inst, notion]):
                assert dev == reference_deviation(inst, out, notion)


def test_a_replaced_instance_never_gets_the_dropped_ones_table():
    # CPython puts a new instance where a just-dropped one was, under the
    # same id, more often than not; only the weak reference tells them
    # apart.  Rounds run until they meet that case; some runs need more
    # than twenty, and 200 misses in a row do not happen in practice.
    outcomes = _outcomes(5)
    reused = 0
    for round_ in range(200):
        if reused:
            break
        inst, other = _twins()[:: 1 if round_ % 2 else -1]
        fields = (other.gamma, other.colors, other.types, other.prefs, other.budgets)
        del other
        assert [_verdict(inst, out, IS)[1] for out in outcomes] == [
            reference_deviation(inst, out, IS) for out in outcomes
        ]
        old, old_id = tier_table(inst), id(inst)
        del inst
        inst = Instance(*fields)
        reused += id(inst) == old_id
        assert tier_table(inst) is not old
        assert [_verdict(inst, out, IS)[1] for out in outcomes] == [
            reference_deviation(inst, out, IS) for out in outcomes
        ]
        del inst
    assert reused > 0


def test_the_slot_keeps_no_instance_alive():
    inst = example1()
    tier_table(inst)
    check_outcome(inst, solve_brute(inst, NS), NS)
    ref = weakref.ref(inst)
    del inst
    gc.collect()
    assert ref() is None
