import random

import pytest

from hdg import brute
from hdg.brute import (
    enumerate_stable,
    partitions_within_budgets,
    solve_brute,
    solve_brute_positions,
)
from hdg.core import TierList, make_instance, singleton_palette
from hdg.errors import InstanceTooLarge, SearchSpaceTooLarge
from hdg.randgen import GenCaps, random_instance
from hdg.stability import IS, NS, Outcome, check_outcome, find_ns_deviation

from fixtures import example1
from test_stability import all_partitions


def test_example1_ns_yes_and_witness_stable():
    inst = example1()
    out = solve_brute(inst, NS)
    assert out is not None
    assert check_outcome(inst, out, NS).stable


def test_singleton_instance():
    inst = make_instance([0], {0: TierList([])}, types=[0])
    out = solve_brute(inst, NS)
    assert out is not None and out.coalitions == ((0,),)


def loner_instance(rho1):
    # Four distinct colors, everyone strictly happiest alone: the unique
    # stable partition is all singletons, which needs four coalitions.
    prefs = {c: TierList([[singleton_palette(c, 4)]]) for c in range(4)}
    return make_instance([0, 1, 2, 3], prefs, types=[0, 1, 2, 3], rho1=rho1)


def test_budget_starved_instance_is_no():
    inst = loner_instance(rho1=2)
    # Independent oracle: plain recursive partition enumeration.
    for blocks in all_partitions(range(4)):
        out = Outcome.from_sets(blocks)
        if check_outcome(inst, out, NS).stable:
            pytest.fail(f"unexpected stable outcome {blocks}")
    assert solve_brute(inst, NS) is None
    assert solve_brute(loner_instance(rho1=4), NS) is not None


def test_brute_cap(monkeypatch):
    inst = make_instance([0] * 13, {0: TierList([])}, types=[0] * 13)
    with pytest.raises(InstanceTooLarge):
        solve_brute(inst, NS)
    monkeypatch.setenv("HDG_SEARCH_CAP", "13")
    assert solve_brute(inst, NS) is not None


def test_positions_placement_cap(monkeypatch):
    # rho2*sigma = 6 is inside POSITIONS_CAP whatever n is; the placements
    # checked are what grow with n.  The color-1 agent only likes being
    # alone and every color-0 agent would join it for a (1, 1) palette, so
    # no outcome is stable and every placement is checked.
    likes_mixed = TierList([[(1, 1)], [(1, 0)]])
    likes_alone = TierList([[(0, 1)]])
    inst = make_instance(
        [0, 0, 0, 0, 0, 1], {0: likes_mixed, 1: likes_alone}, types=[0, 0, 0, 0, 0, 1],
        sigma=3, rho2=2,
    )
    checked = []
    real = brute.find_ns_deviation
    monkeypatch.setattr(
        brute, "find_ns_deviation", lambda i, o: checked.append(o) or real(i, o)
    )
    assert solve_brute_positions(inst, NS) is None
    total = len(checked)
    assert total > 10
    monkeypatch.setattr(brute, "PLACEMENTS_CAP", total - 1)
    message = rf"more than {total - 1} placements .*HDG_SEARCH_CAP"
    with pytest.raises(SearchSpaceTooLarge, match=message):
        solve_brute_positions(inst, NS)
    monkeypatch.setenv("HDG_SEARCH_CAP", str(total))
    assert solve_brute_positions(inst, NS) is None


def test_obvious_no_instance_skips_enumeration():
    # n > rho1 * sigma leaves no budget-feasible partition; answered
    # without touching the cap.
    inst = make_instance([0] * 13, {0: TierList([])}, types=[0] * 13, sigma=2, rho1=3)
    assert solve_brute(inst, NS) is None


def test_partition_enumeration_covers_all_symmetry_classes():
    # With pairwise-distinct (color, type) classes no pruning applies, so
    # the enumerator must produce every partition: Bell(4) = 15.
    inst = make_instance([0, 1, 2, 3], {c: TierList([]) for c in range(4)}, types=[0, 1, 2, 3])
    got = {tuple(sorted(tuple(sorted(b)) for b in o.coalitions)) for o in partitions_within_budgets(inst)}
    want = {
        tuple(sorted(tuple(sorted(b)) for b in blocks))
        for blocks in all_partitions(range(4))
    }
    assert got == want


def test_symmetry_pruning_preserves_stability_verdicts():
    rng = random.Random(11)
    for _ in range(20):
        inst = random_instance(rng, GenCaps(n=6))
        pruned_yes = solve_brute(inst, NS) is not None
        full_yes = any(
            check_outcome(inst, Outcome.from_sets(blocks), NS).stable
            for blocks in all_partitions(range(inst.n))
        )
        assert pruned_yes == full_yes


def test_positions_agrees_on_example1_variant():
    inst = example1(rho2=1, sigma=3)
    out = solve_brute_positions(inst, NS)
    assert out is not None
    assert check_outcome(inst, out, NS).stable


def test_positions_rho2_zero_forces_singletons():
    inst = loner_instance(rho1=4)
    tight = make_instance(
        inst.colors, dict(inst.prefs), types=inst.types, rho2=0
    )
    out = solve_brute_positions(tight, NS)
    assert out is not None
    assert all(len(c) == 1 for c in out.coalitions)
    grand_lover = make_instance(
        [0, 1], {0: TierList([[(1, 1)]]), 1: TierList([[(1, 1)]])}, types=[0, 1], rho2=0
    )
    # Being together beats anything, so all-singletons is unstable.
    assert solve_brute_positions(grand_lover, NS) is None


def test_positions_oracle_equivalence_random():
    rng = random.Random(23)
    for _ in range(40):
        inst = random_instance(rng, GenCaps(n=6))
        for notion in (NS, IS):
            a = solve_brute(inst, notion)
            b = solve_brute_positions(inst, notion)
            assert (a is None) == (b is None)
            if b is not None:
                assert check_outcome(inst, b, notion).stable


def test_every_enumerated_stable_outcome_verifies():
    rng = random.Random(5)
    for _ in range(10):
        inst = random_instance(rng, GenCaps(n=5))
        for notion in (NS, IS):
            for out in enumerate_stable(inst, notion):
                assert check_outcome(inst, out, notion).stable
                assert find_ns_deviation(inst, out) is None or notion == IS
