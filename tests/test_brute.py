import random
from collections import Counter

import pytest

from hdg import brute
from hdg.brute import enumerate_stable, solve_brute
from hdg.colors_types import solve_colors_types
from hdg.core import TierList, make_instance, singleton_palette
from hdg.errors import SearchSpaceTooLarge, SolverDivergence
from hdg.randgen import GenCaps, random_instance
from hdg.stability import IS, NS, Outcome, check_outcome, find_is_deviation, find_ns_deviation

from fixtures import example1, sweep_game
from oracles import reference_deviation
from references import partitions_within_budgets
from test_stability import all_partitions


def agent_level_yes(instance, notion):
    """Whether some budget-respecting partition, enumerated agent by agent, is stable."""
    finder = find_ns_deviation if notion == NS else find_is_deviation
    return any(finder(instance, out) is None for out in partitions_within_budgets(instance))


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
    # The cap counts outcomes, not agents: 13 agents are answered at the
    # default cap, on the first outcome tried.
    inst = make_instance([0] * 13, {0: TierList([])}, types=[0] * 13)
    assert solve_brute(inst, NS) is not None
    monkeypatch.setattr(brute, "BRUTE_CAP", 0)
    with pytest.raises(SearchSpaceTooLarge, match=r"more than 0 outcomes .*HDG_SEARCH_CAP"):
        solve_brute(inst, NS)
    monkeypatch.setenv("HDG_SEARCH_CAP", "1")
    assert solve_brute(inst, NS) is not None


def counting_ns(monkeypatch):
    # Records each candidate brute force decides, as its chosen and alone blocks.
    checked = []
    real = brute.settled

    def counting(rule, chosen, alone):
        checked.append((tuple(chosen), tuple(alone)))
        return real(rule, chosen, alone)

    monkeypatch.setattr(brute, "settled", counting)
    return checked


def test_outcome_cap_counts_every_outcome_tried(monkeypatch):
    # The color-1 agent only likes being alone and every color-0 agent
    # would join it, so no outcome is stable and every outcome is tried.
    likes_mixed = TierList([[(1, 1)], [(1, 0)]])
    likes_pair = TierList([[(2, 1)], [(1, 0)]])
    likes_alone = TierList([[(0, 1)]])
    inst = make_instance(
        [0] * 6 + [1], {0: likes_mixed, 1: likes_alone, 2: likes_pair},
        types=[0, 0, 0, 2, 2, 2, 1], sigma=3, rho2=3,
    )
    checked = counting_ns(monkeypatch)
    assert solve_brute(inst, NS) is None
    total = len(checked)
    assert total > 10
    assert len(set(checked)) == total  # no candidate is decided twice
    monkeypatch.setattr(brute, "BRUTE_CAP", total - 1)
    message = rf"more than {total - 1} outcomes .*HDG_SEARCH_CAP"
    with pytest.raises(SearchSpaceTooLarge, match=message):
        solve_brute(inst, NS)
    monkeypatch.setenv("HDG_SEARCH_CAP", str(total))
    assert solve_brute(inst, NS) is None


def test_obvious_no_instance_skips_enumeration(monkeypatch):
    # n > rho1 * sigma leaves no budget-feasible partition; answered
    # without trying an outcome.
    inst = make_instance([0] * 13, {0: TierList([])}, types=[0] * 13, sigma=2, rho1=3)
    checked = counting_ns(monkeypatch)
    assert solve_brute(inst, NS) is None
    assert checked == []


def _canonical(outcome):
    return tuple(sorted(tuple(sorted(b)) for b in outcome.coalitions))


def test_partition_enumeration_covers_all_symmetry_classes():
    # With pairwise-distinct (color, type) classes no pruning applies, so
    # both enumerators must produce every partition: Bell(4) = 15.  With
    # no preferences every outcome is stable, so the class-level one
    # yields them all.
    inst = make_instance([0, 1, 2, 3], {c: TierList([]) for c in range(4)}, types=[0, 1, 2, 3])
    want = {
        tuple(sorted(tuple(sorted(b)) for b in blocks))
        for blocks in all_partitions(range(4))
    }
    assert {_canonical(o) for o in partitions_within_budgets(inst)} == want
    for notion in (NS, IS):
        got = [_canonical(o) for o in enumerate_stable(inst, notion)]
        assert len(got) == len(want) and set(got) == want


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


def test_example1_variant_with_one_nontrivial_coalition():
    inst = example1(rho2=1, sigma=3)
    out = solve_brute(inst, NS)
    assert out is not None
    assert check_outcome(inst, out, NS).stable


def test_rho2_zero_forces_singletons():
    inst = loner_instance(rho1=4)
    tight = make_instance(
        inst.colors, dict(inst.prefs), types=inst.types, rho2=0
    )
    out = solve_brute(tight, NS)
    assert out is not None
    assert all(len(c) == 1 for c in out.coalitions)
    grand_lover = make_instance(
        [0, 1], {0: TierList([[(1, 1)]]), 1: TierList([[(1, 1)]])}, types=[0, 1], rho2=0
    )
    # Being together beats anything, so all-singletons is unstable.
    assert solve_brute(grand_lover, NS) is None


def test_agrees_with_agent_level_reference_random():
    rng = random.Random(23)
    for _ in range(40):
        inst = random_instance(rng, GenCaps(n=6))
        for notion in (NS, IS):
            out = solve_brute(inst, notion)
            assert (out is not None) == agent_level_yes(inst, notion)
            if out is not None:
                assert check_outcome(inst, out, notion).stable


def test_every_enumerated_stable_outcome_verifies():
    rng = random.Random(5)
    for _ in range(10):
        inst = random_instance(rng, GenCaps(n=5))
        for notion in (NS, IS):
            for out in enumerate_stable(inst, notion):
                assert check_outcome(inst, out, notion).stable
                assert find_ns_deviation(inst, out) is None or notion == IS


def test_unstable_witness_is_a_divergence(monkeypatch):
    # A candidate decision that misses every deviation hands over an
    # unstable outcome; the re-verification catches it.
    monkeypatch.setattr(brute, "settled", lambda rule, chosen, alone: True)
    grand_lover = make_instance(
        [0, 1], {0: TierList([[(1, 1)]]), 1: TierList([[(1, 1)]])}, types=[0, 1], rho2=0
    )
    with pytest.raises(SolverDivergence, match="fails its check"):
        solve_brute(grand_lover, NS)


def test_subtree_prune_needs_a_deviator_inside_the_chosen_coalitions():
    # One type, happiest in a (2, 1) or (1, 1) coalition, indifferent to
    # the rest; two (2, 1) coalitions and a lone color-0 agent are stable.
    # With one (2, 1) coalition chosen and everyone else alone, the first
    # deviator is agent 3, a lone color-1 agent joining it.  That deviation
    # is gone once agent 3 sits in a second chosen coalition, so it must
    # not cut the subtree.
    inst = make_instance(
        [0, 0, 1, 1, 0, 0, 0], {0: TierList([[(2, 1), (1, 1)]])}, types=[0] * 7,
        sigma=3, rho1=5, rho2=3,
    )
    for notion in (NS, IS):
        assert agent_level_yes(inst, notion)
        out = solve_brute(inst, notion)
        assert out is not None and check_outcome(inst, out, notion).stable


def _class_shape(instance, outcome):
    """An outcome up to swapping agents of one (color, type) class."""
    classes = list(zip(instance.colors, instance.types))
    return tuple(sorted(tuple(sorted(classes[a] for a in block)) for block in outcome.coalitions))


def test_class_level_decision_matches_the_agent_level_reference():
    # The candidates brute force finds stable at class level are, up to
    # class symmetry, exactly the budget-respecting partitions the
    # agent-by-agent reference finds stable.  The reference's first
    # deviations cover every kind the class-level closing decides: an agent
    # alone joining a non-trivial coalition or another agent alone, and a
    # member of a non-trivial coalition joining an agent alone.  Enough
    # draws repeat a non-trivial coalition to need its self-compatibility.
    rng = random.Random(4242)
    kinds = Counter()
    vetoed = 0
    for trial in range(400):
        inst = random_instance(rng, GenCaps(n=6, rho1=6, rho2=3), own_color=trial % 3 == 0)
        stable = {}
        for notion in (NS, IS):
            got = [_class_shape(inst, out) for out in enumerate_stable(inst, notion)]
            want = []
            for out in partitions_within_budgets(inst):
                dev = reference_deviation(inst, out, notion)
                if dev is None:
                    want.append(_class_shape(inst, out))
                    continue
                agent, target, _ = dev
                size = {a: len(block) for block in out.coalitions for a in block}
                source = "chosen" if size[agent] > 1 else "alone"
                joined = "empty" if target == -1 else (
                    "chosen" if len(out.coalitions[target]) > 1 else "alone"
                )
                kinds[notion, source, joined] += 1
            assert len(got) == len(set(got)) and set(got) == set(want), (trial, notion)
            stable[notion] = set(want)
        vetoed += len(stable[IS] - stable[NS])
    for notion in (NS, IS):
        for source, joined in (("alone", "chosen"), ("alone", "alone"), ("chosen", "alone")):
            assert kinds[notion, source, joined], (notion, source, joined)
    assert vetoed  # IS vetoes make some NS-unstable partitions stable


@pytest.mark.parametrize("notion", [NS, IS])
@pytest.mark.parametrize("profile", [0, 1])
def test_sweep_games_at_24_agents_and_rho2_4(profile, notion):
    # Answered under the default caps, in agreement with colors-types.
    inst = sweep_game(profile, 24, 4)
    out = solve_brute(inst, notion)
    assert (out is None) == (solve_colors_types(inst, notion) is None)
    assert out is None or check_outcome(inst, out, notion).stable
