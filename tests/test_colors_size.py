import itertools
import random

import pytest

from hdg.brute import solve_brute
from hdg import colors_size
from hdg.colors_size import CoalitionType, enumerate_coalition_types, solve_colors_size
from hdg.core import TierList, make_instance
from hdg.errors import SearchSpaceTooLarge
from hdg.ilp import feasible
from hdg.randgen import GenCaps, random_instance
from hdg.stability import IS, NS, Block, DeviationRule, check_outcome

from fixtures import example1, sweep_game
from references import (
    TWO_PLUS,
    Branch,
    branch_is_stable,
    deviation_free,
    some_branch_is_feasible,
)


def multiset_oracle(pairs, caps, sigma):
    # Independent enumeration: all bounded multisets over the present pairs.
    found = set()
    for size in range(1, sigma + 1):
        for combo in itertools.combinations_with_replacement(pairs, size):
            if all(combo.count(p) <= caps[p] for p in set(combo)):
                found.add(tuple(sorted((p, combo.count(p)) for p in set(combo))))
    return found


def test_enumerate_types_example1_sigma2():
    inst = example1(sigma=2)
    got = {t.pair_counts for t in enumerate_coalition_types(inst)}
    want = multiset_oracle(inst.present_pairs, inst.n_ct, 2)
    assert got == want
    # Three singleton shapes plus the four feasible two-agent shapes; the
    # doubled (color0,*) shapes are impossible with one agent each.
    assert len(got) == 7


def test_enumerate_types_sigma1_gives_present_pairs():
    inst = example1(sigma=1)
    got = enumerate_coalition_types(inst)
    assert {t.pair_counts for t in got} == {
        (((c, t), 1),) for (c, t) in inst.present_pairs
    }


def test_enumerate_types_single_agent():
    inst = make_instance([0], {0: TierList([])}, types=[0])
    assert len(enumerate_coalition_types(inst)) == 1


def test_enumerate_types_cap(monkeypatch):
    inst = make_instance([0] * 7, {0: TierList([])}, types=[0] * 7)
    monkeypatch.setattr(colors_size, "TYPES_CAP", 3)
    with pytest.raises(SearchSpaceTooLarge):
        enumerate_coalition_types(inst)


def ctype(*pairs):
    merged = {}
    for p in pairs:
        merged[p] = merged.get(p, 0) + 1
    return CoalitionType(tuple(sorted(merged.items())))


def test_branch_where_everyone_sits_on_top():
    top = TierList([[(1, 1)]])
    inst = make_instance([0, 1], {0: top}, types=[0, 0], gamma=2)
    branch = Branch({ctype((0, 0), (1, 0)): 1})
    assert branch_is_stable(inst, branch, NS)
    assert branch_is_stable(inst, branch, IS)


def test_branch_example1_split_ns_unstable_is_stable():
    inst = example1()
    singleton_b = ctype((0, 1))
    triple = ctype((0, 0), (1, 0), (1, 0))
    branch = Branch({singleton_b: 1, triple: 1})
    assert not branch_is_stable(inst, branch, NS)
    assert branch_is_stable(inst, branch, IS)


def test_branch_self_copy_matters():
    # Two same-shape coalitions tempt each other's members only when the
    # shape occurs at least twice.
    lonely = TierList([[(1, 1)], [(1, 0)]])
    social = TierList([[(1, 2)], [(1, 1)]])
    inst = make_instance([0, 0, 1, 1], {0: lonely, 1: social}, types=[0, 1, 0, 1])
    pair_shape = ctype((0, 0), (1, 1))
    assert branch_is_stable(inst, Branch({pair_shape: 1}), NS)
    # With a second copy, the type-1 member of one copy wants to join the
    # other copy: (1,2) beats (1,1) for it.
    assert not branch_is_stable(inst, Branch({pair_shape: TWO_PLUS}), NS)


def test_solve_example1():
    inst = example1()
    for notion in (NS, IS):
        out = solve_colors_size(inst, notion)
        assert out is not None
        assert check_outcome(inst, out, notion).stable


def test_solve_missing_color_instance():
    # The only listed palette needs a color with no agents, so everything
    # realizable is bottom-indifference and any packing is stable.
    inst = make_instance(
        [0, 0], {0: TierList([[(1, 1)]])}, types=[0, 0], gamma=2
    )
    out = solve_colors_size(inst, NS)
    assert (out is not None) == (solve_brute(inst, NS) is not None)
    assert out is not None


def test_oracle_equivalence_random():
    rng = random.Random(4242)
    for trial in range(120):
        inst = random_instance(rng, GenCaps(n=6, sigma=4))
        for notion in (NS, IS):
            want = solve_brute(inst, notion) is not None
            got = solve_colors_size(inst, notion)
            assert (got is not None) == want, f"trial {trial} {notion}"
            if got is not None:
                assert check_outcome(inst, got, notion).stable


def tight_draws(seed, count):
    # Budgets that bind: rho2 0..2, rho1 at most 4, sigma 1..5, and one
    # in three games own-ratio.
    rng = random.Random(seed)
    for trial in range(count):
        caps = GenCaps(
            n=rng.randint(2, 7), sigma=rng.randint(1, 5), rho1=rng.randint(1, 4),
            rho2=rng.randint(0, 2),
        )
        yield trial, random_instance(rng, caps, own_color=trial % 3 == 2)


def test_tight_budgets_agree_with_brute_force():
    seen = {"sigma": set(), "rho2": set(), "answers": set()}
    for trial, inst in tight_draws(77, 300):
        b = inst.budgets
        seen["sigma"].add(b.sigma)
        seen["rho2"].add(b.rho2)
        for notion in (NS, IS):
            want = solve_brute(inst, notion) is not None
            got = solve_colors_size(inst, notion)
            assert (got is not None) == want, f"trial {trial} {b} {notion}"
            if got is not None:
                assert check_outcome(inst, got, notion).stable
            seen["answers"].add((notion, want))
    assert seen["sigma"] == {1, 2, 3, 4, 5} and seen["rho2"] == {0, 1, 2}
    assert seen["answers"] == {(nt, yes) for nt in (NS, IS) for yes in (True, False)}


def test_pruned_walk_answers_like_every_branch():
    # The support walk, its one system per support (reusing only
    # self-compatible types) and the first-feasible stop drop only branches
    # that cannot be feasible.
    answers = set()
    draws = [(-1, example1())] + list(tight_draws(78, 150))
    draws += [(t, random_instance(random.Random(t), GenCaps(n=6, sigma=4))) for t in range(60)]
    for trial, inst in draws:
        for notion in (NS, IS):
            want = some_branch_is_feasible(inst, notion)
            assert (solve_colors_size(inst, notion) is not None) == want, f"trial {trial} {notion}"
            answers.add(want)
    assert answers == {True, False}


def recorded_systems(monkeypatch, instances, notions=(NS, IS)):
    """Every system the solves of `instances` pass to `feasible`."""
    systems = []

    def recording(system):
        systems.append(system)
        return feasible(system)

    monkeypatch.setattr(colors_size, "feasible", recording)
    for inst in instances:
        for notion in notions:
            solve_colors_size(inst, notion)
    return systems


def test_no_over_committed_or_unplaceable_branch_reaches_the_ilp(monkeypatch):
    # The random draws hold the rare supports whose leftover agents only a
    # type that may not occur twice could take.
    draws = [inst for _, inst in tight_draws(79, 100)]
    draws += [random_instance(random.Random(t), GenCaps(n=6, sigma=4)) for t in range(60)]
    systems = recorded_systems(monkeypatch, draws)
    assert systems
    for system in systems:
        rows = system.equalities + system.inequalities_le
        assert all(rhs >= 0 for _, rhs in rows)
        assert not any(rhs > 0 and not any(coeffs) for coeffs, rhs in system.equalities)


def test_each_support_is_yielded_once():
    for trial, inst in tight_draws(80, 150):
        for notion in (NS, IS):
            supports = [
                tuple(ctype.pair_counts for ctype in support)
                for support, _, _ in colors_size._branches(inst, notion)
            ]
            assert len(supports) == len(set(supports)), (trial, notion)


def test_non_trivial_types_come_first_in_every_system(monkeypatch):
    # The rho2 row holds 1 for a non-trivial type and 0 for a singleton.
    draws = [inst for _, inst in tight_draws(81, 100)]
    draws += [random_instance(random.Random(t), GenCaps(n=6, sigma=4)) for t in range(40)]
    mixed = 0
    for system in recorded_systems(monkeypatch, draws):
        nontrivial = system.inequalities_le[1][0]
        assert list(nontrivial) == sorted(nontrivial, reverse=True)
        mixed += len(set(nontrivial)) == 2
    assert mixed


def test_ilp_calls_stop_growing_with_n(monkeypatch):
    # With one system per support, the number of systems on this game
    # stops growing with n: it is the same at n=48 and at n=64.
    calls = [len(recorded_systems(monkeypatch, [sweep_game(0, n, 8)], (NS,))) for n in (48, 64)]
    assert calls[0] == calls[1], calls


def test_support_cap(monkeypatch):
    monkeypatch.delenv("HDG_SEARCH_CAP", raising=False)
    monkeypatch.setattr(colors_size, "SUPPORT_CAP", 2)
    with pytest.raises(SearchSpaceTooLarge, match="HDG_SEARCH_CAP"):
        solve_colors_size(example1(), NS)


def test_deviation_tests_match_the_tier_of_reference():
    # The deviation rule's block form, read from a tier table, agrees with
    # the reference read straight off each palette with tier_of, for every
    # (source, target) pair of realizable types, a type against itself and
    # against going alone included.
    rng = random.Random(8086)
    verdicts = {NS: [], IS: []}
    for trial in range(60):
        inst = random_instance(rng, GenCaps(n=7), own_color=trial % 3 == 0)
        types = enumerate_coalition_types(inst)
        for notion in (NS, IS):
            rule = DeviationRule(inst, notion)
            blocks = [Block(ctype.pair_counts, inst.gamma) for ctype in types]
            for i, src in enumerate(types):
                got = rule.free(blocks[i])
                assert got == deviation_free(inst.prefs, inst.gamma, src, None, notion)
                for j, dst in enumerate(types):
                    got = rule.free(blocks[i], blocks[j])
                    assert got == deviation_free(inst.prefs, inst.gamma, src, dst, notion), (
                        inst, notion, src, dst,
                    )
                    verdicts[notion].append(got)
    ns, is_ = verdicts[NS], verdicts[IS]
    assert len(ns) > 5000 and 0.1 < sum(ns) / len(ns) < 0.9
    # Vetoes turn some NS deviations into IS-free joins, never the reverse.
    assert all(a <= b for a, b in zip(ns, is_)) and sum(is_) > sum(ns)
