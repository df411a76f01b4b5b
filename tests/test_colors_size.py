import random

import pytest

from hdg.brute import solve_brute
from hdg import colors_size
from hdg.colors_size import enumerate_coalition_types, solve_colors_size
from hdg.core import TierList, make_instance, realizable_palettes, singleton_palette
from hdg.errors import SearchSpaceTooLarge
from hdg.ilp import feasible
from hdg.randgen import GenCaps, random_instance
from hdg.stability import IS, NS, DeviationRule, check_outcome, deviation_rule, shapes

from fixtures import example1, sweep_game
from references import (
    TWO_PLUS,
    Branch,
    branch_is_stable,
    deviation_free,
    shape_multisets,
    some_branch_is_feasible,
)
from test_brute import agent_level_yes


def test_enumerate_types_example1_sigma2():
    inst = example1(sigma=2)
    got = {block.pair_counts for _, block in enumerate_coalition_types(inst)}
    want = shape_multisets(inst.present_pairs, inst.n_ct, 2)
    assert got == want
    # Three singleton shapes plus the four feasible two-agent shapes; the
    # doubled (color0,*) shapes are impossible with one agent each.
    assert len(got) == 7


def test_enumerate_types_sigma1_gives_present_pairs():
    inst = example1(sigma=1)
    got = enumerate_coalition_types(inst)
    assert {block.pair_counts for _, block in got} == {
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


def shape(*pairs):
    # The sorted ((color, type), count) entries of a multiset of pairs.
    merged = {}
    for p in pairs:
        merged[p] = merged.get(p, 0) + 1
    return tuple(sorted(merged.items()))


def test_branch_where_everyone_sits_on_top():
    top = TierList([[(1, 1)]])
    inst = make_instance([0, 1], {0: top}, types=[0, 0], gamma=2)
    branch = Branch({shape((0, 0), (1, 0)): 1})
    assert branch_is_stable(inst, branch, NS)
    assert branch_is_stable(inst, branch, IS)


def test_branch_example1_split_ns_unstable_is_stable():
    inst = example1()
    singleton_b = shape((0, 1))
    triple = shape((0, 0), (1, 0), (1, 0))
    branch = Branch({singleton_b: 1, triple: 1})
    assert not branch_is_stable(inst, branch, NS)
    assert branch_is_stable(inst, branch, IS)


def test_branch_self_copy_matters():
    # Two same-shape coalitions tempt each other's members only when the
    # shape occurs at least twice.
    lonely = TierList([[(1, 1)], [(1, 0)]])
    social = TierList([[(1, 2)], [(1, 1)]])
    inst = make_instance([0, 0, 1, 1], {0: lonely, 1: social}, types=[0, 1, 0, 1])
    pair_shape = shape((0, 0), (1, 1))
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
    # The support walk over non-trivial types, its one system per maximal
    # set of lone classes (reusing only self-compatible types) and the
    # first-feasible stop drop only branches that cannot be feasible.
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
    # type that may not occur twice could take; no right-hand side is
    # negative and no row without a variable asks for agents.
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
                tuple(block.pair_counts for _, block, _ in support)
                for support, _ in colors_size.supports(inst, notion)
            ]
            assert len(supports) == len(set(supports)), (trial, notion)


def test_non_trivial_types_come_first_in_every_system(monkeypatch):
    # The rho2 row holds 1 for a copy of a non-trivial type and 0 for the
    # lone agents of a class, which come last.
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
        blocks = [block for _, block in enumerate_coalition_types(inst)]
        for notion in (NS, IS):
            rule = DeviationRule(inst, notion)
            for src in blocks:
                got = rule.free(src)
                assert got == deviation_free(inst.prefs, inst.gamma, src.pair_counts, None, notion)
                for dst in blocks:
                    got = rule.free(src, dst)
                    want = deviation_free(
                        inst.prefs, inst.gamma, src.pair_counts, dst.pair_counts, notion
                    )
                    assert got == want, (inst, notion, src.pair_counts, dst.pair_counts)
                    verdicts[notion].append(got)
    ns, is_ = verdicts[NS], verdicts[IS]
    assert len(ns) > 5000 and 0.1 < sum(ns) / len(ns) < 0.9
    # Vetoes turn some NS deviations into IS-free joins, never the reverse.
    assert all(a <= b for a, b in zip(ns, is_)) and sum(is_) > sum(ns)


def test_lone_agents_of_one_color_never_deviate_to_each_other():
    # A coalition of one color has that color's one-agent palette, however
    # many agents and types it holds, so two lone agents of one color are
    # as well off together as alone: the lone classes of a color are
    # always compatible, under both notions and in own-ratio games too.
    rng = random.Random(5150)
    palettes = 0
    for trial in range(150):
        inst = random_instance(rng, GenCaps(n=7, gamma=4, tau=4), own_color=trial % 3 == 0)
        for palette in realizable_palettes(inst, inst.n):
            colors = [c for c, k in enumerate(palette) if k]
            if len(colors) == 1:
                assert palette == singleton_palette(colors[0], inst.gamma)
                palettes += 1
        singles = shapes(inst).singles
        for notion in (NS, IS):
            free = deviation_rule(inst, notion).free
            for a in singles:
                for b in singles:
                    if a.counts == b.counts:
                        assert free(a, b), (trial, notion, a.pair_counts, b.pair_counts)
    assert palettes > 200


def conflicting_draws(seed, count):
    """(instance, notion) pairs: draws with 3-4 colors and room for a
    non-trivial coalition where, under the notion, the lone agents of two
    classes of different colors would not both stay alone."""
    rng = random.Random(seed)
    found = 0
    while found < count:
        caps = GenCaps(n=7, gamma=4, tau=rng.randint(1, 3), sigma=rng.randint(2, 4), rho1=7)
        inst = random_instance(rng, caps, own_color=rng.random() < 0.2)
        if len(set(inst.colors)) < 3 or not inst.budgets.rho2:
            continue
        singles = shapes(inst).singles
        for notion in (NS, IS):
            free = deviation_rule(inst, notion).free
            if any(
                a.counts != b.counts and not free(a, b) for a in singles for b in singles
            ):
                found += 1
                yield inst, notion


def mixed_pairs_game():
    # One type, happiest in a pair of colors 0 and 1, then alone.  One
    # such pair leaves an agent of each color, and lone agents of colors 0
    # and 1 would pair up: the maximal lone sets are {0, 2} and {1, 2}.
    alone = [singleton_palette(c, 3) for c in range(3)]
    return make_instance(
        [0, 0, 1, 1, 2], {0: TierList([[(1, 1, 0)], alone])}, types=[0] * 5,
        gamma=3, sigma=2, rho2=2,
    )


def test_lone_classes_that_conflict_agree_with_every_reference(monkeypatch):
    # Both solvers walk the same supports and close them differently:
    # colors-size with one system per maximal set of lone classes, brute
    # force by trying every candidate.  Both answer like colors-size's
    # unpruned branch reference and the agent-level enumeration, and some
    # supports have more than one maximal set.
    groups = []
    real = colors_size._lone_sets

    def recording(lone, fits):
        found = list(real(lone, fits))
        groups.append(found)
        return iter(found)

    monkeypatch.setattr(colors_size, "_lone_sets", recording)
    game = mixed_pairs_game()
    for notion in (NS, IS):
        out = solve_colors_size(game, notion)
        assert out is not None and sorted(map(len, out.coalitions)) == [1, 2, 2]
    assert [[0, 2], [1, 2]] in groups
    groups.clear()
    answers = set()
    for inst, notion in conflicting_draws(90, 80):
        want = agent_level_yes(inst, notion)
        assert some_branch_is_feasible(inst, notion) == want
        for solve in (solve_colors_size, solve_brute):
            got = solve(inst, notion)
            assert (got is not None) == want, (inst, notion, solve.__name__)
            assert got is None or check_outcome(inst, got, notion).stable
        answers.add((notion, want))
    assert answers == {(nt, yes) for nt in (NS, IS) for yes in (True, False)}
    assert any(len(found) > 1 for found in groups)


@pytest.mark.parametrize("n", [32, 48])
@pytest.mark.parametrize("profile", [0, 1])
def test_sweep_games_at_rho2_8_are_answered_under_is(profile, n):
    # The walk order decides this regime: both games answer under the
    # default caps, with the YES that colors-types finds at these n.
    inst = sweep_game(profile, n, 8)
    out = solve_colors_size(inst, IS)
    assert out is not None and check_outcome(inst, out, IS).stable
