import random

import pytest

from hdg import colors_ntcoal
from hdg.brute import solve_brute
from hdg.colors_ntcoal import (
    TRIVIAL,
    Guess,
    _class_valid,
    _compositions,
    solve_colors_ntcoal,
)
from hdg.core import TierList, make_instance, tier_table
from hdg.errors import SearchSpaceTooLarge
from hdg.randgen import GenCaps, random_instance
from hdg.stability import IS, NS, check_outcome

from fixtures import A, B, C, D, example1, sweep_game
from references import (
    class_valid,
    is_valid_for,
    ntcoal_flow,
    ntcoal_is_refinements,
    ntcoal_walk,
)


def example1_guess():
    # One size-3 coalition with one color-0 and two color-1 agents, plus a
    # single color-0 singleton.
    return Guess(compositions=((1, 2),), trivial_counts=(1, 0))


def test_is_valid_for_b_rejects_trivial_seat():
    inst = example1()
    assert not is_valid_for(B, TRIVIAL, example1_guess(), inst, NS)


def test_is_valid_for_a_accepts_trivial_seat():
    inst = example1()
    assert is_valid_for(A, TRIVIAL, example1_guess(), inst, NS)


def test_is_valid_for_indifferent_agent_everywhere():
    # Bottom-tier indifference: valid anywhere its color fits.
    inst = make_instance([0, 0, 1], {0: TierList([])}, types=[0, 0, 0], gamma=2)
    guess = Guess(compositions=((1, 1),), trivial_counts=(1, 0))
    assert is_valid_for(0, 0, guess, inst, NS)
    assert is_valid_for(0, TRIVIAL, guess, inst, NS)
    assert not is_valid_for(2, TRIVIAL, guess, inst, NS)  # no color-1 trivial slot fits? color mismatch is fine
    # color-1 agent on the coalition slot:
    assert is_valid_for(2, 0, guess, inst, NS)


def test_ns_validity_ignores_is_fields():
    inst = example1()
    bare = example1_guess()
    decorated = Guess(
        compositions=bare.compositions,
        trivial_counts=bare.trivial_counts,
        accepted=((False, False),),
        blocked=frozenset({(0, 1), (1, 0)}),
    )
    for agent in (A, B, C, D):
        for target in (0, TRIVIAL):
            assert is_valid_for(agent, target, bare, inst, NS) == is_valid_for(
                agent, target, decorated, inst, NS
            )


def test_example1_rho2_one():
    inst = example1(rho2=1)
    out = solve_colors_ntcoal(inst, NS)
    assert out is not None
    assert check_outcome(inst, out, NS).stable
    # The only Nash-stable split is {b,c,d} | {a} up to agent interchange.
    assert sorted(len(b) for b in out.coalitions) == [1, 3]


def test_rho2_zero_forces_singletons():
    happy_alone = TierList([[(1, 0)]])
    inst = make_instance([0, 0], {0: happy_alone}, types=[0, 0], gamma=2, rho2=0)
    out = solve_colors_ntcoal(inst, NS)
    assert out is not None and all(len(b) == 1 for b in out.coalitions)

    grand_lover = TierList([[(1, 1)]])
    inst2 = make_instance([0, 1], {0: grand_lover}, types=[0, 0], gamma=2, rho2=0)
    assert solve_colors_ntcoal(inst2, NS) is None


def test_rho1_examples():
    inst = example1(rho1=2)
    out = solve_colors_ntcoal(inst, NS)
    assert out is not None and check_outcome(inst, out, NS).stable

    # rho1=1 forces the grand coalition, which agent a deserts.
    assert solve_colors_ntcoal(example1(rho1=1), NS) is None
    grand_lover = TierList([[(1, 1)]])
    cozy = make_instance([0, 1], {0: grand_lover}, types=[0, 0], gamma=2, rho1=1)
    out = solve_colors_ntcoal(cozy, NS)
    assert out is not None and len(out.coalitions) == 1


def test_oracle_equivalence_random():
    rng = random.Random(777)
    for trial in range(120):
        inst = random_instance(rng, GenCaps(n=7, rho2=2))
        for notion in (NS, IS):
            want = solve_brute(inst, notion) is not None
            got = solve_colors_ntcoal(inst, notion)
            assert (got is not None) == want, f"trial {trial} {notion}"
            if got is not None:
                assert check_outcome(inst, got, notion).stable


def random_guess(rng, inst):
    """Any guess shape the seat test may meet, IS fields drawn freely."""
    comps_all = _compositions(inst)
    comps = tuple(rng.choice(comps_all) for _ in range(rng.randint(0, 3) if comps_all else 0))
    gamma = inst.gamma
    trivial_counts = tuple(rng.randint(0, 2) for _ in range(gamma))
    accepted = None
    if rng.random() < 0.8:
        accepted = tuple(tuple(rng.random() < 0.5 for _ in range(gamma)) for _ in comps)
    blocked = None
    if rng.random() < 0.8:
        pairs = [(a, b) for a in range(gamma) for b in range(gamma) if a != b]
        blocked = frozenset(p for p in pairs if rng.random() < 0.4)
    return Guess(comps, trivial_counts, accepted, blocked)


def test_seat_test_matches_reference():
    rng = random.Random(4242)
    verdicts = []
    for _ in range(150):
        inst = random_instance(rng, GenCaps(n=7), own_color=rng.random() < 0.3)
        tiers = tier_table(inst)  # one memo across guesses, as within a solve
        for _ in range(5):
            guess = random_guess(rng, inst)
            for notion in (NS, IS):
                for color, type_id in inst.present_pairs:
                    for target in [*range(len(guess.compositions)), TRIVIAL]:
                        got = _class_valid(tiers, color, type_id, target, guess, notion)
                        want = class_valid(inst, color, type_id, target, guess, notion)
                        assert got == want, (guess, notion, color, type_id, target)
                        verdicts.append(got)
    assert len(verdicts) > 2000 and 0.1 < sum(verdicts) / len(verdicts) < 0.9


def test_same_outcome_as_unpruned_walk_random():
    rng = random.Random(2024)
    for trial in range(220):
        inst = random_instance(rng, GenCaps(n=7, rho2=2), own_color=trial % 4 == 0)
        for notion in (NS, IS):
            want, _ = ntcoal_walk(inst, notion)
            assert solve_colors_ntcoal(inst, notion) == want, f"trial {trial} {notion}"


@pytest.mark.parametrize("profile", [0, 1])
@pytest.mark.parametrize("n", [8, 10])
@pytest.mark.parametrize("notion", [NS, IS])
def test_same_outcome_as_unpruned_walk_sweep(profile, n, notion):
    inst = sweep_game(profile, n, 2)
    assert solve_colors_ntcoal(inst, notion) == ntcoal_walk(inst, notion)[0]


def no_is_game():
    """No individually stable outcome; most of its 1,608 IS guesses are
    dominated refinements."""
    prefs = {
        0: TierList([[(3, 2)], [(2, 3)], [(1, 1)]]),
        1: TierList([[(1, 1), (2, 1)], [(1, 2)], [(3, 2)]]),
        2: TierList([[(1, 3)], [(3, 2)], [(0, 1), (1, 1), (1, 2)]]),
    }
    return make_instance([0, 0, 1, 1, 0, 1], prefs, types=[2, 0, 1, 0, 1, 1], sigma=2, rho1=5, rho2=2)


@pytest.mark.parametrize(
    "game, notion",
    [(no_is_game, IS), (lambda: sweep_game(0, 16, 2), NS)],
    ids=["no-is-game", "sweep-p0-n16-ns"],
)
def test_guess_cap_counts_every_generated_guess(monkeypatch, game, notion):
    # Screened and dominated guesses still count, so the cap trips at the
    # same guess as in the walk that sends every guess to max_flow.
    inst = game()
    monkeypatch.delenv("HDG_SEARCH_CAP", raising=False)
    outcome, examined = ntcoal_walk(inst, notion)
    assert outcome is None and len(_compositions(inst)) < examined
    passed_over = []
    real_guesses = colors_ntcoal._is_guesses

    def counting(*args):
        for guess in real_guesses(*args):
            passed_over.append(guess is None)
            yield guess

    monkeypatch.setattr(colors_ntcoal, "_is_guesses", counting)
    monkeypatch.setattr(colors_ntcoal, "GUESS_CAP", examined)
    assert solve_colors_ntcoal(inst, notion) is None
    if notion == IS:
        assert len(passed_over) == examined and sum(passed_over) > examined // 2
    monkeypatch.setattr(colors_ntcoal, "GUESS_CAP", examined - 1)
    with pytest.raises(SearchSpaceTooLarge):
        solve_colors_ntcoal(inst, notion)


@pytest.mark.parametrize("profile", [223, 247])
def test_blocker_covers_share_seat_validity(monkeypatch, profile):
    # Blockers do not enter seat validity, so across the guesses one
    # composition guess refines into, the flow tests each seat of each
    # (accepted, blocked) pair once, whatever the blocker cover.  These
    # sweep-style games keep hundreds of seat tests past the relaxed
    # family screen (the benchmark's profiles 0 and 1 at n=10 keep 64 and 36).
    inst = sweep_game(profile, 12, 2)
    seats = []
    inside = [False]
    real_valid, real_try = colors_ntcoal._class_valid, colors_ntcoal._try_flow

    def valid(tiers, color, type_id, target, guess, notion):
        if inside[0]:
            seats.append((guess.compositions, guess.accepted, guess.blocked, color, type_id, target))
        return real_valid(tiers, color, type_id, target, guess, notion)

    def trying(*args):
        inside[0] = True
        try:
            return real_try(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(colors_ntcoal, "_class_valid", valid)
    monkeypatch.setattr(colors_ntcoal, "_try_flow", trying)
    assert solve_colors_ntcoal(inst, IS) == ntcoal_walk(inst, IS)[0]
    assert len(seats) > 500 and len(seats) == len(set(seats))


def unsaturable_families(monkeypatch, inst):
    """Solve inst under IS and return, for each relaxed network the solver
    finds unsaturable, (compositions, trivial counts, the refusable flags)."""
    found = []
    family = [None]
    real_guesses, real_relaxed = colors_ntcoal._is_guesses, colors_ntcoal._relaxed_saturates

    def guesses(instance, tiers, types_of_color, comps, trivial_counts):
        family[0] = (comps, trivial_counts)
        yield from real_guesses(instance, tiers, types_of_color, comps, trivial_counts)

    def relaxed(*args):
        verdict = real_relaxed(*args)
        if not verdict:
            found.append((*family[0], frozenset(args[-1])))
        return verdict

    monkeypatch.setattr(colors_ntcoal, "_is_guesses", guesses)
    monkeypatch.setattr(colors_ntcoal, "_relaxed_saturates", relaxed)
    solve_colors_ntcoal(inst, IS)
    return found


def refinements_passed_over(inst, found) -> int:
    """Check that no refinement refusing only flags of an unsaturable
    relaxed network saturates on the reference flow; return how many."""
    checked = 0
    for comps, trivial_counts, refusable in found:
        for guess in ntcoal_is_refinements(inst, comps, trivial_counts):
            refused = {
                (j, c)
                for j, flags in enumerate(guess.accepted)
                for c, accepts in enumerate(flags)
                if not accepts
            }
            if refused <= refusable:
                assert ntcoal_flow(inst, guess, IS) is None, guess
                checked += 1
    return checked


def test_relaxed_screen_passes_over_no_saturating_refinement_random(monkeypatch):
    rng = random.Random(1616)
    families = checked = 0
    for trial in range(400):
        inst = random_instance(rng, GenCaps(n=7, rho2=2), own_color=trial % 3 == 0)
        found = unsaturable_families(monkeypatch, inst)
        families += len(found)
        checked += refinements_passed_over(inst, found)
    assert families > 50 and checked > 200


@pytest.mark.parametrize("profile", [0, 1])
@pytest.mark.parametrize("n", [8, 10, 12, 16])
def test_relaxed_screen_passes_over_no_saturating_refinement_sweep(monkeypatch, profile, n):
    inst = sweep_game(profile, n, 2)
    found = unsaturable_families(monkeypatch, inst)
    assert found and refinements_passed_over(inst, found) > len(found)
