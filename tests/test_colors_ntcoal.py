import itertools
import random

import pytest

from hdg import colors_ntcoal
from hdg.brute import solve_brute
from hdg.colors_ntcoal import (
    TRIVIAL,
    Guess,
    _compositions,
    _flags,
    _seat_ok,
    solve_colors_ntcoal,
)
from hdg.core import TierList, make_instance, reduce_counts, singleton_palette, tier_table
from hdg.errors import SearchSpaceTooLarge
from hdg.randgen import GenCaps, random_instance
from hdg.reductions import from_x3c
from hdg.stability import IS, NS, check_outcome

from fixtures import A, B, C, D, example1, sweep_game
from references import (
    class_valid,
    is_valid_for,
    ntcoal_composition_guesses,
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
                flags = _flags(guess) if notion == IS else [(0, 0, 0)] * inst.gamma
                for color, type_id in inst.present_pairs:
                    for target in [*range(len(guess.compositions)), TRIVIAL]:
                        got = _seat_ok(
                            tiers, guess.compositions, guess.trivial_counts,
                            color, type_id, target, flags[color],
                        )
                        want = class_valid(inst, color, type_id, target, guess, notion)
                        assert got == want, (guess, notion, color, type_id, target)
                        verdicts.append(got)
    assert len(verdicts) > 2000 and 0.1 < sum(verdicts) / len(verdicts) < 0.9


def flag_guess(comps, trivial_counts, color, flags):
    """A guess whose `_seat_ok` flags for `color` are `flags`."""
    refused, into, out = flags
    gamma = len(trivial_counts)
    accepted = tuple(
        tuple(c != color or not refused >> j & 1 for c in range(gamma)) for j in range(len(comps))
    )
    blocked = {(c2, color) for c2 in range(gamma) if into >> c2 & 1}
    blocked |= {(color, c_to) for c_to in range(gamma) if out >> c_to & 1}
    return Guess(comps, trivial_counts, accepted, frozenset(blocked))


def test_seat_test_is_monotone_in_its_flags():
    # For random flags F <= G (G adds refused and into bits and drops out
    # bits), read against the tier_of reference: a seat valid under F is
    # valid under G, and clearing refusal bit j of F drops exactly the
    # seats, other than j, valid under F whose class would rather join j.
    rng = random.Random(5150)
    gained = drops = kept = 0
    for _ in range(400):
        inst = random_instance(rng, GenCaps(n=7, rho2=2))
        tiers = tier_table(inst)
        gamma = inst.gamma
        for _ in range(4):
            guess = random_guess(rng, inst)
            comps, trivial_counts = guess.compositions, guess.trivial_counts
            d = len(comps)
            for color, type_id in inst.present_pairs:
                tier_of = inst.prefs[type_id].tier_of
                others = ((1 << gamma) - 1) & ~(1 << color)
                f = (rng.getrandbits(d), rng.getrandbits(gamma) & others,
                     rng.getrandbits(gamma) & others)
                g = (f[0] | rng.getrandbits(d), f[1] | rng.getrandbits(gamma) & others,
                     f[2] & rng.getrandbits(gamma))
                for target in [*range(d), TRIVIAL]:
                    ok = []
                    for flags in (f, g):
                        args = (tiers, comps, trivial_counts, color, type_id, target, flags)
                        ok.append(_seat_ok(*args))
                        want = flag_guess(comps, trivial_counts, color, flags)
                        assert ok[-1] == class_valid(inst, color, type_id, target, want, IS)
                    assert ok[1] or not ok[0], (f, g, color, type_id, target)
                    gained += ok[1] and not ok[0]
                    if target == TRIVIAL:
                        own = tier_of(singleton_palette(color, gamma))
                    else:
                        own = tier_of(reduce_counts(comps[target]))
                    for j in range(d):
                        if j == target or not f[0] >> j & 1:
                            continue
                        cleared = (f[0] ^ 1 << j, f[1], f[2])
                        drop = ok[0] and not _seat_ok(
                            tiers, comps, trivial_counts, color, type_id, target, cleared
                        )
                        grown = list(comps[j])
                        grown[color] += 1
                        assert drop == (ok[0] and tier_of(reduce_counts(grown)) < own)
                        drops += drop
                        kept += ok[0] and not drop
    assert gained > 100 and drops > 100 and kept > 100, (gained, drops, kept)


def test_relaxed_flags_hold_every_refinement_seat():
    # A family's relaxed flags (its refusals, every blockable pair, no out
    # bits) lie above the flags of each refinement that could saturate, so
    # every seat the reference accepts for such a refinement is valid under
    # them.  A refinement blocking a pair that is not blockable cannot
    # saturate: no class of the pair's first color may sit alone.
    rng = random.Random(6262)
    held = unseatable = 0
    for trial in range(300):
        inst = random_instance(rng, GenCaps(n=7, rho2=2), own_color=trial % 3 == 0)
        tiers = tier_table(inst)
        gamma = inst.gamma

        def alone_first(t, c_from, c_to):
            pair = [0] * gamma
            pair[c_from] += 1
            pair[c_to] += 1
            tier_of = inst.prefs[t].tier_of
            return tier_of(singleton_palette(c_from, gamma)) < tier_of(reduce_counts(pair))

        blockable = {
            (c_from, c_to)
            for c_from, c_to in itertools.permutations(range(gamma), 2)
            if any(alone_first(t, c_from, c_to) for c, t in inst.present_pairs if c == c_from)
        }
        into = [0] * gamma
        for c_from, c_to in blockable:
            into[c_to] |= 1 << c_from
        for comps, trivial_counts in ntcoal_composition_guesses(inst):
            if rng.random() > 0.5:
                continue
            refinements = ntcoal_is_refinements(inst, comps, trivial_counts)
            for guess in itertools.islice(refinements, 64):
                if not guess.blocked <= blockable:
                    c_from = min(c for c, _ in guess.blocked - blockable)
                    assert trivial_counts[c_from] > 0
                    assert not any(
                        class_valid(inst, c, t, TRIVIAL, guess, IS)
                        for c, t in inst.present_pairs
                        if c == c_from
                    )
                    unseatable += 1
                    continue
                for color, type_id in inst.present_pairs:
                    refused = sum(
                        1 << j for j, flags in enumerate(guess.accepted) if not flags[color]
                    )
                    relaxed = (refused, into[color], 0)
                    for target in [*range(len(comps)), TRIVIAL]:
                        if class_valid(inst, color, type_id, target, guess, IS):
                            assert _seat_ok(
                                tiers, comps, trivial_counts, color, type_id, target, relaxed
                            ), (guess, color, type_id, target)
                            held += 1
    assert held > 2000 and unseatable > 200, (held, unseatable)


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
    """No individually stable outcome; the unscreened walk generates 1,608
    IS guesses, and the relaxed family screen rules out every one."""
    prefs = {
        0: TierList([[(3, 2)], [(2, 3)], [(1, 1)]]),
        1: TierList([[(1, 1), (2, 1)], [(1, 2)], [(3, 2)]]),
        2: TierList([[(1, 3)], [(3, 2)], [(0, 1), (1, 1), (1, 2)]]),
    }
    return make_instance([0, 0, 1, 1, 0, 1], prefs, types=[2, 0, 1, 0, 1, 1], sigma=2, rho1=5, rho2=2)


def flowed_guesses(monkeypatch) -> list:
    """Patch `_try_flow` to record each guess it is handed."""
    flowed = []
    real_try = colors_ntcoal._try_flow

    def trying(instance, guess, *args):
        flowed.append(guess)
        return real_try(instance, guess, *args)

    monkeypatch.setattr(colors_ntcoal, "_try_flow", trying)
    return flowed


@pytest.mark.parametrize("notion", [IS, NS])
def test_guess_cap_counts_every_guess_it_flows(monkeypatch, notion):
    # Under IS the cap counts the refinements that reach `_try_flow`, past
    # both screens.  Under NS it counts every node of the composition walk,
    # cut or flowed, so a walk that cuts every leaf stays bounded: 15 nodes
    # on this game (the all-alone guess, and per d = 1, 2 the root and the
    # prefixes that fit), of which 1 reaches the flow, where the plain walk
    # flows 91 guesses.
    inst = sweep_game(0, 16, 2)
    monkeypatch.delenv("HDG_SEARCH_CAP", raising=False)
    want, walked = ntcoal_walk(inst, notion)
    flowed = flowed_guesses(monkeypatch)
    assert solve_colors_ntcoal(inst, notion) == want
    if notion == IS:
        examined = len(flowed)
        assert len(_compositions(inst)) < examined
    else:
        examined = 15
        assert len(flowed) == 1
    assert len(flowed) < walked
    monkeypatch.setattr(colors_ntcoal, "GUESS_CAP", examined)
    assert solve_colors_ntcoal(inst, notion) == want
    monkeypatch.setattr(colors_ntcoal, "GUESS_CAP", examined - 1)
    with pytest.raises(SearchSpaceTooLarge, match="guesses"):
        solve_colors_ntcoal(inst, notion)


def walk_skips_only_failing_leaves(monkeypatch, inst, sample=None):
    """Solve inst under NS and check the composition walk against the
    plain one: it flows leaves of the plain walk, in that walk's order,
    and every leaf it skips up to its last flowed one (all of them, when
    it answers NO) returns None from `_try_flow`; with `sample`, that many
    skipped leaves, drawn with a fixed seed, are checked.  Returns the
    outcome and the numbers of flowed and skipped leaves."""
    real_try = colors_ntcoal._try_flow
    flowed = flowed_guesses(monkeypatch)
    outcome = solve_colors_ntcoal(inst, NS)
    leaves = list(ntcoal_composition_guesses(inst))
    position = {leaf: i for i, leaf in enumerate(leaves)}
    order = [position[g.compositions, g.trivial_counts] for g in flowed]
    assert order == sorted(set(order))
    if outcome is not None:
        leaves = leaves[: order[-1]]
    kept = {leaves[i] for i in order if i < len(leaves)}
    skipped = [leaf for leaf in leaves if leaf not in kept]
    if sample is not None and len(skipped) > sample:
        skipped = random.Random(sample).sample(skipped, sample)
    tiers = tier_table(inst)
    for comps, trivial_counts in skipped:
        assert real_try(inst, Guess(comps, trivial_counts), NS, tiers, {}) is None, comps
    return outcome, len(flowed), len(skipped)


@pytest.mark.parametrize("profile", [0, 1])
@pytest.mark.parametrize("rho2, n", [(2, 8), (2, 16), (2, 32), (4, 8), (4, 12), (4, 24), (4, 48)])
def test_ns_walk_cuts_only_leaves_that_fail(monkeypatch, profile, rho2, n):
    inst = sweep_game(profile, n, rho2)
    outcome, flowed, skipped = walk_skips_only_failing_leaves(monkeypatch, inst)
    assert skipped > flowed
    assert outcome == ntcoal_walk(inst, NS)[0]


@pytest.mark.parametrize("profile", [0, 1])
@pytest.mark.parametrize("n, sample", [(24, None), (32, 2000), (48, 2000)])
def test_ns_walk_cuts_only_leaves_that_fail_at_rho2_eight(monkeypatch, profile, n, sample):
    # Every skipped leaf at n = 24 (p1 answers YES there), a sample of
    # them past it; `-m slow` checks them all, with the plain walk.
    inst = sweep_game(profile, n, 8)
    outcome, flowed, skipped = walk_skips_only_failing_leaves(monkeypatch, inst, sample)
    assert (outcome is not None) == ((profile, n) == (1, 24))
    assert skipped >= 2000 > flowed


@pytest.mark.slow
@pytest.mark.parametrize("profile", [0, 1])
@pytest.mark.parametrize("n", [24, 32, 48])
def test_ns_walk_answers_like_the_plain_walk_at_rho2_eight(monkeypatch, profile, n):
    inst = sweep_game(profile, n, 8)
    outcome, _, _ = walk_skips_only_failing_leaves(monkeypatch, inst)
    assert outcome == ntcoal_walk(inst, NS)[0]


def test_ns_walk_cuts_only_leaves_that_fail_random(monkeypatch):
    # Sweep-style games under random seeds, then draws of up to four
    # colors, where several colors can be forced alone at once and rho1
    # below n makes leaves fall to the rho1 test.
    rng = random.Random(2626)
    games = [
        sweep_game(rng.randrange(10**6), rng.randint(6, 16), rng.randint(2, 4)) for _ in range(40)
    ]
    caps = GenCaps(n=9, gamma=4, rho1=9, rho2=4)
    games += [random_instance(rng, caps, own_color=i % 4 == 0) for i in range(300)]
    flowed = skipped = 0
    for i, inst in enumerate(games):
        outcome, kept, cut = walk_skips_only_failing_leaves(monkeypatch, inst)
        assert outcome == ntcoal_walk(inst, NS)[0], i
        flowed += kept
        skipped += cut
    assert skipped > 4 * flowed > 2000, (flowed, skipped)


X3C_GADGET = ([1, 2, 3, 4, 5, 6], [[1, 2, 3], [4, 5, 6], [1, 2, 4]])


@pytest.mark.parametrize(
    "game, nodes, flowed",
    [
        ((0, 32), 5132, 45),
        ((1, 32), 6419, 479),
        ((0, 64), 21, 1),
        ((1, 64), 3528, 496),
        ("x3c", 1401, 2),
    ],
    ids=["p0-n32", "p1-n32", "p0-n64", "p1-n64", "x3c"],
)
def test_ns_walk_counters(monkeypatch, game, nodes, flowed):
    # Counters are deterministic, so they gate: the walk visits `nodes`
    # nodes (GUESS_CAP trips at one fewer) and flows `flowed` guesses, on
    # the rho2 = 8 sweep games and a nine-color X3C gadget (283
    # compositions; it answers YES).  The plain walk flows 90,274 guesses
    # at n = 32, 125,970 at n = 64 and 9,909 on the gadget.
    inst = from_x3c(*X3C_GADGET) if game == "x3c" else sweep_game(*game, 8)
    monkeypatch.delenv("HDG_SEARCH_CAP", raising=False)
    tried = flowed_guesses(monkeypatch)
    monkeypatch.setattr(colors_ntcoal, "GUESS_CAP", nodes)
    outcome = solve_colors_ntcoal(inst, NS)
    assert (outcome is not None) == (game == "x3c")
    assert len(tried) == flowed
    monkeypatch.setattr(colors_ntcoal, "GUESS_CAP", nodes - 1)
    with pytest.raises(SearchSpaceTooLarge, match="guesses"):
        solve_colors_ntcoal(inst, NS)


def test_screened_refinements_do_not_count_towards_the_cap(monkeypatch):
    # The walk generates 1,608 IS guesses on this game; the screens leave
    # none for the flow, so a cap that only admits the compositions holds.
    inst = no_is_game()
    monkeypatch.delenv("HDG_SEARCH_CAP", raising=False)
    assert ntcoal_walk(inst, IS) == (None, 1608)
    flowed = flowed_guesses(monkeypatch)
    monkeypatch.setattr(colors_ntcoal, "GUESS_CAP", len(_compositions(inst)))
    assert solve_colors_ntcoal(inst, IS) is None and flowed == []


@pytest.mark.parametrize("guard", ["coalition compositions", "guesses"])
def test_guess_cap_names_the_setting(monkeypatch, guard):
    # GUESS_CAP bounds both the compositions and the guesses flowed.
    inst = sweep_game(0, 16, 2)
    cap = 0 if guard == "coalition compositions" else len(_compositions(inst))
    monkeypatch.delenv("HDG_SEARCH_CAP", raising=False)
    monkeypatch.setattr(colors_ntcoal, "GUESS_CAP", cap)
    with pytest.raises(SearchSpaceTooLarge, match=rf"more than {cap} {guard} .*HDG_SEARCH_CAP"):
        solve_colors_ntcoal(inst, IS)


def test_rho2_eight_sweep_game_answers_under_is(monkeypatch):
    # Counting screened refinements made this game trip GUESS_CAP after
    # 500,000 guesses; a few hundred reach the flow.
    inst = sweep_game(0, 32, 8)
    monkeypatch.delenv("HDG_SEARCH_CAP", raising=False)
    outcome = solve_colors_ntcoal(inst, IS)
    assert outcome is not None and check_outcome(inst, outcome, IS).stable


@pytest.mark.parametrize("profile", [223, 247])
def test_blocker_covers_share_seat_validity(monkeypatch, profile):
    # Blockers do not enter seat validity, so across the guesses one
    # composition guess refines into, the flow tests each seat of each
    # (accepted, blocked) pair once, whatever the blocker cover.  These
    # sweep-style games keep hundreds of seat tests past the relaxed
    # family screen (the benchmark's profiles 0 and 1 at n=10 keep 64 and 36).
    inst = sweep_game(profile, 12, 2)
    seats = []
    inside = [None]  # the guess `_try_flow` is testing
    real_valid, real_try = colors_ntcoal._seat_ok, colors_ntcoal._try_flow

    def valid(tiers, comps, trivial_counts, color, type_id, target, flags):
        guess = inside[0]
        if guess is not None:
            seats.append((guess.compositions, guess.accepted, guess.blocked, color, type_id, target))
        return real_valid(tiers, comps, trivial_counts, color, type_id, target, flags)

    def trying(instance, guess, *args):
        inside[0] = guess
        try:
            return real_try(instance, guess, *args)
        finally:
            inside[0] = None

    monkeypatch.setattr(colors_ntcoal, "_seat_ok", valid)
    monkeypatch.setattr(colors_ntcoal, "_try_flow", trying)
    assert solve_colors_ntcoal(inst, IS) == ntcoal_walk(inst, IS)[0]
    assert len(seats) > 500 and len(seats) == len(set(seats))


def unsaturable_families(monkeypatch, inst):
    """Solve inst under IS and return, for each relaxed network the solver
    finds unsaturable, (compositions, trivial counts, the refusable flags)."""
    found = []
    real_relaxed = colors_ntcoal._relaxed_saturates

    def relaxed(instance, tiers, comps, trivial_counts, refusable, into):
        verdict = real_relaxed(instance, tiers, comps, trivial_counts, refusable, into)
        if not verdict:
            found.append((comps, trivial_counts, frozenset(refusable)))
        return verdict

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
