import random
from itertools import permutations

from hdg.brute import solve_brute
from hdg.colors_types import _apply_candidate, _initial_entries, _Setup, solve_colors_types
from hdg.core import TierList, make_instance, palette_of, reduce_counts
from hdg.randgen import GenCaps, random_instance
from hdg.stability import IS, NS, check_outcome

from fixtures import A, B, C, D, example1, sweep_game
from references import (
    Pattern,
    WorstPair,
    branch_reaches_target,
    coalition_compatible,
    solve_colors_types_branchwise,
)


def zero_pattern(instance):
    return Pattern({p: 0 for p in instance.present_pairs}, {p: 0 for p in instance.present_pairs}, 0, 0)


def test_compatible_is_escape_clause():
    # Candidate is both members' top palette; the grown coalition is
    # strictly worse for the second member, which only IS may exploit.
    t0 = TierList([[(1, 1)], [(2, 1)], [(1, 0)]])
    t1 = TierList([[(1, 1)]])
    inst = make_instance([0, 0, 1], {0: t0, 1: t1}, types=[0, 0, 1])
    wp = WorstPair({(0, 0): ((1, 0), (1, 0)), (1, 1): ((0, 1), (0, 1))})
    candidate = {(0, 0): 1, (1, 1): 1}
    assert coalition_compatible(candidate, zero_pattern(inst), wp, inst, IS)
    assert not coalition_compatible(candidate, zero_pattern(inst), wp, inst, NS)


def test_compatible_rejects_oversized():
    inst = example1(sigma=2)
    wp = WorstPair({p: ((1, 1), (1, 1)) for p in inst.present_pairs})
    candidate = {(0, 0): 1, (0, 1): 1, (1, 0): 2}
    assert not coalition_compatible(candidate, zero_pattern(inst), wp, inst, NS)


def replay_compatible(candidate, pattern, wp, inst, notion):
    # Longhand re-derivation of the compatibility conditions.
    size = sum(candidate.values())
    if size == 0 or size > inst.budgets.sigma:
        return False
    if pattern.r + (1 if size >= 2 else 0) > inst.budgets.rho2:
        return False
    if pattern.l + 1 > inst.budgets.rho1:
        return False
    counts = [0] * inst.gamma
    for (c, _), k in candidate.items():
        counts[c] += k
    pal = reduce_counts(counts)
    for c, t in inst.present_pairs:
        tier_of = inst.prefs[t].tier_of
        a_c = candidate.get((c, t), 0)
        c1, c2 = wp.palettes[(c, t)]
        if a_c >= 1 and tier_of(pal) > tier_of(c1):
            return False
        if pattern.a[(c, t)] + a_c > inst.n_ct[(c, t)]:
            return False
        w_c = 1 if a_c >= 1 and tier_of(pal) > tier_of(c2) else 0
        if pattern.w[(c, t)] + w_c > 1:
            return False
        grown = list(counts)
        grown[c] += 1
        plus = reduce_counts(grown)
        options = [
            w_c == 1 and tier_of(plus) >= tier_of(c2),
            w_c == 0 and tier_of(plus) >= tier_of(c1),
            a_c == inst.n_ct[(c, t)],
        ]
        if notion == IS:
            options.append(
                any(
                    inst.prefs[t2].tier_of(plus) > inst.prefs[t2].tier_of(pal)
                    for (c2_, t2), k in candidate.items()
                    if k >= 1
                )
            )
        if not any(options):
            return False
    return True


def test_compatible_matches_definition_replay_on_example1():
    inst = example1()
    rng = random.Random(99)
    pairs = inst.present_pairs
    palettes = [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1)]
    for _ in range(400):
        candidate = {
            p: rng.randint(0, inst.n_ct[p]) for p in pairs if rng.random() < 0.8
        }
        candidate = {p: k for p, k in candidate.items() if k}
        if not candidate:
            continue
        wp = WorstPair(
            {p: (rng.choice(palettes), rng.choice(palettes)) for p in pairs}
        )
        pattern = Pattern(
            {p: rng.randint(0, inst.n_ct[p]) for p in pairs},
            {p: rng.randint(0, 1) for p in pairs},
            rng.randint(0, 2),
            rng.randint(0, 3),
        )
        for notion in (NS, IS):
            assert coalition_compatible(candidate, pattern, wp, inst, notion) == replay_compatible(
                candidate, pattern, wp, inst, notion
            )


def test_solve_example1_both_notions():
    inst = example1()
    for notion in (NS, IS):
        out = solve_colors_types(inst, notion)
        assert out is not None
        assert check_outcome(inst, out, notion).stable


def test_planted_branch_reaches_target():
    # Read the branch off a known Nash-stable outcome: {b,c,d} | {a}.
    inst = example1()
    triple = palette_of({B, C, D}, inst)
    alone_a = palette_of({A}, inst)
    wp = WorstPair(
        {
            (0, 0): (alone_a, alone_a),
            (0, 1): (triple, triple),
            (1, 0): (triple, triple),
        }
    )
    assert branch_reaches_target(inst, wp, NS)


def test_branchwise_and_deferred_agree_with_brute_tiny():
    rng = random.Random(7)
    for trial in range(60):
        inst = random_instance(rng, GenCaps(n=4, gamma=2, tau=2, sigma=4, rho1=4, rho2=2))
        for notion in (NS, IS):
            brute_yes = solve_brute(inst, notion) is not None
            deferred = solve_colors_types(inst, notion)
            assert (deferred is not None) == brute_yes, f"trial {trial} {notion}"
            branchwise = solve_colors_types_branchwise(inst, notion)
            assert branchwise == brute_yes, f"trial {trial} {notion} branchwise"


def test_oracle_equivalence_random():
    rng = random.Random(2024)
    for trial in range(120):
        inst = random_instance(rng, GenCaps(n=7))
        for notion in (NS, IS):
            want = solve_brute(inst, notion) is not None
            got = solve_colors_types(inst, notion)
            assert (got is not None) == want, f"trial {trial} {notion}"
            if got is not None:
                assert check_outcome(inst, got, notion).stable


def test_packing_order_never_changes_the_entries():
    # The solver keys packing states on the multiset of candidates packed,
    # which is sound only because `_apply_candidate` commutes: every order
    # of a multiset gives the same entries for every pair.
    rng = random.Random(4242)
    cases = changed = 0
    for _ in range(60):
        inst = random_instance(rng, GenCaps(n=7))
        for notion in (NS, IS):
            setup = _Setup(inst, notion)
            for _ in range(8):
                multiset = rng.choices(range(len(setup.candidates)), k=rng.randint(2, 4))
                for i in range(len(setup.pairs)):
                    start = _initial_entries(setup, i)
                    results = set()
                    for order in set(permutations(multiset)):
                        entries = start
                        for cand_idx in order:
                            entries = _apply_candidate(setup, i, entries, cand_idx)
                        results.add(entries)
                    assert len(results) == 1, (inst, notion, multiset, i)
                    cases += 1
                    changed += results != {start} and results != {()}
    assert cases > 1000 and changed > 100


def test_packing_a_candidate_more_than_twice_changes_no_entries():
    # `_apply_candidate` keeps w <= 1, takes the max of lo and the min of
    # hi, so packing one candidate k >= 2 times leaves the same entries as
    # packing it twice.  The second copy still matters: it can set w to 1
    # again, which the first copy's entries do not allow.
    rng = random.Random(2718)
    cases = changed = 0
    for _ in range(60):
        inst = random_instance(rng, GenCaps(n=7))
        for notion in (NS, IS):
            setup = _Setup(inst, notion)
            for _ in range(24):
                prefix = rng.choices(range(len(setup.candidates)), k=rng.randint(0, 2))
                cand_idx = rng.randrange(len(setup.candidates))
                for i in range(len(setup.pairs)):
                    entries = _initial_entries(setup, i)
                    for packed in prefix:
                        entries = _apply_candidate(setup, i, entries, packed)
                    once = _apply_candidate(setup, i, entries, cand_idx)
                    twice = more = _apply_candidate(setup, i, once, cand_idx)
                    for k in range(3, 6):
                        more = _apply_candidate(setup, i, more, cand_idx)
                        assert more == twice, (inst, notion, prefix, cand_idx, i, k)
                    cases += 1
                    changed += twice != once
    assert cases > 5000 and changed > 200, (cases, changed)


def test_sweep_games_at_24_agents_agree_with_brute():
    for rho2, notions in ((2, (NS, IS)), (4, (IS,))):
        for profile in (0, 1):
            inst = sweep_game(profile, 24, rho2)
            for notion in notions:
                want = solve_brute(inst, notion) is not None
                got = solve_colors_types(inst, notion)
                assert (got is not None) == want, (profile, rho2, notion)
                if got is not None:
                    assert check_outcome(inst, got, notion).stable


def test_sweep_game_that_tripped_the_state_cap_now_answers():
    # Keyed on the packing order, this search passed STATES_CAP (400,000)
    # packing states; keyed on the multiset it needs about 110,000.
    inst = sweep_game(1, 24, 8)
    out = solve_colors_types(inst, IS)
    assert out is not None
    assert check_outcome(inst, out, IS).stable
