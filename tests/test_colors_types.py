import random
from itertools import permutations

import pytest

from hdg.brute import solve_brute
from hdg import colors_types
from hdg.colors_types import (
    _apply_candidate,
    _initial_entries,
    _Residuals,
    _Setup,
    _Viabilities,
    solve_colors_types,
)
from hdg.core import TierList, make_instance, palette_of, reduce_counts, singleton_palette
from hdg.errors import SearchSpaceTooLarge
from hdg.randgen import GenCaps, random_instance
from hdg.stability import IS, NS, check_outcome

from fixtures import A, B, C, D, example1, sweep_game
from references import (
    Pattern,
    WorstPair,
    branch_reaches_target,
    candidate_rows,
    coalition_compatible,
    colors_types_bfs,
    solve_colors_types_branchwise,
    theta_palettes,
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


def test_closing_pair_by_pair_matches_packing_every_singleton():
    # A state closes when every pair keeps an entry once each pair's
    # singleton is packed at most twice; packing it once per leftover agent
    # must keep a viability exactly then.  Packing it only once would not
    # give the same viability.
    rng = random.Random(1618)
    cases = once_differs = 0
    for _ in range(60):
        inst = random_instance(rng, GenCaps(n=7))
        for notion in (NS, IS):
            setup = _Setup(inst, notion)
            init = tuple(_initial_entries(setup, i) for i in range(len(setup.pairs)))
            if not all(init):
                continue
            viabilities = _Viabilities(setup, init)
            residuals = _Residuals(setup)

            def packed(vid, cands):
                for cand_idx in cands:
                    vid = viabilities.move(vid, cand_idx) if vid >= 0 else vid
                return vid

            for _ in range(8):
                vid = packed(0, rng.choices(range(len(setup.candidates)), k=rng.randint(0, 2)))
                if vid < 0:
                    continue
                left = [rng.randint(0, 4) for _ in setup.pairs]
                pattern = sum(min(count, 2) * 3**i for i, count in enumerate(left))
                if all(map(int.__le__, left, setup.n_vec)):
                    residual = residuals.packing.guard + residuals.packing.pack(left)
                    assert residuals.left(residual) == (sum(left), pattern)
                singles = list(zip(viabilities.singles, left))
                want = packed(vid, [single for single, count in singles for _ in range(count)])
                pairs = enumerate(viabilities.viabs[vid])
                closes = all(viabilities.closes(i, eid, pattern) for i, eid in pairs)
                assert closes == (want >= 0), (inst, notion, vid, left)
                cases += 1
                once_differs += packed(vid, [single for single, count in singles if count]) != want
    assert cases > 500 and once_differs > 10, (cases, once_differs)


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
    # packing states; over the non-trivial coalitions alone it expands 618.
    inst = sweep_game(1, 24, 8)
    out = solve_colors_types(inst, IS)
    assert out is not None
    assert check_outcome(inst, out, IS).stable


def expanded_states(monkeypatch, inst, notion):
    """How many packing states one solve expands."""
    calls = 0
    fits = colors_types._Residuals.fits

    def counting(self, residual, start=0):
        nonlocal calls
        calls += 1
        return fits(self, residual, start)

    monkeypatch.setattr(colors_types._Residuals, "fits", counting)
    solve_colors_types(inst, notion)
    return calls


def test_packing_states_stop_growing_with_n(monkeypatch):
    # States are keyed on the agents left per (color, type), so they stop
    # growing once no class can run out: n/4 >= rho2 * sigma here.
    for profile, rho2, notion, sizes in (
        (0, 2, NS, (64, 128)), (0, 2, IS, (64, 128)), (1, 2, NS, (64, 128)),
        (1, 2, IS, (64, 128)), (0, 8, NS, (128, 160)),
    ):
        counts = [expanded_states(monkeypatch, sweep_game(profile, n, rho2), notion) for n in sizes]
        assert counts[0] == counts[1], (profile, rho2, notion, counts)


def test_witnesses_match_the_plain_breadth_first_search(monkeypatch):
    # The solver decides the last level pair by pair without interning it,
    # and extends a state of the level before only from the candidate that
    # first reached it; the plain search keeps every level and tries every
    # candidate, and both must return the same witness.  With rho2 >= 3
    # the level before the last is reached in more than one way.
    starts = 0
    fits = colors_types._Residuals.fits

    def counting(self, residual, start=0):
        nonlocal starts
        starts += start > 0
        return fits(self, residual, start)

    monkeypatch.setattr(colors_types._Residuals, "fits", counting)
    pruned = []

    def same_witness(inst, notion, label):
        nonlocal starts
        starts = 0
        got = solve_colors_types(inst, notion)
        assert got == colors_types_bfs(inst, notion), label
        if starts and min(inst.budgets.rho1, inst.budgets.rho2) >= 3:
            pruned.append(got is not None)

    rng = random.Random(6021)
    for trial in range(400):
        caps = GenCaps(n=rng.randint(2, 9), rho1=rng.randint(1, 6), rho2=rng.randint(1, 4))
        inst = random_instance(rng, caps, own_color=trial % 4 == 0)
        for notion in (NS, IS):
            same_witness(inst, notion, (trial, inst.budgets, notion))
    for rho2, sizes in ((2, (12, 24)), (3, (20,)), (4, (16,)), (8, (20,))):
        for profile in (0, 1):
            for n in sizes:
                for notion in (NS, IS):
                    same_witness(sweep_game(profile, n, rho2), notion, (profile, n, rho2, notion))
    assert len(pruned) >= 9 and pruned.count(True) >= 2, pruned


def apply_calls(monkeypatch, inst, notion):
    """How many times one solve computes a pair's entries."""
    calls = 0
    apply = colors_types._apply_candidate

    def counting(*args):
        nonlocal calls
        calls += 1
        return apply(*args)

    monkeypatch.setattr(colors_types, "_apply_candidate", counting)
    solve_colors_types(inst, notion)
    return calls


@pytest.mark.parametrize(
    "profile, n, rho2, notion, bound",
    [
        (0, 16, 2, NS, 184), (0, 16, 2, IS, 254), (1, 16, 2, NS, 224), (1, 16, 2, IS, 286),
        (0, 24, 4, NS, 246), (0, 24, 4, IS, 401), (1, 24, 4, NS, 326), (1, 24, 4, IS, 482),
    ],
)
def test_pair_moves_computed_stay_bounded(monkeypatch, profile, n, rho2, notion, bound):
    # Work counter: keyed on (entries, candidate), interning every level and
    # closing through interned states, these solves computed 990-1,215
    # pair moves at n=16 and 1,505-2,291 at n=24.
    assert apply_calls(monkeypatch, sweep_game(profile, n, rho2), notion) <= bound


def test_state_cap_counts_the_last_levels_live_children(monkeypatch):
    # The last level keeps no states, but the children it finds alive,
    # every pair keeping an entry, count against STATES_CAP on their own.
    monkeypatch.delenv("HDG_SEARCH_CAP", raising=False)
    inst = sweep_game(0, 16, 2)  # NO under NS, so the last level is decided whole
    assert len(_Setup(inst, NS).candidates) < 154 and expanded_states(monkeypatch, inst, NS) < 154

    def answers(cap):
        monkeypatch.setattr(colors_types, "STATES_CAP", cap)
        try:
            solve_colors_types(inst, NS)
        except SearchSpaceTooLarge as exc:
            assert f"more than {cap} packing states (cap via HDG_SEARCH_CAP)" in str(exc)
            return False
        return True

    # Its 156 live children: the cap is checked before each one counts.
    assert answers(155) and not answers(154)


def test_binding_rho1_agrees_with_brute_force():
    # Closing a state sends every leftover agent alone, so rho1 bounds the
    # non-trivial coalitions plus the leftover agents.
    rng = random.Random(31)
    answers = set()
    for trial in range(300):
        caps = GenCaps(n=rng.randint(2, 6), sigma=rng.randint(2, 4), rho1=rng.randint(1, 3), rho2=2)
        inst = random_instance(rng, caps, own_color=trial % 3 == 2)
        for notion in (NS, IS):
            want = solve_brute(inst, notion) is not None
            got = solve_colors_types(inst, notion)
            assert (got is not None) == want, (trial, inst.budgets, notion)
            answers.add((notion, want))
    assert answers == {(nt, yes) for nt in (NS, IS) for yes in (True, False)}


def test_lazy_cells_order_values_as_tier_of_does():
    # Every cell, filled on first use in a random order, holds the same
    # flags as an eager table read straight off each palette with tier_of,
    # row for row on the candidate's count vector, and its rank values (with the theta and singleton ranks) order every
    # pair of values as the tiers do, reversed: rank -> tier is one-to-one
    # and decreasing.
    rng = random.Random(5150)
    cells = refused = 0
    for trial in range(100):
        inst = random_instance(rng, GenCaps(n=7), own_color=trial % 3 == 0)
        theta = theta_palettes(inst)
        for notion in (NS, IS):
            setup = _Setup(inst, notion)
            rows = candidate_rows(inst, notion)
            assert sorted(rows) == sorted(setup.candidates)
            want = [rows[vec] for vec in setup.candidates]
            order = [(i, k) for i in range(len(setup.pairs)) for k in range(len(want))]
            rng.shuffle(order)
            for i, k in order:
                setup.cell(i, k)
            for i, (c, t) in enumerate(setup.pairs):
                tier_of = inst.prefs[t].tier_of
                tiers = {setup.singleton_rank[i]: tier_of(singleton_palette(c, inst.gamma))}
                for k, row in enumerate(want):
                    in_s, r_c, r_plus, escape = setup.cand_static[i][k]
                    want_in, want_own, want_plus, want_escape = row[i]
                    assert (in_s, escape) == (want_in, want_escape), (inst, notion, i, k)
                    for value, tier in ((r_c, want_own), (r_plus, want_plus))[not in_s:]:
                        assert tiers.setdefault(value, tier) == tier, (inst, notion, i, k)
                    cells += 1
                    refused += escape
                ranked = sorted(tiers.items())
                assert all(a[1] > b[1] for a, b in zip(ranked, ranked[1:])), (inst, notion, i)
                assert {tiers[v] for v in setup.theta_ranks[i]} == {tier_of(p) for p in theta[c]}
    assert cells > 5000 and 0.1 < refused / cells < 0.9, (cells, refused)


def test_candidate_cap(monkeypatch):
    # The candidates are the one enumeration the set-up makes; the cap on
    # them is the only guard before the search.
    monkeypatch.delenv("HDG_SEARCH_CAP", raising=False)
    inst = example1()
    total = len(_Setup(inst, NS).candidates)
    monkeypatch.setattr(colors_types, "STATES_CAP", total)
    assert len(_Setup(inst, NS).candidates) == total
    monkeypatch.setattr(colors_types, "STATES_CAP", total - 1)
    with pytest.raises(SearchSpaceTooLarge, match="candidate coalitions"):
        solve_colors_types(inst, NS)
