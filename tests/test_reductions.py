import random
from fractions import Fraction

import pytest

from hdg.brute import enumerate_stable, solve_brute
from hdg.core import palette_of
from hdg.errors import InvalidInput
from hdg.reductions import (
    SGaspInstance,
    from_independent_set,
    from_mss,
    from_partition,
    from_sgasp,
    from_x3c,
    gasp_normalize,
    small_split_ratios,
)
from hdg.stability import IS, NS

from references import (
    decode_independent_set,
    decode_mss,
    decode_partition,
    decode_x3c,
    independent_set_solvable,
    mss_solvable,
    partition_solvable,
    sgasp_solvable,
    x3c_solvable,
)


def test_x3c_single_triple_yes():
    inst = from_x3c([1, 2, 3], [[1, 2, 3]])
    assert inst.n == 6 and inst.gamma == 6
    for notion in (NS, IS):
        out = solve_brute(inst, notion)
        assert out is not None
        assert decode_x3c(inst, out) == [(1, 2, 3)]
    assert x3c_solvable([1, 2, 3], [[1, 2, 3]])


def test_x3c_duplicate_family_rejected():
    with pytest.raises(InvalidInput):
        from_x3c([1, 2, 3], [[1, 2, 3], [3, 2, 1]])


def test_x3c_empty_family_no():
    inst = from_x3c([1, 2, 3], [])
    assert not x3c_solvable([1, 2, 3], [])
    assert solve_brute(inst, NS) is None
    assert solve_brute(inst, IS) is None


def test_x3c_six_universe_structure():
    inst = from_x3c([1, 2, 3, 4, 5, 6], [[1, 2, 3], [4, 5, 6], [1, 2, 4]])
    # 6 universe + 2 greens + R + B
    assert inst.n == 10
    assert inst.budgets.sigma == 4


def test_partition_examples():
    inst = from_partition([1, 1], NS)
    assert solve_brute(inst, NS) is not None

    with pytest.raises(InvalidInput):
        from_partition([1, 1, 1], NS)

    inst = from_partition([1, 3], NS)
    assert not partition_solvable([1, 3])
    assert solve_brute(inst, NS) is None


def test_partition_equivalence_small():
    for values in ([1, 1], [1, 2, 3], [2, 2], [1, 1, 2], [3, 3], [1, 1, 1, 1]):
        want = partition_solvable(values)
        ns_inst = from_partition(values, NS)
        assert (solve_brute(ns_inst, NS) is not None) == want, values
        is_inst = from_partition(values, IS)
        assert (solve_brute(is_inst, IS) is not None) == want, values


def test_partition_decode():
    inst = from_partition([1, 2, 3], NS)
    out = solve_brute(inst, NS)
    halves = decode_partition(inst, out)
    sums = [sum(h) for h in halves]
    assert sums and all(s == 3 for s in sums)


def test_mss_examples():
    inst = from_mss([[(1,)]], (1,))
    assert inst.n == 2
    assert solve_brute(inst, NS) is not None
    assert mss_solvable([[(1,)]], (1,))

    # Zero target: markers alone form a stable outcome.
    inst = from_mss([[(1,)], [(2,)]], (0,))
    assert solve_brute(inst, NS) is not None

    inst = from_mss([[(2,)]], (1,))
    assert not mss_solvable([[(2,)]], (1,))
    assert solve_brute(inst, NS) is None


def test_mss_decode():
    inst = from_mss([[(1, 0)], [(0, 1)]], (1, 1))
    out = solve_brute(inst, NS)
    assert out is not None
    chosen = decode_mss(inst, out)
    assert chosen == {0: (1, 0), 1: (0, 1)}


def test_independent_set_examples():
    # Path on three vertices: endpoints form an independent pair.
    inst = from_independent_set(3, [(0, 1), (1, 2)], 2)
    out = solve_brute(inst, NS)
    assert out is not None
    assert decode_independent_set(inst, out) == (0, 2)

    # Triangle has no independent pair.
    tri = from_independent_set(3, [(0, 1), (1, 2), (0, 2)], 2)
    assert not independent_set_solvable(3, [(0, 1), (1, 2), (0, 2)], 2)
    assert solve_brute(tri, NS) is None
    assert solve_brute(tri, IS) is None

    assert solve_brute(from_independent_set(2, [(0, 1)], 1), NS) is not None

    with pytest.raises(InvalidInput):
        from_independent_set(2, [], 3)


def test_trap_gadget_claim_on_reduced_instances():
    # Every stable outcome keeps every green agent inside a coalition the
    # green ranks in its top tier (the desirable set).
    fixtures = [
        from_x3c([1, 2, 3], [[1, 2, 3]]),
        from_partition([1, 1], IS),
        from_partition([1, 1, 2, 2], IS),
        from_independent_set(3, [(0, 1)], 2),
    ]
    for inst in fixtures:
        greens = [
            a
            for a in range(inst.n)
            if inst.agent_ids[a].startswith("g") or inst.agent_ids[a] == "G"
        ]
        assert greens
        for notion in (NS, IS):
            for out in enumerate_stable(inst, notion):
                owner = out.member_of(inst.n)
                for g in greens:
                    block = out.coalitions[owner[g]]
                    pal = palette_of(block, inst)
                    assert inst.prefs[inst.types[g]].tier_of(pal) == 0


def test_gasp_normalize_example():
    src = SGaspInstance(
        participants=("p",),
        activities=("a",),
        approvals={"p": frozenset({("a", 1)})},
    )
    norm = gasp_normalize(src)
    assert norm.group_size_param == 2
    assert len(norm.participants) == 5 + 2
    pair_names = [q for q in norm.participants if q.startswith("p#")]
    assert all(norm.approvals[q] == frozenset({("a", 7)}) for q in pair_names)
    activity_names = [q for q in norm.participants if q.startswith("a#")]
    assert all(
        norm.approvals[q] == frozenset({("a", 5), ("a", 7)}) for q in activity_names
    )


def test_gasp_normalize_structure_random():
    rng = random.Random(3)
    for _ in range(20):
        parts = tuple(f"p{i}" for i in range(rng.randint(1, 3)))
        acts = tuple(f"a{j}" for j in range(rng.randint(1, 3)))
        approvals = {
            p: frozenset(
                (rng.choice(acts), rng.randint(1, len(parts)))
                for _ in range(rng.randint(0, 3))
            )
            for p in parts
        }
        src = SGaspInstance(parts, acts, approvals)
        norm = gasp_normalize(src)
        s, num_a = norm.group_size_param, len(acts)
        lo, hi = 2 * s * num_a + 1, 2 * s * (num_a + 1) - 1
        per_activity: dict[str, int] = {}
        for p in norm.participants:
            for a, t in norm.approvals[p]:
                assert t % 2 == 1 and lo <= t <= hi
            for a in {a for a, _ in norm.approvals[p]}:
                per_activity[a] = per_activity.get(a, 0) + 1
        assert all(v <= hi for v in per_activity.values())


def test_gasp_normalize_preserves_answer_tiny():
    cases = [
        ({"p": frozenset({("a", 1)})}, ("p",), ("a",)),
        ({"p": frozenset()}, ("p",), ("a",)),
        (
            {"p": frozenset({("a", 2)}), "q": frozenset({("a", 2)})},
            ("p", "q"),
            ("a",),
        ),
        (
            {"p": frozenset({("a", 1), ("b", 1)}), "q": frozenset({("b", 1)})},
            ("p", "q"),
            ("a", "b"),
        ),
    ]
    for approvals, parts, acts in cases:
        src = SGaspInstance(parts, acts, approvals)
        assert sgasp_solvable(gasp_normalize(src)) == sgasp_solvable(src)


def test_from_sgasp_counts_and_tiers():
    src = SGaspInstance(
        participants=("p",),
        activities=("a",),
        approvals={"p": frozenset({("a", 1)})},
    )
    inst = from_sgasp(src, normalized=False)
    markers = [a for a in range(inst.n) if inst.agent_ids[a].startswith("m1.")]
    spoilers = [a for a in range(inst.n) if inst.agent_ids[a].startswith("s")]
    blues = [a for a in range(inst.n) if inst.agent_ids[a].startswith("p:")]
    assert len(markers) == 101
    assert len(spoilers) == 400 * 200 + 1
    assert len(blues) == 7
    assert inst.gamma == 2

    # Spoiler order: 1/2 is blue-up-to-one, 2/3 is not.
    spoiler_type = inst.types[spoilers[0]]
    order = inst.prefs[spoiler_type]
    assert order.tier_of((1, 1)) == 0
    assert order.tier_of((2, 1)) > 0

    # Pair participants approve size 7, so blue tier-one ratio sets match
    # {z_1 / (z_1 + t)}, recomputed here from the source approvals.
    norm = gasp_normalize(src)
    pair_blue = next(
        a for a in blues if inst.agent_ids[a].startswith("p:p#pp")
    )
    order = inst.prefs[inst.types[pair_blue]]
    expect = Fraction(101, 101 + 7)
    assert order.tier_of((expect.numerator, expect.denominator - expect.numerator)) == 0
    assert order.tier_of((0, 1)) == 1


def test_small_split_ratios_long_form():
    ratios = small_split_ratios(1, 2)
    # z_1 = 101, odd t in [5, 7]; lam = 1 keeps r = 101 > 76, so only
    # ratios with r <= 76 survive: none, since the base numerator is 101.
    assert ratios == []
    ratios = small_split_ratios(2, 2)
    for f in ratios:
        assert 0 < f < 1
