import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hdg.core import (
    NamedFamily,
    PackedCounts,
    TierList,
    compositions_upto,
    make_instance,
    palette_of,
    realizable_palettes,
    reduce_counts,
)
from hdg.errors import EmptyCoalition, InvalidInput

from fixtures import A, B, C, D, example1
from references import recursive_compositions_upto


def test_palette_of_example1_triple():
    inst = example1()
    assert palette_of({A, C, D}, inst) == (1, 2)


def test_palette_of_singleton():
    inst = example1()
    assert palette_of({A}, inst) == (1, 0)


def test_palette_of_grand_coalition_reduces():
    inst = example1()
    assert palette_of({A, B, C, D}, inst) == (1, 1)


def test_palette_of_empty_raises():
    with pytest.raises(EmptyCoalition):
        palette_of(set(), example1())


def test_palette_of_invariant_under_color_class_permutation():
    inst = example1()
    assert palette_of({A, C}, inst) == palette_of({B, C}, inst) == palette_of({A, D}, inst)


def test_compare_example1_b():
    inst = example1()
    order = inst.prefs[inst.types[B]]
    assert order.tier_of((1, 1)) < order.tier_of((1, 2))


def test_compare_reflexive():
    inst = example1()
    for order in inst.prefs.values():
        assert order.tier_of((1, 2)) == order.tier_of((1, 2))


def test_compare_example1_a_prefers_alone_to_even_split():
    inst = example1()
    order = inst.prefs[inst.types[A]]
    assert order.tier_of((1, 0)) < order.tier_of((1, 1))


def test_add_agent_reduce_matches_palette_of_concrete_sets():
    # Adding one agent to a coalition's color counts and reducing gives the
    # palette of the grown agent set.  Independent oracle: build the same
    # coalition as an explicit agent set and compare palettes.
    inst = make_instance(
        colors=[0, 0, 0, 1, 1, 1, 2, 2],
        prefs={0: TierList([])},
        types=[0] * 8,
    )
    rng = random.Random(7)
    by_color = {c: [i for i in range(8) if inst.colors[i] == c] for c in range(3)}
    for _ in range(50):
        size = rng.randint(1, 6)
        coalition = rng.sample(range(8), size)
        counts = [0, 0, 0]
        for agent in coalition:
            counts[inst.colors[agent]] += 1
        extra_color = rng.choice(
            [c for c in range(3) if any(a not in coalition for a in by_color[c])]
        )
        extra = next(a for a in by_color[extra_color] if a not in coalition)
        counts[extra_color] += 1
        assert reduce_counts(counts) == palette_of(set(coalition) | {extra}, inst)


@given(
    counts=st.lists(st.integers(0, 9), min_size=1, max_size=4).filter(lambda c: any(c)),
    factor=st.integers(1, 5),
)
def test_reduce_canonicalizes_proportional_vectors(counts, factor):
    scaled = [factor * c for c in counts]
    assert reduce_counts(counts) == reduce_counts(scaled)


def _order_fixtures():
    yield TierList([[(1, 2)], [(2, 1), (1, 0)], [(1, 1)]]), 2
    yield NamedFamily(
        "own_ratio_tiers", {"color": 0, "tiers": [[[1, 2]], [[1, 1]], [[1, 3]]]}
    ), 2
    yield NamedFamily("marker_trichotomy", {"marker_colors": [0]}), 2
    yield NamedFamily(
        "value_sum_trichotomy",
        {"values": [1, 2, None], "target": 3, "class_sizes": [3, 2, 1], "green_color": None},
    ), 3
    yield NamedFamily(
        "indset_vertex",
        {"guard": 2, "vertex_colors": [0, 1], "k": 2, "edges": []},
    ), 3
    yield NamedFamily(
        "sgasp_spoiler", {"red": 0, "blue": 1, "splits": [[2, 5]]}
    ), 2


@pytest.mark.parametrize("order,gamma", list(_order_fixtures()))
def test_weak_order_laws(order, gamma):
    # Over the whole small universe: every palette gets one integer tier,
    # the same on every call, and "at least as good" (a lower or equal
    # tier) is transitive.
    universe = [
        reduce_counts(c)
        for c in itertools.product(range(4), repeat=gamma)
        if any(c)
    ]
    universe = sorted(set(universe))
    inst = make_instance(
        colors=list(range(gamma)) if gamma > 1 else [0],
        prefs={0: order},
        types=[0] * max(gamma, 1),
        gamma=gamma,
    )
    tier_of = inst.prefs[0].tier_of
    for p in universe:
        assert type(tier_of(p)) is int and tier_of(p) == tier_of(p) >= 0
    for p, q, r in itertools.permutations(universe[:12], 3):
        if tier_of(p) <= tier_of(q) and tier_of(q) <= tier_of(r):
            assert tier_of(p) <= tier_of(r)


def test_tierlist_rejects_duplicate_palette():
    with pytest.raises(InvalidInput):
        TierList([[(1, 0)], [(1, 0)]])


def test_own_ratio_tiers_match_a_fraction_keyed_reference():
    # Every palette of at most 8 agents over 1-3 colors gets the tier its
    # own-color ratio has in a table keyed on Fractions, for tiers listing
    # ratios in lowest terms or not.
    rng = random.Random(2718)
    ratios = [(num, den) for den in range(1, 9) for num in range(den + 1)]
    for gamma in (1, 2, 3):
        universe = {
            reduce_counts(c)
            for c in itertools.product(range(9), repeat=gamma)
            if 0 < sum(c) <= 8
        }
        for _ in range(20):
            listed = {}
            for num, den in rng.sample(ratios, 12):
                listed.setdefault(Fraction(num, den), [num, den])
            tiers = [[] for _ in range(rng.randint(1, 4))]
            for ratio in listed.values():
                rng.choice(tiers).append(ratio)
            color = rng.randrange(gamma)
            order = NamedFamily("own_ratio_tiers", {"color": color, "tiers": tiers})
            reference = {Fraction(*r): i for i, tier in enumerate(tiers) for r in tier}
            for p in universe:
                want = reference.get(Fraction(p[color], sum(p)), len(tiers))
                assert order.tier_of(p) == want, (tiers, color, p)


def test_own_ratio_tiers_reject_a_ratio_in_two_tiers():
    for tiers in ([[[1, 2]], [[2, 4]]], [[[1, 2], [2, 4]]], [[[0, 1]], [[0, 3]]]):
        with pytest.raises(InvalidInput, match="appears in two tiers"):
            NamedFamily("own_ratio_tiers", {"color": 0, "tiers": tiers})


def test_tierlist_rejects_unreduced_palette():
    with pytest.raises(InvalidInput):
        TierList([[(2, 2)]])


def test_unknown_family_rejected():
    with pytest.raises(InvalidInput):
        NamedFamily("no_such_family", {})


def test_instance_validation():
    with pytest.raises(InvalidInput):
        make_instance([], {})
    with pytest.raises(InvalidInput):
        make_instance([0, 5], {0: TierList([])}, types=[0, 0], gamma=2)
    with pytest.raises(InvalidInput):
        make_instance([0, 0], {0: TierList([])}, types=[0, 3])
    with pytest.raises(InvalidInput):
        make_instance([0, 0], {0: TierList([])}, types=[0, 0], sigma=0)


def test_instance_rejects_tier_palette_of_wrong_length():
    # A palette with a stray third entry never matches a real coalition;
    # accepted, it silently turned example1's Nash-stable split into NO.
    inst = example1()
    master = inst.prefs[0]
    padded = TierList([[p + (0,) for p in master.tiers[0]], *master.tiers[1:]])
    with pytest.raises(InvalidInput, match="gamma=2"):
        make_instance(
            inst.colors, {0: padded, 1: inst.prefs[1]}, types=inst.types, gamma=2
        )


def test_realizable_palettes_example1():
    inst = example1()
    assert set(realizable_palettes(inst, 2)) == {(1, 0), (0, 1), (1, 1)}
    assert set(realizable_palettes(inst, 4)) == {
        (1, 0),
        (0, 1),
        (1, 1),
        (2, 1),
        (1, 2),
    }



def test_packed_counts_round_trip_and_guarded_difference():
    # The difference of a residual and a packed vector keeps every guard
    # bit exactly when the vector fits under the counts, coordinate by
    # coordinate; then it is the residual of the difference.  Tops of 0
    # (as rho2 = 0 gives) and vectors past the tops are drawn too.
    rng = random.Random(2718)
    fits = {True: 0, False: 0}
    zero_tops = 0
    for _ in range(2000):
        tops = [rng.choice([0, 1, 2, 3, 7, 8, 100]) for _ in range(rng.randint(1, 6))]
        packing = PackedCounts(tops)
        assert packing.full & packing.guard == packing.guard
        assert packing.unpack(packing.full) == tuple(tops)
        counts = [rng.randint(0, top) for top in tops]
        vec = [rng.randint(0, top + 1) for top in tops]
        assert packing.unpack(packing.pack(counts)) == tuple(counts)
        residual = packing.guard + packing.pack(counts)
        assert packing.unpack(residual) == tuple(counts)
        rest = residual - packing.pack(vec)
        fit = all(x <= c for x, c in zip(vec, counts))
        assert (rest & packing.guard == packing.guard) == fit, (tops, counts, vec)
        if fit:
            assert rest == packing.guard + packing.pack([c - x for c, x in zip(counts, vec)])
        assert packing.bits == len(tops) * (max(tops).bit_length() + 1)
        fits[fit] += 1
        zero_tops += 0 in tops
    assert min(fits.values()) > 200 and zero_tops > 200
    # A field whose top is 0 takes nothing: subtracting 1 from it clears its guard.
    packing = PackedCounts([3, 0, 2])
    residual = packing.guard + packing.pack([3, 0, 2])
    assert (residual - packing.pack([0, 1, 0])) & packing.guard != packing.guard
    assert (residual - packing.pack([3, 0, 2])) == packing.guard


def test_compositions_odometer_yields_the_recursive_sequence():
    # Vector for vector and in the same order as the recursive form, on
    # random limits with zeros, no coordinates at all, sizes from below 0
    # to past the limits' sum, and minimum sizes from 0 up.
    rng = random.Random(1618)
    seen = {"empty": 0, "zero limit": 0, "none": 0, "many": 0}
    for _ in range(3000):
        limits = [rng.choice([0, 0, 1, 2, 3, 5]) for _ in range(rng.randint(0, 5))]
        max_size, min_size = rng.randint(-1, 12), rng.randint(0, 4)
        got = list(compositions_upto(limits, max_size, min_size))
        assert got == list(recursive_compositions_upto(limits, max_size, min_size)), (
            limits, max_size, min_size,
        )
        assert got == sorted(got)  # colors-ntcoal's walk relies on it
        seen["empty"] += not limits
        seen["zero limit"] += 0 in limits
        seen["none"] += not got
        seen["many"] += len(got) > 50
    assert min(seen.values()) > 50, seen
