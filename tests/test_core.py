import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hdg.core import (
    NamedFamily,
    TierList,
    make_instance,
    palette_of,
    realizable_palettes,
    reduce_counts,
)
from hdg.errors import EmptyCoalition, InvalidInput

from fixtures import A, B, C, D, example1


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

