import pytest

from hdg.core import NamedFamily, make_instance
from hdg.errors import InvalidInput
from hdg.fileio import (
    parse_instance,
    parse_outcome,
    serialize_instance,
    serialize_outcome,
)
from hdg.reductions import from_independent_set, from_partition, from_x3c
from hdg.stability import NS, Outcome, check_outcome

from fixtures import example1


def roundtrip(instance):
    text = serialize_instance(instance)
    back = parse_instance(text)
    assert serialize_instance(back) == text
    return back


def test_example1_roundtrip_bit_exact():
    inst = example1()
    back = roundtrip(inst)
    assert back.colors == inst.colors
    assert back.types == inst.types
    assert back.agent_ids == inst.agent_ids
    assert back.budgets == inst.budgets
    assert back.prefs == dict(inst.prefs)


def test_family_roundtrip():
    inst = make_instance(
        [0, 1],
        {0: NamedFamily("own_ratio_tiers", {"color": 0, "tiers": [[[1, 2]]]})},
        types=[0, 0],
        gamma=2,
    )
    back = roundtrip(inst)
    assert back.prefs == dict(inst.prefs)


def test_generated_instances_roundtrip():
    for inst in (
        from_x3c([1, 2, 3], [[1, 2, 3]]),
        from_partition([1, 2, 3], NS),
        from_independent_set(3, [(0, 1)], 2),
    ):
        roundtrip(inst)


def test_outcome_roundtrip():
    inst = example1()
    out = Outcome.from_sets([{1, 2, 3}, {0}])
    text = serialize_outcome(inst, out)
    back = parse_outcome(inst, text)
    assert serialize_outcome(inst, back) == text
    assert check_outcome(inst, back, NS).stable


def test_parse_rejects_garbage():
    with pytest.raises(InvalidInput):
        parse_instance("not json")
    with pytest.raises(InvalidInput):
        parse_instance("{}")
    inst = example1()
    with pytest.raises(InvalidInput):
        parse_outcome(inst, '{"coalitions": [["nobody"]]}')


@pytest.mark.parametrize(
    "text",
    [
        '{"coalitions": ["abcd"]}',
        '{"coalitions": {"abcd": 1}}',
        '{"coalitions": [{"a": 1, "b": 2}, ["c", "d"]]}',
        '{"coalitions": "abcd"}',
        '{"coalitions": [["a", "b"], "cd"]}',
        '{"blocks": [["a", "b", "c", "d"]]}',
        '[["a", "b", "c", "d"]]',
    ],
)
def test_parse_outcome_needs_lists_of_lists(text):
    # A coalition given as a string or an object used to be read as its
    # characters or keys: "abcd" checked as the coalition {a, b, c, d}.
    with pytest.raises(InvalidInput):
        parse_outcome(example1(), text)
