import json
import random
from pathlib import Path

import pytest

from hdg.core import IdColumn, NamedFamily, Runs, TierList, make_instance
from hdg.errors import InvalidInput
from hdg.fileio import (
    parse_instance,
    parse_outcome,
    serialize_instance,
    serialize_outcome,
)
from hdg.randgen import random_instance
from hdg.reductions import (
    SGaspInstance,
    from_independent_set,
    from_mss,
    from_partition,
    from_sgasp,
    from_x3c,
)
from hdg.stability import IS, NS, Outcome, check_outcome

from fixtures import example1

FIXTURES = Path(__file__).parent.parent / "fixtures"


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


def _with_duplicate(where: str) -> str:
    """example1's text with one key given twice, the added copy first."""
    text = serialize_instance(example1())
    if where == "top-level":
        return text.replace('"rho2": 4', '"rho2": 0,\n "rho2": 4')
    if where == "types":
        return text.replace('"types": {', '"types": {\n  "0": {"tiers": [[[1, 0]]]},', 1)
    return text.replace('"color": 0,', '"color": 1,\n   "color": 0,', 1)


@pytest.mark.parametrize("where", ["top-level", "types", "agent"])
def test_parse_rejects_a_duplicated_key(where):
    # json.loads keeps the last of two equal keys: this text used to parse
    # as example1, the added value silently dropped.
    text = _with_duplicate(where)
    original = serialize_instance(example1())
    assert text != original and json.loads(text) == json.loads(original)
    with pytest.raises(InvalidInput, match="duplicate key"):
        parse_instance(text)


def test_parse_outcome_rejects_a_duplicated_key():
    text = '{"coalitions": [["a"], ["b"], ["c"], ["d"]], "coalitions": [["a", "b", "c", "d"]]}'
    with pytest.raises(InvalidInput, match="duplicate key 'coalitions'"):
        parse_outcome(example1(), text)


# The files' bytes are json's indented dump; the writers build the records
# and coalitions themselves, so each is compared with that dump here.


def dumped(data) -> str:
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def instance_data(inst) -> dict:
    types = {}
    for t, order in sorted(inst.prefs.items()):
        if isinstance(order, TierList):
            types[str(t)] = {"tiers": [sorted(list(p) for p in tier) for tier in order.tiers]}
        else:
            types[str(t)] = {"family": order.name, "params": order.params}
    return {
        "n": inst.n,
        "gamma": inst.gamma,
        "sigma": inst.budgets.sigma,
        "rho1": inst.budgets.rho1,
        "rho2": inst.budgets.rho2,
        "agents": [
            {"id": name, "color": color, "type": t}
            for name, color, t in zip(inst.agent_ids, inst.colors, inst.types)
        ],
        "types": types,
    }


def outcome_data(inst, outcome) -> dict:
    names = inst.agent_ids
    return {"coalitions": sorted(sorted(names[a] for a in block) for block in outcome.coalitions)}


def outcomes(inst, rng):
    """All alone, everyone together, and a random three-way split."""
    owner = [rng.randrange(3) for _ in range(inst.n)]
    split = [[a for a in range(inst.n) if owner[a] == k] for k in range(3)]
    return [
        Outcome.from_sets([[a] for a in range(inst.n)]),
        Outcome.from_sets([range(inst.n)]),
        Outcome.from_sets([block for block in split if block]),
    ]


def _odd_ids(ids):
    prefs = {0: TierList([[(1, 2)], [(1, 0)]]), 1: TierList([])}
    colors = [k % 2 for k in range(len(ids))]
    types = [k // 2 % 2 for k in range(len(ids))]
    return make_instance(colors, prefs, types=types, agent_ids=ids)


def _randgen_draws():
    rng = random.Random(28)
    return [random_instance(rng, own_color=k % 2 == 1) for k in range(120)]


WRITER_CASES = {
    "randgen": _randgen_draws,
    "x3c": lambda: [from_x3c([1, 2, 3, 4, 5, 6], [[1, 2, 3], [4, 5, 6], [2, 3, 4]])],
    "partition": lambda: [from_partition([1, 2, 3], NS), from_partition([3, 1, 1, 2, 2, 1], IS)],
    "mss": lambda: [from_mss([[(1, 0)], [(0, 1), (1, 1)]], (1, 1))],
    "indset": lambda: [from_independent_set(4, [(0, 1), (2, 3)], 2)],
    "sgasp": lambda: [
        from_sgasp(SGaspInstance(("p",), ("a",), {"p": frozenset({("a", 1)})}), normalized=False)
    ],
    "escaped-ids": lambda: [
        _odd_ids(['q"uote', "back\\slash", "tab\tnew\nline", "\x00\x1f", "/"])
    ],
    "non-ascii-ids": lambda: [_odd_ids(["é", "日本", "\U0001f600", "\u2028", "a"])],
    "int-ids": lambda: [_odd_ids([3, 10, 2, 0])],
    "mixed-ids": lambda: [_odd_ids([1.5, None, True, ["a", {"b": [1, 2]}], "x", 2])],
    "bool-colors": lambda: [
        make_instance([True, 0, 1], {0: TierList([])}, types=[0, 0, 0], gamma=2)
    ],
    "n=1": lambda: [
        make_instance([0], {0: TierList([])}),
        make_instance([0], {0: TierList([[(1,)]])}, agent_ids=["only"]),
    ],
}


@pytest.mark.parametrize("case", WRITER_CASES)
def test_writers_write_json_indented_dump(case):
    rng = random.Random(case)
    for inst in WRITER_CASES[case]():
        assert serialize_instance(inst) == dumped(instance_data(inst))
        for outcome in outcomes(inst, rng):
            try:
                want = dumped(outcome_data(inst, outcome))
            except TypeError:  # ids that do not sort against each other
                with pytest.raises(TypeError):
                    serialize_outcome(inst, outcome)
                continue
            assert serialize_outcome(inst, outcome) == want


@pytest.mark.parametrize("coalitions", [(), ((),), ((0, 1), (), (2,))])
def test_outcome_writer_writes_empty_lists_as_json_does(coalitions):
    inst = _odd_ids(["a", "b", "c"])
    outcome = Outcome(coalitions)
    assert serialize_outcome(inst, outcome) == dumped(outcome_data(inst, outcome))


def test_shipped_files_are_the_writers_output():
    text = (FIXTURES / "example1.json").read_text()
    inst = parse_instance(text)
    assert serialize_instance(inst) == text
    text = (FIXTURES / "example1_nash_outcome.json").read_text()
    assert serialize_outcome(inst, parse_outcome(inst, text)) == text


def test_a_large_compact_instance_round_trips():
    n = 100_000
    colors = Runs([(0, 40_000), (1, 35_000), (0, 25_000)])
    types = Runs([(0, 60_000), (1, n - 60_000)])
    ids = IdColumn([("a", 50_000), "x", 'y"', ("b", n - 50_002)])
    prefs = {
        0: TierList([[(1, 1)]]),
        1: NamedFamily("own_ratio_tiers", {"color": 1, "tiers": [[[1, 2]]]}),
    }
    inst = make_instance(colors, prefs, types=types, gamma=2, agent_ids=ids)
    text = serialize_instance(inst)
    back = parse_instance(text)
    assert serialize_instance(back) == text
    assert back.colors == tuple(colors) and back.types == tuple(types)
    assert back.agent_ids == tuple(ids)
    assert back.prefs == dict(inst.prefs)
