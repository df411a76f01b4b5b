"""Compact columns read exactly like the tuples they stand for.

`Runs` (run-length colors and types) and `IdColumn` (names plus numbered
id blocks) are compared with their expansion: length, every index, the
errors past either end, iteration and slicing.  Instances whose columns
are compact must give the same class data, dealt outcomes and files as
the same instance on tuples, and the sGASP construction must list every
agent as the agent-by-agent reference does.
"""

import random
from collections import Counter
from collections.abc import Sequence
from itertools import groupby

import pytest

from hdg.core import IdColumn, Instance, Runs, TierList, make_instance
from hdg.errors import InvalidInput
from hdg.fileio import serialize_instance
from hdg.randgen import GenCaps, random_instance
from hdg.reductions import SGaspInstance, from_sgasp, gasp_normalize
from hdg.stability import deal_outcome

from references import sgasp_agent_columns


def _same_as(column, expanded):
    expanded = tuple(expanded)
    n = len(expanded)
    assert isinstance(column, Sequence)
    assert len(column) == n
    assert tuple(column) == expanded
    assert [column[i] for i in range(-n, n)] == list(expanded + expanded)
    for past in (n, n + 3, -n - 1):
        with pytest.raises(IndexError):
            column[past]
    for cut in (slice(None), slice(1, -1), slice(None, None, -2), slice(n + 5, None)):
        assert column[cut] == expanded[cut]
    assert list(reversed(column)) == list(reversed(expanded))
    for value in set(expanded):
        assert value in column
        assert column.count(value) == expanded.count(value)
        assert column.index(value) == expanded.index(value)


RUNS = [
    [],
    [(5, 0)],
    [(1, 1)],
    [(0, 3), (1, 0), (0, 2), (2, 1)],  # an empty run between equal ones
    [(7, 2), (7, 3), (4, 1), (7, 1)],  # adjacent equal runs
    [(c, k) for c, k in zip([0, 1] * 6, [1, 2, 1, 4, 1, 1, 3, 1, 1, 1, 2, 1])],
]


@pytest.mark.parametrize("runs", RUNS)
def test_runs_read_like_their_expansion(runs):
    column = Runs(runs)
    _same_as(column, [value for value, count in runs for _ in range(count)])
    values = [value for value, _ in column.runs]
    assert all(a != b for a, b in zip(values, values[1:]))
    assert all(count > 0 for _, count in column.runs)


IDS = [
    [],
    [("s", 0)],
    ["a"],
    [("x", 1)],
    ["p:a", "p:b", ("m1.", 3), ("s", 0), "q", ("s", 12)],
    [("m1.", 1), ("m2.", 1), "z", "y", ("", 4)],
]


@pytest.mark.parametrize("parts", IDS)
def test_id_column_reads_like_its_expansion(parts):
    expanded = []
    for part in parts:
        if isinstance(part, str):
            expanded.append(part)
        else:
            prefix, count = part
            expanded += [f"{prefix}{k}" for k in range(count)]
    _same_as(IdColumn(parts), expanded)


def test_negative_lengths_are_rejected():
    with pytest.raises(InvalidInput):
        Runs([(0, 2), (1, -1)])
    with pytest.raises(InvalidInput):
        IdColumn(["a", ("s", -1)])


def _compact(values):
    return Runs((value, len(list(group))) for value, group in groupby(values))


def _copy(inst, colors, types, agent_ids):
    return Instance(inst.gamma, colors, types, inst.prefs, inst.budgets, agent_ids)


def _random_partition_counts(inst, rng):
    """Class counts of a random partition of the instance's agents."""
    owner = [rng.randrange(3) for _ in range(inst.n)]
    blocks = []
    for c in sorted(set(owner)):
        counts = Counter((inst.colors[a], inst.types[a]) for a in range(inst.n) if owner[a] == c)
        blocks.append(sorted(counts.items()))
    return blocks


def test_compact_instances_match_tuple_instances():
    rng = random.Random(11)
    caps = GenCaps(n=9, gamma=3, tau=3, sigma=5, rho1=5, rho2=2)
    scattered = 0
    for k in range(150):
        base = random_instance(rng, caps, own_color=k % 3 == 0)
        plain = _copy(base, tuple(base.colors), tuple(base.types), tuple(base.agent_ids))
        ids = IdColumn([("", base.n)])
        variants = [
            _copy(base, _compact(base.colors), _compact(base.types), ids),
            _copy(base, _compact(base.colors), tuple(base.types), ids),
        ]
        scattered += any(isinstance(v, tuple) for v in plain.agents_of_ct.values())
        blocks = _random_partition_counts(plain, rng)
        for compact in variants:
            assert compact.class_sizes == plain.class_sizes
            assert compact.n_ct == plain.n_ct and list(compact.n_ct) == list(plain.n_ct)
            assert compact.present_pairs == plain.present_pairs
            assert list(compact.agents_of_ct) == list(plain.agents_of_ct)
            assert all(
                tuple(compact.agents_of_ct[pair]) == tuple(agents)
                for pair, agents in plain.agents_of_ct.items()
            )
            assert deal_outcome(compact, blocks) == deal_outcome(plain, blocks)
            assert serialize_instance(compact) == serialize_instance(plain)
    assert scattered > 50  # most draws have a class that is not one block


def test_one_block_classes_are_ranges():
    prefs = {0: TierList([])}
    for colors, types in (
        (Runs([(0, 3), (1, 2), (0, 1)]), Runs([(0, 6)])),
        ([0, 0, 0, 1, 1, 0], [0] * 6),
    ):
        inst = make_instance(colors, prefs, types=types, gamma=2)
        assert inst.agents_of_ct == {(0, 0): (0, 1, 2, 5), (1, 0): range(3, 5)}
        assert inst.n_ct == {(0, 0): 4, (1, 0): 2} and inst.class_sizes == (4, 2)


def test_sgasp_columns_match_the_agent_by_agent_construction():
    src = SGaspInstance(("p",), ("a",), {"p": frozenset({("a", 1)})})
    norm = gasp_normalize(src)
    inst = from_sgasp(norm)
    colors, types, ids = sgasp_agent_columns(norm)
    assert inst.n == len(colors) == 80_109
    for column, want in ((inst.colors, colors), (inst.types, types), (inst.agent_ids, ids)):
        assert list(column) == want
        assert [column[a] for a in range(inst.n)] == want
    assert len(inst.present_pairs) == len(set(zip(colors, types)))


def test_sgasp_build_stays_class_level_at_two_activities():
    # 1.28M agents: the columns hold one run per participant, per marker
    # class and for the spoilers, and each red class is one range.
    src = SGaspInstance(("p", "q"), ("a", "b"), {"p": frozenset({("a", 1)}), "q": frozenset()})
    norm = gasp_normalize(src)
    inst = from_sgasp(norm)
    runs = len(norm.participants) + len(norm.activities) + 1
    assert inst.n == 1_280_000 + 1 + 101 + 201 + len(norm.participants)
    assert len(inst.colors.runs) <= runs and len(inst.types.runs) <= runs
    assert isinstance(inst.agent_ids, IdColumn)
    red = {pair: agents for pair, agents in inst.agents_of_ct.items() if pair[0] == 0}
    assert sorted(map(len, red.values())) == [101, 201, 1_280_001]
    assert all(isinstance(agents, range) for agents in red.values())
    assert inst.agent_ids[-1] == "s1280000"
