"""The parts every solve and check of one instance shares.

`core.shared` keeps, next to the tier table, what the layers above build
of the last instance: its coalition shapes (`stability.shapes`), one
`stability.DeviationRule` per notion with its block verdicts, colors-types'
notion-free set-up and colors-ntcoal's composition list.  Each is built
once per instance; no NS verdict answers an IS question; every search cap
is still checked on every solve; and a new instance in a dropped one's
place never gets the dropped one's parts.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import hdg
from hdg import brute, colors_ntcoal, colors_size, colors_types, core, stability
from hdg.brute import solve_brute
from hdg.colors_ntcoal import solve_colors_ntcoal
from hdg.colors_size import enumerate_coalition_types, solve_colors_size
from hdg.colors_types import solve_colors_types
from hdg.core import compositions_upto, shared
from hdg.errors import SearchSpaceTooLarge
from hdg.fileio import parse_instance, serialize_instance
from hdg.randgen import GenCaps, random_instance
from hdg.reductions import from_x3c
from hdg.stability import IS, NS, deviation_rule, shapes

from fixtures import LargeInstance, example1, large_copy, spare_blocks, sweep_game

SOLVERS = {
    "brute": solve_brute,
    "colors-size": solve_colors_size,
    "colors-types": solve_colors_types,
    "colors-ntcoal": solve_colors_ntcoal,
}


def _result(solve, instance, notion):
    try:
        outcome = solve(instance, notion)
    except SearchSpaceTooLarge as exc:
        return f"cap: {exc}"
    return None if outcome is None else [list(c) for c in outcome.coalitions]


def _counting(monkeypatch, module, name: str) -> list:
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# --------------------------------------------------------------------------
# Built once.
# --------------------------------------------------------------------------


def test_one_shape_enumeration_per_instance(monkeypatch):
    # One `_largest_first` generator per instance, whichever solvers run
    # on it and in whatever order: colors-types packs the one-agent shapes
    # and then the same `Shapes.shape` stream the support walk reads.
    calls = _counting(monkeypatch, stability, "_largest_first")
    inst = from_x3c([1, 2, 3, 4, 5, 6], [[1, 2, 3], [4, 5, 6], [1, 2, 4]])
    for notion in (NS, IS, NS, IS):
        for name in ("brute", "colors-size", "colors-types"):
            assert SOLVERS[name](inst, notion) is not None
    assert len(calls) == 1
    table = shapes(inst)
    assert table is shapes(inst) and table.drawn
    setup = colors_types._Setup(inst, NS)
    singles = len(table.singles)
    assert setup.blocks[:singles] == table.singles
    assert setup.candidates[singles:] == [v for v, _, _ in table.drawn]
    assert deviation_rule(inst, NS) is deviation_rule(inst, NS)
    assert deviation_rule(inst, NS) is not deviation_rule(inst, IS)
    other = example1()
    solve_colors_size(other, NS)
    assert len(calls) == 2
    solve_colors_types(other, NS)
    assert len(calls) == 2 and shapes(other) is not table


def test_brute_force_draws_only_the_shapes_it_walks():
    # sigma = n, so there are more shapes than brute force's rho2 = 1 walk
    # reads before its first stable candidate.
    inst = example1(rho2=1)
    assert solve_brute(inst, NS) is not None
    table = shapes(inst)
    drawn = len(table.drawn)
    assert 0 < drawn < len(enumerate_coalition_types(inst)) - len(table.singles)


def test_one_composition_list_for_both_notions(monkeypatch):
    calls = _counting(monkeypatch, colors_ntcoal, "compositions_upto")
    inst = sweep_game(0, 12, 2)
    answers = [solve_colors_ntcoal(inst, notion) is not None for notion in (NS, IS, NS)]
    assert len(calls) == 1 and answers[0] == answers[2]


def test_the_shared_rule_keeps_each_block_verdict(monkeypatch):
    inst = from_x3c([1, 2, 3, 4, 5, 6], [[1, 2, 3], [4, 5, 6], [1, 2, 4]])
    decided = []
    real = stability.DeviationRule._decide

    def counted(self, src, dst):
        decided.append((id(self), src, dst))
        return real(self, src, dst)

    monkeypatch.setattr(stability.DeviationRule, "_decide", counted)
    for notion in (NS, IS):
        solve_brute(inst, notion)
        solve_colors_size(inst, notion)
    assert decided and len(decided) == len(set(decided))


# --------------------------------------------------------------------------
# Every cap on every solve.
# --------------------------------------------------------------------------


def test_caps_are_checked_on_every_solve_of_a_shared_instance(monkeypatch):
    monkeypatch.delenv("HDG_SEARCH_CAP", raising=False)
    # The types a colors-size solve reads, counted on an instance of its own.
    fresh = example1()
    solve_colors_size(fresh, IS)
    read = len(shapes(fresh).drawn)
    inst = example1()
    for notion in (NS, IS):
        for solve in SOLVERS.values():
            solve(inst, notion)
    total = shapes(inst).draw(10**6)
    assert len(enumerate_coalition_types(inst)) == total
    monkeypatch.setattr(colors_size, "TYPES_CAP", total - 1)
    with pytest.raises(SearchSpaceTooLarge, match=f"more than {total - 1} coalition types"):
        enumerate_coalition_types(inst)
    # One fewer than a solve reads trips the cap on the shared instance,
    # whose types are all drawn by now.
    assert 0 < read <= len(shapes(inst).drawn)
    monkeypatch.setattr(colors_size, "TYPES_CAP", read - 1)
    with pytest.raises(SearchSpaceTooLarge, match=f"more than {read - 1} coalition types"):
        solve_colors_size(inst, IS)
    monkeypatch.setattr(colors_types, "STATES_CAP", total - 1)
    with pytest.raises(SearchSpaceTooLarge, match=f"more than {total - 1} candidate coalitions"):
        solve_colors_types(inst, NS)
    comps = len(colors_ntcoal._compositions(inst))
    monkeypatch.setattr(colors_ntcoal, "GUESS_CAP", comps - 1)
    with pytest.raises(SearchSpaceTooLarge, match=f"more than {comps - 1} coalition compositions"):
        solve_colors_ntcoal(inst, IS)
    monkeypatch.setattr(brute, "BRUTE_CAP", 0)
    with pytest.raises(SearchSpaceTooLarge, match="more than 0 outcomes"):
        solve_brute(inst, NS)
    # Raised back, every solver answers from the same shared parts.
    for module, cap in ((colors_size, "TYPES_CAP"), (colors_types, "STATES_CAP"),
                        (colors_ntcoal, "GUESS_CAP"), (brute, "BRUTE_CAP")):
        monkeypatch.setattr(module, cap, total + comps)
    assert all(solve(inst, NS) is not None for solve in SOLVERS.values())


def test_a_cap_tripped_while_drawing_leaves_later_solves_whole(monkeypatch):
    monkeypatch.delenv("HDG_SEARCH_CAP", raising=False)
    inst = example1()
    monkeypatch.setattr(colors_size, "TYPES_CAP", 3)
    with pytest.raises(SearchSpaceTooLarge):
        solve_colors_size(inst, NS)
    assert len(shapes(inst).drawn) == 4
    monkeypatch.setattr(colors_size, "TYPES_CAP", 50_000)
    for notion in (NS, IS):
        for name, solve in SOLVERS.items():
            fresh = example1()
            assert _result(solve, inst, notion) == _result(solve, fresh, notion), (name, notion)


# --------------------------------------------------------------------------
# No answer crosses notions or instances.
# --------------------------------------------------------------------------

_FRESH = """
import json, sys
from hdg.brute import solve_brute
from hdg.colors_ntcoal import solve_colors_ntcoal
from hdg.colors_size import solve_colors_size
from hdg.colors_types import solve_colors_types
from hdg.errors import SearchSpaceTooLarge
from hdg.fileio import parse_instance

SOLVERS = {"brute": solve_brute, "colors-size": solve_colors_size,
           "colors-types": solve_colors_types, "colors-ntcoal": solve_colors_ntcoal}
out = []
for text in json.load(sys.stdin):
    row = {}
    for name, solve in SOLVERS.items():
        for notion in ("ns", "is"):
            try:
                found = solve(parse_instance(text), notion)
            except SearchSpaceTooLarge as exc:
                row[name + "/" + notion] = f"cap: {exc}"
                continue
            row[name + "/" + notion] = None if found is None else [list(c) for c in found.coalitions]
    out.append(row)
json.dump(out, sys.stdout)
"""


def _population():
    # The first draws of the acceptance population, where some solvers
    # answer NS and IS differently, and two n-sweep games.
    rng = random.Random(20240)
    games = []
    for _ in range(60):
        own = rng.random() < 0.3
        games.append(random_instance(rng, GenCaps(n=7, rho2=2), own_color=own))
    games += [sweep_game(profile, 8, 2) for profile in (0, 1)]
    return games


def test_alternating_notions_give_fresh_process_results():
    # Each solve in the child process runs on its own freshly parsed
    # instance; here one instance object takes every solve, the notions
    # alternating, so a verdict kept under one notion would answer the other.
    games = _population()
    texts = [serialize_instance(inst) for inst in games]
    env = dict(os.environ, PYTHONPATH=str(Path(hdg.__file__).resolve().parent.parent))
    child = subprocess.run(
        [sys.executable, "-c", _FRESH], input=json.dumps(texts), env=env,
        capture_output=True, text=True, timeout=300, check=True,
    )
    fresh = json.loads(child.stdout)
    differ = 0
    for k, text in enumerate(texts):
        inst = parse_instance(text)
        got = {}
        for first, second in ((NS, IS), (IS, NS)):
            for name, solve in SOLVERS.items():
                for notion in (first, second):
                    got.setdefault(f"{name}/{notion}", []).append(_result(solve, inst, notion))
        for key, results in got.items():
            assert results == [fresh[k][key]] * 2, (k, key)
        differ += sum(fresh[k][f"{name}/ns"] != fresh[k][f"{name}/is"] for name in SOLVERS)
    assert differ >= 10


def _twins():
    """Two instances with the same agents and different budgets and tier lists."""
    colors, types = [0, 0, 1, 1, 1], [0, 1, 0, 1, 1]
    first = {
        0: core.TierList([[(1, 2)], [(1, 1)], [(1, 0)]]),
        1: core.TierList([[(1, 1)], [(0, 1), (1, 0)], [(2, 1)]]),
    }
    second = {
        0: core.TierList([[(1, 0), (0, 1)], [(2, 1)], [(1, 1)]]),
        1: core.TierList([[(1, 2)], [(1, 1)]]),
    }
    return tuple(
        core.make_instance(colors, prefs, types=types, gamma=2, sigma=sigma)
        for prefs, sigma in ((first, 3), (second, 5))
    )


def test_a_replaced_instance_never_gets_the_dropped_ones_parts():
    # As with the tier table: a new instance made right after one is
    # dropped can take its id, and only the weak reference tells them
    # apart.  A `LargeInstance` dropped while `spare_blocks` are held
    # makes that happen on every round.
    want = {}
    for inst in _twins():
        fresh = parse_instance(serialize_instance(inst))
        want[inst.budgets.sigma] = {
            (name, notion): _result(solve, parse_instance(serialize_instance(fresh)), notion)
            for name, solve in SOLVERS.items()
            for notion in (NS, IS)
        }
    reused = 0
    for round_ in range(2):
        inst, other = map(large_copy, _twins()[:: 1 if round_ % 2 else -1])
        fields = (other.gamma, other.colors, other.types, other.prefs, other.budgets)
        del other
        for (name, notion), result in want[inst.budgets.sigma].items():
            assert _result(SOLVERS[name], inst, notion) == result
        parts, old_id = shared(inst), id(inst)
        old = (parts.tiers, shapes(inst), deviation_rule(inst, NS), deviation_rule(inst, IS))
        spares = spare_blocks(fields)
        del inst, parts
        inst = LargeInstance(*fields)
        del spares
        reused += id(inst) == old_id
        new = shared(inst)
        assert not new.parts
        now = (new.tiers, shapes(inst), deviation_rule(inst, NS), deviation_rule(inst, IS))
        assert all(a is not b for a, b in zip(old, now))
        limits = [inst.n_ct[p] for p in inst.present_pairs]
        shapes(inst).draw(10**6)
        listed = sorted(vec for vec, _ in shapes(inst).listed())
        assert listed == sorted(compositions_upto(limits, inst.budgets.sigma))
        for (name, notion), result in want[inst.budgets.sigma].items():
            assert _result(SOLVERS[name], inst, notion) == result
        del inst, new
    assert reused == 2
