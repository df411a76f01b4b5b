"""Malformed named-family parameters are input errors, never crashes.

Each named family's `params`, and each parameter in it, is replaced by
JSON atoms of every kind in the reduction gadgets and an own-ratio draw.
The file must then fail to parse with `InvalidInput`, or parse and solve
raising nothing but `HdgError`: a parameter that passes the parse must not
turn into a TypeError or IndexError inside a solve.
"""

import json
import random

import pytest

from hdg import NS, solve_brute, solve_colors_size
from hdg.errors import HdgError, InvalidInput
from hdg.fileio import parse_instance, serialize_instance
from hdg.randgen import GenCaps, random_instance
from hdg.reductions import from_independent_set, from_mss, from_partition, from_x3c

REPLACEMENTS = [None, True, -1, 99, 1.5, "x", [], {}, [0], [None], [[0]]]


def _own_ratio_draw():
    """The first seeded own-ratio draw with two colors and a listed ratio."""
    rng = random.Random(2028)
    while True:
        inst = random_instance(rng, GenCaps(n=5, gamma=2, tau=2), own_color=True)
        if inst.gamma == 2 and any(order.params["tiers"] for order in inst.prefs.values()):
            return inst


GADGETS = {
    "partition": lambda: from_partition([1, 2, 3], NS),
    "x3c": lambda: from_x3c([1, 2, 3], [[1, 2, 3]]),
    "mss": lambda: from_mss([[(1, 0)], [(0, 1)]], (1, 1)),
    "indset": lambda: from_independent_set(3, [(0, 1)], 2),
    "own-ratio": _own_ratio_draw,
}


def variants(data):
    """(what, data) with `params`, or one parameter, of one family replaced."""
    for key, block in data["types"].items():
        if "family" not in block:
            continue
        where = f"type {key} ({block['family']})"
        for value in REPLACEMENTS:
            yield f"{where} params={value!r}", _replaced(data, key, None, value)
            for name in block["params"]:
                yield f"{where} {name}={value!r}", _replaced(data, key, name, value)


def _replaced(data, key, name, value):
    data = json.loads(json.dumps(data))
    block = data["types"][key]
    if name is None:
        block["params"] = value
    else:
        block["params"][name] = value
    return data


@pytest.mark.parametrize("gadget", GADGETS)
def test_malformed_family_parameters_raise_only_hdg_errors(gadget):
    data = json.loads(serialize_instance(GADGETS[gadget]()))
    cases = 0
    for what, bad in variants(data):
        cases += 1
        try:
            inst = parse_instance(json.dumps(bad))
        except InvalidInput:
            continue
        for solve in (solve_brute, solve_colors_size):
            try:
                solve(inst, NS)
            except HdgError:
                pass
            except Exception as exc:  # pragma: no cover - the failure report
                pytest.fail(f"{gadget}: {what}: {solve.__name__} raised {exc!r}")
    assert cases == sum(
        len(REPLACEMENTS) * (1 + len(block["params"]))
        for block in data["types"].values()
        if "family" in block
    )
