"""Instance and outcome files.

Instances are JSON: a header with the agent/color counts and budgets,
one record per agent (id, color, type), and one preference block per
type, either an explicit tier list (palettes as integer count vectors)
or a named comparator family with parameters.  Outcomes are lists of
agent-id lists.  Serialization is canonical (sorted keys, sorted tiers)
so files round-trip byte-exactly; parsing rejects a key given twice in
one object.

A file's bytes are those of `json.dumps(data, sort_keys=True, indent=1)`
plus a newline.  json formats any indented output in pure Python, so the
part that grows with n, the agent records and the coalitions, is written
here in one C-level pass over the columns (ids through json's C string
encoder); json writes only the header and the preference blocks.
"""

from __future__ import annotations

import json
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .core import Budgets, Instance, NamedFamily, TierList
from .errors import InvalidInput
from .stability import Outcome


def _header(instance: Instance) -> dict:
    """An instance file's data without its agent records."""
    types: dict[str, dict] = {}
    for t, order in sorted(instance.prefs.items()):
        if isinstance(order, TierList):
            types[str(t)] = {
                "tiers": [sorted(list(p) for p in tier) for tier in order.tiers]
            }
        elif isinstance(order, NamedFamily):
            types[str(t)] = {"family": order.name, "params": order.params}
        else:
            raise InvalidInput(f"cannot serialize order {order!r}")
    return {
        "n": instance.n,
        "gamma": instance.gamma,
        "sigma": instance.budgets.sigma,
        "rho1": instance.budgets.rho1,
        "rho2": instance.budgets.rho2,
        "types": types,
    }


def _nested(value) -> str:
    """`value` as json writes it three levels deep in an indent=1 file."""
    return json.dumps(value, sort_keys=True, indent=1).replace("\n", "\n   ")


def _atoms(column: Sequence) -> Iterable[str]:
    """Each entry of a column as json writes it in an agent record's field
    or a coalition's list: all-str and all-int columns by C-level maps."""
    kinds = set(map(type, column))
    if kinds == {str}:
        return map(encode_basestring_ascii, column)
    if kinds == {int}:
        return map(int.__repr__, column)
    return map(_nested, column)


# One agent record ("agents" is the first of the sorted top-level keys),
# and the separator of a coalition's members.
_RECORD = '  {\n   "color": %s,\n   "id": %s,\n   "type": %s\n  }'
_MEMBERS = ",\n   "


def serialize_instance(instance: Instance) -> str:
    fields = zip(_atoms(instance.colors), _atoms(instance.agent_ids), _atoms(instance.types))
    records = ",\n".join(map(_RECORD.__mod__, fields))
    header = json.dumps(_header(instance), sort_keys=True, indent=1)
    return f'{{\n "agents": [\n{records}\n ],\n{header[2:]}\n'


# Top-level keys of an instance file and the JSON type each must have.
_TOP_LEVEL = {
    "n": int,
    "gamma": int,
    "sigma": int,
    "rho1": int,
    "rho2": int,
    "agents": list,
    "types": dict,
}


def _integers(values, what: str) -> tuple[int, ...]:
    """JSON ints as a tuple; booleans, floats and strings raise InvalidInput."""
    values = tuple(values)
    if set(map(type, values)) - {int}:
        bad = next(v for v in values if type(v) is not int)
        raise InvalidInput(f"{what} must be int, not {type(bad).__name__}")
    return values


def _type_id(key: str) -> int:
    """A `types` key as its type id: canonical decimal digits only, so no
    two keys name one type."""
    if not (key.isascii() and key.isdigit()) or str(int(key)) != key:
        raise InvalidInput(f"type key {key!r} is not a canonical decimal type id")
    return int(key)


def _agent_ids(agents) -> tuple[str, ...]:
    """Agent ids as strings; only JSON strings and ints (not booleans) are ids."""
    names = list(map(itemgetter("id"), agents))
    if not set(map(type, names)) <= {str, int}:
        bad = next(v for v in names if type(v) not in (str, int))
        raise InvalidInput(f"agent id must be a string or an int, not {type(bad).__name__}")
    return tuple(map(str, names))


def instance_from_data(data: Mapping) -> Instance:
    if not isinstance(data, dict):
        raise InvalidInput("instance data must be a JSON object")
    for key, kind in _TOP_LEVEL.items():
        if key not in data:
            raise InvalidInput(f"instance data has no {key!r}")
        value = data[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise InvalidInput(
                f"instance {key!r} must be {kind.__name__}, not {type(value).__name__}"
            )
    try:
        agents = data["agents"]
        prefs: dict[int, TierList | NamedFamily] = {}
        for key, block in data["types"].items():
            if "tiers" in block:
                prefs[_type_id(key)] = TierList(
                    [
                        [_integers(p, f"type {key} palette entry") for p in tier]
                        for tier in block["tiers"]
                    ]
                )
            else:
                prefs[_type_id(key)] = NamedFamily(block["family"], block["params"])
        instance = Instance(
            gamma=data["gamma"],
            colors=_integers(map(itemgetter("color"), agents), "agent color"),
            types=_integers(map(itemgetter("type"), agents), "agent type"),
            prefs=prefs,
            budgets=Budgets(data["sigma"], data["rho1"], data["rho2"]),
            agent_ids=_agent_ids(agents),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed instance data: {exc}") from exc
    if instance.n != data["n"]:
        raise InvalidInput("agent record count does not match n")
    if len(set(instance.agent_ids)) != instance.n:
        raise InvalidInput("agent ids must be unique")
    return instance


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a key given twice raises InvalidInput rather
    than silently keeping the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise InvalidInput(f"duplicate key {key!r} in a JSON object")
            seen.add(key)
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _loads(text: str):
    try:
        if text.startswith("\ufeff"):  # as json.loads words it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"not valid JSON: {exc}") from exc


def parse_instance(text: str) -> Instance:
    return instance_from_data(_loads(text))


def save_instance(instance: Instance, path) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_instance(instance))


def load_instance(path) -> Instance:
    with open(path) as fh:
        return parse_instance(fh.read())


def outcome_from_data(instance: Instance, data: Mapping) -> Outcome:
    index = {name: a for a, name in enumerate(instance.agent_ids)}
    if not isinstance(data, dict) or not isinstance(data.get("coalitions"), list):
        raise InvalidInput("outcome data must be a JSON object with a 'coalitions' list")
    blocks = []
    for block in data["coalitions"]:
        if not isinstance(block, list):
            raise InvalidInput(f"a coalition must be a list, not {type(block).__name__}")
        members = []
        for name in block:
            if str(name) not in index:
                raise InvalidInput(f"unknown agent id {name!r}")
            members.append(index[str(name)])
        blocks.append(members)
    return Outcome.from_sets(blocks)


def serialize_outcome(instance: Instance, outcome: Outcome) -> str:
    names = instance.agent_ids
    blocks = sorted(sorted(map(names.__getitem__, block)) for block in outcome.coalitions)
    atoms = iter(_atoms(list(chain.from_iterable(blocks))))
    body = ",\n".join(
        f"  [\n   {_MEMBERS.join(islice(atoms, len(block)))}\n  ]" if block else "  []"
        for block in blocks
    )
    coalitions = f"[\n{body}\n ]" if blocks else "[]"
    return f'{{\n "coalitions": {coalitions}\n}}\n'


def parse_outcome(instance: Instance, text: str) -> Outcome:
    return outcome_from_data(instance, _loads(text))


def save_outcome(instance: Instance, outcome: Outcome, path) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_outcome(instance, outcome))


def load_outcome(instance: Instance, path) -> Outcome:
    with open(path) as fh:
        return parse_outcome(instance, fh.read())
