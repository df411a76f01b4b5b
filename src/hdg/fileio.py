"""Instance and outcome files.

Instances are JSON: a header with the agent/color counts and budgets,
one record per agent (id, color, type), and one preference block per
type, either an explicit tier list (palettes as integer count vectors)
or a named comparator family with parameters.  Outcomes are lists of
agent-id lists.  Serialization is canonical (sorted keys, sorted tiers)
so files round-trip byte-exactly; parsing rejects a key given twice in
one object.
"""

from __future__ import annotations

import json
from typing import Mapping

from .core import Budgets, Instance, NamedFamily, TierList
from .errors import InvalidInput
from .stability import Outcome


def instance_to_data(instance: Instance) -> dict:
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
        "agents": [
            {"id": name, "color": color, "type": t}
            for name, color, t in zip(instance.agent_ids, instance.colors, instance.types)
        ],
        "types": types,
    }


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
    names = [a["id"] for a in agents]
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
            colors=_integers((a["color"] for a in agents), "agent color"),
            types=_integers((a["type"] for a in agents), "agent type"),
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


def serialize_instance(instance: Instance) -> str:
    return json.dumps(instance_to_data(instance), sort_keys=True, indent=1) + "\n"


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


def _loads(text: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
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


def outcome_to_data(instance: Instance, outcome: Outcome) -> dict:
    blocks = sorted(
        sorted(instance.agent_ids[a] for a in block) for block in outcome.coalitions
    )
    return {"coalitions": blocks}


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
    return json.dumps(outcome_to_data(instance, outcome), sort_keys=True, indent=1) + "\n"


def parse_outcome(instance: Instance, text: str) -> Outcome:
    return outcome_from_data(instance, _loads(text))


def save_outcome(instance: Instance, outcome: Outcome, path) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_outcome(instance, outcome))


def load_outcome(instance: Instance, path) -> Outcome:
    with open(path) as fh:
        return parse_outcome(instance, fh.read())
