"""Seeded random instance generation for cross-solver testing."""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from fractions import Fraction

from .core import Instance, NamedFamily, Palette, TierList, make_instance, realizable_palettes
from .errors import InvalidInput


@dataclass(frozen=True)
class GenCaps:
    n: int = 7
    gamma: int = 3
    tau: int = 3
    sigma: int = 5
    rho1: int = 5
    rho2: int = 2

    def __post_init__(self):
        for field in fields(self):
            value, least = getattr(self, field.name), 0 if field.name == "rho2" else 1
            if value < least:
                raise InvalidInput(f"cap {field.name} must be at least {least}, not {value}")


def random_instance(rng: random.Random, caps: GenCaps = GenCaps(), own_color: bool = False) -> Instance:
    """One random instance within the caps.

    Tier lists are sampled over the instance's realizable palettes; with
    own_color=True every type is an own-color-ratio order, which is the
    fragment the own-ratio solver accepts.
    """
    n = rng.randint(1, caps.n)
    gamma = rng.randint(1, min(caps.gamma, n))
    colors = [rng.randrange(gamma) for _ in range(n)]
    # Keep color 0 nonempty so gamma is never wholly fictitious.
    colors[0] = 0
    sigma = rng.randint(1, min(caps.sigma, n))
    rho1 = rng.randint(1, min(caps.rho1, n))
    rho2 = rng.randint(0, min(caps.rho2, rho1))

    prefs = {}
    if own_color:
        # Own-ratio orders read one fixed color, so each type must be
        # owned by a single color class.
        present = sorted(set(colors))
        per_color: dict[int, list[int]] = {}
        next_id = 0
        budget = max(caps.tau - len(present), 0)
        for c in present:
            extra = rng.randint(0, budget)
            budget -= extra
            per_color[c] = list(range(next_id, next_id + 1 + extra))
            next_id += 1 + extra
        types = [rng.choice(per_color[c]) for c in colors]
        used = sorted(set(types))
        types = [used.index(t) for t in types]
        owner = {t: c for c, ts in per_color.items() for t in ts}
        for new_id, old_id in enumerate(used):
            prefs[new_id] = _random_own_ratio(rng, owner[old_id], n)
    else:
        tau = rng.randint(1, caps.tau)
        types = [rng.randrange(tau) for _ in range(n)]
        used = sorted(set(types))
        types = [used.index(t) for t in types]
        base = make_instance(colors, {0: TierList([])}, types=[0] * n, gamma=gamma)
        universe = realizable_palettes(base, n)
        for t in range(len(used)):
            prefs[t] = _random_tierlist(rng, universe)
    return make_instance(
        colors,
        prefs,
        types=types,
        gamma=gamma,
        sigma=sigma,
        rho1=rho1,
        rho2=rho2,
    )


def _random_tierlist(rng: random.Random, universe: list[Palette]) -> TierList:
    listed = rng.sample(universe, k=rng.randint(0, min(len(universe), 6)))
    rng.shuffle(listed)
    tiers: list[list] = []
    for p in listed:
        if tiers and rng.random() < 0.4:
            tiers[-1].append(p)
        else:
            tiers.append([p])
    return TierList(tiers)


def _random_own_ratio(rng: random.Random, color: int, n: int) -> NamedFamily:
    fracs = sorted({Fraction(r, s) for s in range(1, n + 1) for r in range(1, s + 1)})
    listed = rng.sample(fracs, k=rng.randint(0, min(len(fracs), 6)))
    tiers: list[list[list[int]]] = []
    for f in listed:
        pair = [f.numerator, f.denominator]
        if tiers and rng.random() < 0.4:
            tiers[-1].append(pair)
        else:
            tiers.append([pair])
    return NamedFamily("own_ratio_tiers", {"color": color, "tiers": tiers})
