"""Mid-size agreement gate: games of 13 to 24 agents.

The agent-level references in `tests/` stop near n = 12.  Past that, the
class-level brute force and every table solver are checked against
`perfbench/reference.py`, which imports nothing from `hdg`:

* Seeded games with two colors and two types (at most four (color, type)
  classes), sigma 2..4 and rho2 1..4, one in three own-ratio, against
  `Game.stable_exists` on both notions; every witness is re-read by
  `Game.status`.  Games with rho2 of 3 or 4 stay at n <= 16, where that
  unpruned oracle answers in under a second.  Every table solver runs on
  every game, and each one must answer at least one game past n = 14.
* Exact cover (trap gadget) and independent set gadgets past n = 12,
  against the source-side deciders, with each witness decoded there.
  Their many classes put them out of reach of `Game.stable_exists` and of
  the table solvers within this gate's time, so brute force alone solves
  them.
"""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hdg.bench import SOLVERS
from hdg.brute import solve_brute
from hdg.core import NamedFamily, TierList, make_instance, realizable_palettes
from hdg.errors import OwnColorViolation, SearchSpaceTooLarge
from hdg.fileio import serialize_instance
from hdg.reductions import from_independent_set, from_x3c
from hdg.stability import IS, NS

_spec = importlib.util.spec_from_file_location(
    "perfbench_reference", Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

SEED = 6113
GAMES = 16


def _tiers(rng, items):
    tiers = []
    for item in rng.sample(items, k=min(len(items), 6)):
        if tiers and rng.random() < 0.4:
            tiers[-1].append(item)
        else:
            tiers.append([item])
    return tiers


def midsize_game(rng, own_ratio):
    sigma, rho2 = rng.randint(2, 4), rng.randint(1, 4)
    n = rng.randint(13, 24 if rho2 <= 2 else 16)
    colors = [0, 1] + [rng.randrange(2) for _ in range(n - 2)]
    rho1 = rng.randint(max(rho2, n - rho2 * (sigma - 1)), n)
    if own_ratio:
        types = colors
        ratios = sorted({Fraction(r, s) for s in range(1, sigma + 2) for r in range(1, s + 1)})
        prefs = {
            c: NamedFamily("own_ratio_tiers", {
                "color": c,
                "tiers": [[[f.numerator, f.denominator] for f in t] for t in _tiers(rng, ratios)],
            })
            for c in (0, 1)
        }
    else:
        types = [rng.randrange(2) for _ in range(n)]
        # Only palettes of at most sigma + 1 agents matter: a coalition
        # within budget, or one that an agent joins.
        base = make_instance(colors, {0: TierList([])}, types=[0] * n, gamma=2)
        palettes = realizable_palettes(base, sigma + 1)
        prefs = {t: TierList(_tiers(rng, palettes)) for t in set(types)}
    return make_instance(colors, prefs, types=types, gamma=2, sigma=sigma, rho1=rho1, rho2=rho2)


def test_random_midsize_games_agree_with_the_independent_oracle():
    rng = random.Random(SEED)
    seen = {"n": set(), "rho2": set(), "answers": set(), "solvers": set(), "past_14": set()}
    for i in range(GAMES):
        instance = midsize_game(rng, own_ratio=i % 3 == 2)
        game = reference.Game(serialize_instance(instance))
        assert len(game.classes) <= 4
        seen["n"].add(instance.n)
        seen["rho2"].add(instance.budgets.rho2)
        for notion in (NS, IS):
            want = game.stable_exists(notion)
            seen["answers"].add((notion, want))
            for name, solver in SOLVERS.items():
                if notion not in solver.notions:
                    continue
                try:
                    outcome = solver.solve(instance, notion)
                except (SearchSpaceTooLarge, OwnColorViolation):
                    continue  # declined: a guard tripped, or not an own-ratio game
                label = f"game {i} (n={instance.n}, {instance.budgets}) {name}/{notion}"
                assert (outcome is not None) == want, label
                if outcome is not None:
                    blocks = [sorted(b) for b in outcome.coalitions]
                    assert game.status(blocks, notion) == "stable", label
                seen["solvers"].add(name)
                if instance.n > 14:
                    seen["past_14"].add(name)
    assert min(seen["n"]) <= 14 and max(seen["n"]) >= 22
    assert seen["rho2"] == {1, 2, 3, 4}
    assert seen["answers"] == {(nt, yes) for nt in (NS, IS) for yes in (True, False)}
    assert seen["solvers"] == set(SOLVERS)
    assert seen["past_14"] == set(SOLVERS)


X3C_CASES = [
    ([1, 2, 3, 4, 5, 6, 7, 8, 9], [[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 4, 7]]),
    ([1, 2, 3, 4, 5, 6, 7, 8, 9], [[1, 2, 3], [3, 4, 5], [6, 7, 8], [7, 8, 9], [1, 5, 9]]),
    (list(range(1, 13)), [[1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12], [1, 5, 9], [2, 6, 10]]),
    (list(range(1, 13)), [[1, 2, 3], [3, 4, 5], [6, 7, 8], [7, 8, 9], [10, 11, 12], [1, 5, 9]]),
]


@pytest.mark.parametrize("universe, family", X3C_CASES)
def test_x3c_gadgets_past_twelve_agents(universe, family):
    instance = from_x3c(universe, family)
    assert instance.n > 12
    want = reference.x3c_has_cover(universe, family)
    for notion in (NS, IS):
        outcome = solve_brute(instance, notion)
        assert (outcome is not None) == want, notion
        if outcome is not None:
            blocks = [sorted(b) for b in outcome.coalitions]
            assert reference.x3c_witness_error(instance.agent_ids, blocks, universe, family) is None


def _indset_cases():
    rng = random.Random(5)
    for nv in (10, 14):
        for density in (0.5, 0.7):
            edges = [(u, v) for u in range(nv) for v in range(u + 1, nv) if rng.random() < density]
            for k in (3, 4, 5):
                yield nv, edges, k


def test_indset_gadgets_past_twelve_agents():
    answers = set()
    for nv, edges, k in _indset_cases():
        instance = from_independent_set(nv, edges, k)
        assert instance.n > 12
        want = reference.indset_exists(nv, edges, k)
        answers.add(want)
        for notion in (NS, IS):
            outcome = solve_brute(instance, notion)
            assert (outcome is not None) == want, (nv, edges, k, notion)
            if outcome is not None:
                blocks = [sorted(b) for b in outcome.coalitions]
                assert reference.indset_witness_error(instance.agent_ids, blocks, edges, k) is None
    assert answers == {True, False}
