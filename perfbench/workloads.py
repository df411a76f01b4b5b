"""How each workload's inputs are made from the seed.

Every `build_*` function is the set-up of its workload.  It makes the
instances through the program (`hdg.randgen`, `hdg.reductions`, `hdg.core`
constructors), loads each one through `fileio.serialize_instance` ->
`fileio.parse_instance`, and touches the class data the solvers read.
Only that work is timed, on the `clock` passed in; the benchmark's own
work (drawing parameters, the seed's copies of fixed instances) is not.
The independent answers are attached afterwards, outside any timing.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import hdg
import hdg.core
import hdg.fileio
import hdg.randgen
import hdg.reductions

import reference as ref

NS, IS = "ns", "is"
NOTIONS = (NS, IS)


@dataclass
class Item:
    """One loaded instance plus the solver runs the workload makes on it."""

    key: str
    instance: object
    text: str | None
    plan: list[tuple[str, str]]
    source: tuple = ()  # (kind, source problem) for reduction gadgets
    expected: dict = field(default_factory=dict)  # notion -> bool
    game: ref.Game | None = None
    # Outcomes for `check_outcome`: the solvers' witnesses and all-singletons
    # when `check_witnesses`, plus `constructed` ones; each also with one
    # agent moved.
    check_witnesses: bool = True
    constructed: list = field(default_factory=list)


CLASS_DATA = ("class_sizes", "n_ct", "agents_of_ct", "present_pairs")


class Clock:
    """The intervals of program work within one set-up build."""

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []

    def __enter__(self):
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.intervals.append((self._t0, time.perf_counter()))


def with_class_data(instance):
    for name in CLASS_DATA:
        getattr(instance, name)
    return instance


def parsed(text: str):
    """The instance loaded from `text`, with its class data touched."""
    return with_class_data(hdg.fileio.parse_instance(text))


def load(clock: Clock, key: str, instance, plan, source=(), serialize: bool = True) -> Item:
    with clock:
        text = hdg.fileio.serialize_instance(instance) if serialize else None
        instance = parsed(text) if serialize else with_class_data(instance)
    return Item(key, instance, text, plan, source)


def _two_color_palettes(max_size: int) -> list:
    """Palettes of two-color coalitions of at most `max_size` agents."""
    base = hdg.make_instance([0] * max_size + [1] * max_size, {0: hdg.TierList([])},
                             types=[0] * 2 * max_size, gamma=2)
    return hdg.core.realizable_palettes(base, max_size)


def _tiers(rng: random.Random, palettes, listed: int):
    """Random weak order over `listed` sampled palettes, as randgen draws them."""
    tiers: list[list] = []
    for p in rng.sample(palettes, k=listed):
        if tiers and rng.random() < 0.4:
            tiers[-1].append(p)
        else:
            tiers.append([p])
    return tiers


def reordered(inst, order, cperm=None, tmap=None, ids=None):
    """A copy of `inst` with its agents listed in `order`.

    `cperm` and `tmap` rename colors and types (tier lists and
    own_ratio_tiers only); `ids` replaces the agent ids.
    """
    prefs = inst.prefs
    if cperm is None:
        cperm, tmap = range(inst.gamma), {t: t for t in prefs}
    else:
        prefs = {tmap[t]: _recolored(pref, cperm) for t, pref in prefs.items()}
    b = inst.budgets
    return hdg.make_instance(
        [cperm[inst.colors[a]] for a in order],
        prefs,
        types=[tmap[inst.types[a]] for a in order],
        gamma=inst.gamma,
        sigma=b.sigma,
        rho1=b.rho1,
        rho2=b.rho2,
        agent_ids=ids or [inst.agent_ids[a] for a in order],
    )


def _recolored(pref, cperm):
    if isinstance(pref, hdg.TierList):
        def palette(p):
            q = [0] * len(p)
            for c, x in enumerate(p):
                q[cperm[c]] = x
            return tuple(q)

        return hdg.TierList([[palette(p) for p in tier] for tier in pref.tiers])
    # own_ratio_tiers, the only family the generators draw
    return hdg.NamedFamily(pref.name, dict(pref.params, color=cperm[pref.params["color"]]))


def relabel(rng: random.Random, inst):
    """An isomorphic copy: colors, types and agents permuted, ids renamed.

    Answers are the same on every copy; the order in which solvers meet
    classes, palettes and agents is not.
    """
    cperm = list(range(inst.gamma))
    rng.shuffle(cperm)
    keys = sorted(inst.prefs)
    tmap = dict(zip(keys, rng.sample(keys, len(keys))))
    order = rng.sample(range(inst.n), inst.n)
    ids = [f"a{k}" for k in rng.sample(range(inst.n), inst.n)]
    return reordered(inst, order, cperm, tmap, ids)


def shuffle_within_classes(rng: random.Random, inst):
    """The same instance with its agents shuffled inside their (color, type)
    classes; each class stays where it first occurs."""
    pairs = list(zip(inst.colors, inst.types))
    first = {}
    for a, pair in enumerate(pairs):
        first.setdefault(pair, a)
    order = rng.sample(range(inst.n), inst.n)
    order.sort(key=lambda a: first[pairs[a]])
    return reordered(inst, order)


# ---------------------------------------------------------------------------
# cross-check: the acceptance population, every solver on both notions.
# ---------------------------------------------------------------------------

# The population of tests/test_acceptance.py (criterion 2) and `hdg bench`:
# seed 20240, 500 instances at the acceptance caps, 30% own-ratio.  Its
# costs are heavy-tailed (a few colors-size runs take ~1 s while the
# median run takes 0.1 ms), so a freshly drawn population per seed would
# move the end-to-end figures by tens of percent; the seed draws an
# isomorphic copy of each instance instead.
ACCEPTANCE_SEED, ACCEPTANCE_COUNT = 20240, 500
CROSS_CAPS = hdg.randgen.GenCaps(n=7, gamma=3, tau=3, sigma=5, rho1=5, rho2=2)
GENERAL = ("brute", "brute-positions", "colors-size", "colors-types", "colors-ntcoal")


def build_cross_check(seed: int, quick: bool, clock: Clock) -> list[Item]:
    population = random.Random(ACCEPTANCE_SEED)
    rng = random.Random(seed)
    items = []
    for i in range(30 if quick else ACCEPTANCE_COUNT):
        own = population.random() < 0.3
        with clock:
            base = hdg.randgen.random_instance(population, CROSS_CAPS, own_color=own)
        plan = [(s, nt) for nt in NOTIONS for s in GENERAL]
        if own:
            plan.append(("own-nash", NS))
        items.append(load(clock, f"cc{i}", relabel(rng, base), plan))
    return items


# ---------------------------------------------------------------------------
# n-sweep: fixed preference profiles at growing n.
# ---------------------------------------------------------------------------

SWEEP_SIZES = (8, 10, 12, 16, 24, 32)
SWEEP_PROFILES = (0, 1)
SWEEP_SIGMA, SWEEP_RHO2 = 4, 2


def sweep_plan(n: int) -> list[tuple[str, str]]:
    plan = [("colors-ntcoal", NS)]
    if n <= 16:
        plan += [("colors-types", NS), ("colors-types", IS)]
    if n <= 10:
        plan += [("colors-ntcoal", IS), ("colors-size", NS), ("colors-size", IS)]
    if n <= 8:
        plan += [("brute-positions", NS), ("brute-positions", IS)]
    return plan


def _sweep_profile(profile: int, palettes):
    # Two types, each a random order over six palettes of coalitions of at
    # most sigma + 1 agents, the only palettes a budget-respecting outcome
    # or one of its deviations can show.
    rng = random.Random(7919 + profile)
    return {t: hdg.TierList(_tiers(rng, palettes, 6)) for t in (0, 1)}


def build_n_sweep(seed: int, quick: bool, clock: Clock) -> list[Item]:
    # The same two games at every n, with the four (color, type) classes
    # as equal as n allows; the seed changes nothing.  Relabelling colors
    # would reorder colors-ntcoal's guesses and colors-types' candidates,
    # and shuffling agents reorders brute-positions' placements and the
    # deviation search; on these few long runs either moves the tail by
    # more than the bound.
    palettes = _two_color_palettes(SWEEP_SIGMA + 1)
    items = []
    for profile in SWEEP_PROFILES:
        prefs = _sweep_profile(profile, palettes)
        for n in SWEEP_SIZES[:2] if quick else SWEEP_SIZES:
            classes = [(k % 4) // 2 for k in range(n)], [k % 2 for k in range(n)]
            with clock:
                inst = hdg.make_instance(
                    classes[0], prefs, types=classes[1], gamma=2, sigma=SWEEP_SIGMA,
                    rho2=SWEEP_RHO2,
                )
            items.append(load(clock, f"sweep-p{profile}-n{n}", inst, sweep_plan(n)))
    return items


# ---------------------------------------------------------------------------
# large-n: hundreds to thousands of agents, tiny search spaces.
# ---------------------------------------------------------------------------

TIER_SIZES = (60, 90, 120, 150, 180)
OWN_SIZES = (48, 72, 96, 120)
LARGE_REPLICAS = 2
LARGE_SIGMA = 4
CHECK_N = 1000


def _large_instance(rng: random.Random, n: int, own: bool, palettes, clock: Clock):
    # Going alone is in every type's top tier, so a stable outcome exists
    # and both solvers find it on their first guess: the search stays tiny
    # and the time goes to the flow network and to re-verifying a witness
    # of n coalitions.  The lower tiers are random.
    colors = [rng.randrange(2) for _ in range(n)]
    colors[0], colors[1] = 0, 1
    types = list(colors) if own else [rng.randrange(2) for _ in range(n)]
    types[0], types[1] = 0, 1
    prefs = {}
    if own:
        fracs = [(r, s) for s in range(2, LARGE_SIGMA + 2) for r in range(1, s)
                 if math.gcd(r, s) == 1]
        for t in (0, 1):
            tiers = [[[1, 1]]] + _tiers(rng, fracs, 4)
            prefs[t] = hdg.NamedFamily("own_ratio_tiers", {"color": t, "tiers": tiers})
    else:
        alone = [(1, 0), (0, 1)]
        palettes = [p for p in palettes if p not in alone]
        for t in (0, 1):
            prefs[t] = hdg.TierList([alone] + _tiers(rng, palettes, 6))
    with clock:
        return hdg.make_instance(colors, prefs, types=types, gamma=2, sigma=LARGE_SIGMA, rho2=2)


def _check_instance(rng: random.Random, n: int, clock: Clock):
    """Unbudgeted own-ratio game whose top tiers are one 3:2 composition.

    Outcomes of equal 3:2 coalitions put everyone in their top tier and are
    stable; moving one agent between two of them leaves agents that want
    back into the top tier, so that outcome is unstable.  Only checked.
    """
    colors = [0] * (3 * n // 5) + [1] * (n - 3 * n // 5)
    rng.shuffle(colors)
    prefs = {
        0: hdg.NamedFamily("own_ratio_tiers", {"color": 0, "tiers": [[[3, 5]], [[1, 1]]]}),
        1: hdg.NamedFamily("own_ratio_tiers", {"color": 1, "tiers": [[[2, 5]], [[1, 1]]]}),
    }
    with clock:
        return hdg.make_instance(colors, prefs, types=list(colors), gamma=2)


def balanced_outcome(instance, parts: int):
    """`parts` coalitions with the instance's color mix in each."""
    blocks = [[] for _ in range(parts)]
    seen = [0, 0]
    for agent, c in enumerate(instance.colors):
        blocks[seen[c] % parts].append(agent)
        seen[c] += 1
    return blocks


def build_large_n(seed: int, quick: bool, clock: Clock) -> list[Item]:
    rng = random.Random(seed)
    palettes = _two_color_palettes(LARGE_SIGMA + 1)
    items = []
    for r in range(1 if quick else LARGE_REPLICAS):
        for n in (60,) if quick else TIER_SIZES:
            inst = _large_instance(rng, n, False, palettes, clock)
            plan = [("colors-ntcoal", NS), ("colors-ntcoal", IS)]
            items.append(load(clock, f"large-tier-n{n}-r{r}", inst, plan))
        for n in (60,) if quick else OWN_SIZES:
            inst = _large_instance(rng, n, True, palettes, clock)
            plan = [("colors-ntcoal", NS), ("colors-ntcoal", IS), ("own-nash", NS)]
            items.append(load(clock, f"large-own-n{n}-r{r}", inst, plan))
    for item in items:
        # Their witnesses are re-verified inside every solve already.
        item.check_witnesses = False
    n = 200 if quick else CHECK_N
    check = load(clock, f"large-check-n{n}", _check_instance(rng, n, clock), [])
    check.check_witnesses = False
    check.constructed = [balanced_outcome(check.instance, 20)]
    items.append(check)
    return items


# ---------------------------------------------------------------------------
# reductions: gadgets from hard source problems, plus the sGASP build.
# ---------------------------------------------------------------------------

REDUCTION_SOLVERS = ("brute", "colors-size", "colors-types")
# Fixed source problems, as for cross-check: solve times differ several-fold
# between gadgets, so the seed shuffles the agents within each class of
# each gadget instead of drawing new sources.  Renaming the sources' parts
# (which permutes the gadget colors) or shuffling across classes (which
# undoes brute's pruning of adjacent interchangeable agents) moved the
# median solve time by 10-15% between seeds.
REDUCTION_SEED, REDUCTION_SCALE = 4242, 4


def _reduction_sources(rng: random.Random, scale: int):
    for i in range(scale):
        yield "x3c", ([1, 2, 3], [[1, 2, 3]] if i % 2 else [])
    for i in range(2 * scale):
        while True:
            values = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
            if sum(values) % 2 == 0:
                break
        yield "partition", tuple(values)
    vectors = {1: [(x,) for x in range(3)], 2: [(x, y) for x in range(3) for y in range(3)]}
    for i in range(2 * scale):
        k = rng.choice([1, 2])
        sets = [rng.sample(vectors[k], k=rng.randint(1, 3)) for _ in range(rng.choice([1, 2]))]
        yield "mss", (sets, tuple(rng.randint(0, 2) for _ in range(k)))
    for i in range(2 * scale):
        nv = rng.randint(2, 4)
        possible = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
        edges = [e for e in possible if rng.random() < 0.5]
        yield "indset", (nv, edges, rng.randint(1, min(3, nv)))


def _sgasp_source(rng: random.Random, num_activities: int):
    parts = tuple(f"p{i}" for i in range(rng.randint(1, 2)))
    acts = tuple(f"a{j}" for j in range(num_activities))
    approvals = {
        p: frozenset(
            (rng.choice(acts), rng.randint(1, len(parts))) for _ in range(rng.randint(0, 2))
        )
        for p in parts
    }
    return hdg.reductions.SGaspInstance(parts, acts, approvals)


def build_reductions(seed: int, quick: bool, clock: Clock) -> list[Item]:
    rng = random.Random(seed)
    red = hdg.reductions
    items = []
    plan_both = [(s, nt) for nt in NOTIONS for s in REDUCTION_SOLVERS]
    sources = _reduction_sources(random.Random(REDUCTION_SEED), 1 if quick else REDUCTION_SCALE)
    for i, (kind, src) in enumerate(sources):
        if kind == "partition":
            for nt in NOTIONS:
                with clock:
                    inst = red.from_partition(list(src), nt)
                inst = shuffle_within_classes(rng, inst)
                plan = [(s, nt) for s in REDUCTION_SOLVERS]
                items.append(load(clock, f"partition{i}-{nt}", inst, plan, (kind, src)))
            continue
        build = {"x3c": red.from_x3c, "mss": red.from_mss, "indset": red.from_independent_set}[kind]
        with clock:
            inst = build(*src)
        inst = shuffle_within_classes(rng, inst)
        items.append(load(clock, f"{kind}{i}", inst, plan_both, (kind, src)))
    # The sGASP construction is built and audited, never solved: its
    # budgets are unrestricted and it has over a million agents.  It is too
    # large to round-trip through JSON, so it skips the file load.
    source = _sgasp_source(rng, 1 if quick else 2)
    with clock:
        norm = red.gasp_normalize(source)
        inst = red.from_sgasp(norm)
    items.append(load(clock, "sgasp", inst, [], ("sgasp", norm), serialize=False))
    return items


BUILDERS = {
    "cross-check": build_cross_check,
    "n-sweep": build_n_sweep,
    "large-n": build_large_n,
    "reductions": build_reductions,
}


# ---------------------------------------------------------------------------
# Independent answers.
# ---------------------------------------------------------------------------


def attach_references(items: list[Item]) -> list[str]:
    """Fill `expected` and `game`; returns audit failures (sGASP)."""
    problems = []
    for item in items:
        kind = item.source[0] if item.source else None
        if kind == "sgasp":
            problems += audit_sgasp(item.instance, item.source[1])
            continue
        if item.text is not None:
            try:
                item.game = ref.Game(item.text)
            except ref.Unsupported:
                item.game = None
        for nt in {nt for _, nt in item.plan}:
            if kind is None:
                item.expected[nt] = item.game.stable_exists(nt)
            else:
                item.expected[nt] = source_answer(kind, item.source[1])
    return problems


def source_answer(kind: str, src) -> bool:
    if kind == "x3c":
        return ref.x3c_has_cover(*src)
    if kind == "partition":
        return ref.partition_splits(src)
    if kind == "mss":
        return ref.mss_has_choice(*src)
    return ref.indset_exists(*src)


def witness_error(item: Item, blocks, notion: str) -> str | None:
    """Why an outcome is not an acceptable witness, or None."""
    if item.game is not None:
        try:
            status = item.game.status(blocks, notion)
        except ValueError as exc:
            return f"not a partition: {exc}"
        if status != "stable":
            return f"independent checker says {status}"
    if not item.source:
        return None
    kind, src = item.source
    ids = item.instance.agent_ids
    if kind == "x3c":
        return ref.x3c_witness_error(ids, blocks, *src)
    if kind == "partition":
        return ref.partition_witness_error(ids, blocks, src)
    if kind == "mss":
        return ref.mss_witness_error(ids, blocks, *src)
    return ref.indset_witness_error(ids, blocks, src[1], src[2])


def audit_sgasp(instance, norm) -> list[str]:
    want = ref.sgasp_expected(
        norm.participants, norm.activities, norm.approvals, norm.group_size_param
    )
    ids = instance.agent_ids
    counts: dict[str, int] = {}
    first: dict[str, int] = {}
    for idx, name in enumerate(ids):
        group = name.split(".")[0] if name.startswith("m") else name[0]
        counts[group] = counts.get(group, 0) + 1
        first.setdefault(group, idx)
    problems = []
    for i, z in want["markers"].items():
        if counts.get(f"m{i}") != z:
            problems.append(f"sgasp: {counts.get(f'm{i}')} markers for activity {i}, want {z}")
        order = instance.prefs[instance.types[first[f"m{i}"]]]
        if set(order.tiers[0]) != want["marker_tiers"][i]:
            problems.append(f"sgasp: marker {i} top tier differs from the window ratios")
    if counts.get("s") != want["spoilers"]:
        problems.append(f"sgasp: {counts.get('s')} spoilers, want {want['spoilers']}")
    if counts.get("p") != want["blues"]:
        problems.append(f"sgasp: {counts.get('p')} participants, want {want['blues']}")
    index = {name: idx for idx, name in enumerate(ids) if name.startswith("p:")}
    for p, expect in want["blue_tiers"].items():
        order = instance.prefs[instance.types[index[f"p:{p}"]]]
        top = set(order.tiers[0])
        if top != expect and not (not expect and top == {(0, 1)}):
            problems.append(f"sgasp: participant {p} top tier {top} != {expect}")
    spoiler = instance.prefs[instance.types[first["s"]]]
    splits = {Fraction(a, b) for a, b in spoiler.params["splits"]}
    if splits != want["splits"]:
        problems.append("sgasp: spoiler split ratios differ from the recomputation")
    return problems
