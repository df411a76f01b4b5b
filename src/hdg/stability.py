"""Deviation detection and outcome verification.

An outcome is a partition of the agents.  An agent admits an NS-deviation
to a coalition C of the outcome (or to the empty coalition) when it
strictly prefers C plus itself over its current coalition; an IS-deviation
additionally requires every member of C to weakly approve the join.
Deviations ignore the size/count budgets: budgets only filter which
outcomes are acceptable, they do not change the game.

Whether an agent deviates to C depends only on the agent's (color, type),
its own coalition's color counts, C's color counts and, under IS, the set
of types present in C.  `DeviationRule` states that once, over the
instance's `core.tier_table`, per agent class and per pair of coalition
shapes (`Block`, the one shape the class-level solvers use; `shapes`
holds every shape an instance can realize, in the one order they all
read).  Both are built once per instance and kept in its `core.shared`
parts, the rule once per notion, so every solve and check of the
instance reads the same shapes and the same block verdicts.

A dealt outcome (`deal_outcome`) keeps its lone agents as runs, slices
of the instance's class pools after its explicit coalitions, and lists
their one-agent coalitions only when `Outcome.coalitions` is read.  A
check reads the runs as they are: it costs O(explicit members + runs +
classes) whatever n is, and a witness whose agents all go alone is
checked without a coalition being built.

Checking an outcome costs per coalition and class, not per agent.  The
partition is tested with a few C-level passes over the explicit ids
(`member_of` only words the error); runs are tested by their bounds,
each an own pool's slice, disjoint from the other slices of that pool
and from every explicit member, and n agents in all.  An outcome whose
runs fail that, or are slices of another instance's pools, is checked
through its `coalitions` as an explicit one.  One pass over the
coalitions groups them by that signature and lists the agents to
decide: one per class for the one-agent coalitions, which share a memo,
and one per class for a run, its first agent; one per class, its lowest
agent, for a big coalition of few classes, read with C-level scans; and
every member of any other coalition, which holds a handful of agents.
Then each (own group, class) key is decided at most once, at its lowest
agent, in agent order, and the search stops at the first key that
deviates.  Groups are tried lazily in order of their first coalition
index, so the witness is the one an agent-by-agent scan would return:
lowest agent, then lowest target index, the empty coalition last.  The
oracle work is O(keys x groups) table reads, and nothing past the
witness's key is decided.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import itemgetter
from typing import Iterator

from .core import Instance, reduce_counts, shared, tier_table
from .errors import InvalidOutcome, SolverDivergence

NS = "ns"
IS = "is"

# Sentinel target: deviate to the empty coalition, i.e. go alone.
EMPTY = -1

# The search reads a coalition of at least SCAN_FROM agents and at most
# SCAN_CLASSES classes with `_scan`'s C-level scans, and walks any other
# member by member.  On outcomes of 1,200 agents dealt at random (CPython
# 3.11) the scan is the cheaper from about 6 agents of one class, 12 of
# two and 24 of four, and at 24 agents the dearer with 8 classes or more.
SCAN_FROM = 24
SCAN_CLASSES = 4


class Outcome:
    """A partition of the agents, each coalition a tuple of sorted agent ids.

    Sorted tuples make equal partitions (in the same coalition order) equal
    and cost about a quarter of the memory of frozensets on singletons.

    `Outcome(coalitions)` holds its coalitions as given.  A dealt outcome
    (`deal_outcome`) also keeps its lone agents as `runs` after them:
    (pair, pool, start, stop) stands for the one-agent coalitions
    (pool[start],), ..., (pool[stop - 1],) of the instance's
    `agents_of_ct[pair]` pool.  `coalitions` lists them all, built once
    when first read (`__getattr__` fills the slot); `==`, `hash` and
    `repr` read it, so two outcomes of the same coalitions are equal
    however they were made.
    """

    __slots__ = ("explicit", "runs", "coalitions")

    def __init__(self, coalitions, runs=()):
        self.explicit = coalitions
        self.runs = runs
        if not runs:
            self.coalitions = coalitions

    @classmethod
    def from_sets(cls, sets) -> "Outcome":
        return cls(tuple(tuple(sorted(s)) for s in sets))

    def __getattr__(self, name: str):
        # Called only for a slot not yet set: a dealt outcome's coalitions.
        if name != "coalitions":
            raise AttributeError(name)
        self.coalitions = got = _with_lone(self.explicit, self.runs)
        return got

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coalitions == other.coalitions

    def __hash__(self):
        return hash(self.coalitions)

    def __repr__(self):
        return f"Outcome(coalitions={self.coalitions!r})"

    def member_of(self, n: int) -> list[int]:
        """Coalition index per agent; validates the partition property."""
        owner = [-1] * n
        for idx, block in enumerate(self.coalitions):
            if not block:
                raise InvalidOutcome("outcome contains an empty coalition")
            for agent in block:
                if type(agent) is not int:
                    raise InvalidOutcome(f"agent id {agent!r} is not an int")
                if not 0 <= agent < n:
                    raise InvalidOutcome(f"unknown agent {agent}")
                if owner[agent] != -1:
                    raise InvalidOutcome(f"agent {agent} listed twice")
                owner[agent] = idx
        missing = [i for i, b in enumerate(owner) if b == -1]
        if missing:
            raise InvalidOutcome(f"agents {missing} not covered")
        return owner


def _with_lone(explicit, runs) -> tuple[tuple[int, ...], ...]:
    """The explicit coalitions, then one one-agent coalition per agent of
    each run."""
    coalitions = list(explicit)
    for _, pool, start, stop in runs:
        coalitions.extend(zip(pool[start:stop]))
    return tuple(coalitions)


def deal_outcome(instance: Instance, blocks, alone=()) -> Outcome:
    """Outcome with one coalition per block of class counts, then one
    one-agent coalition per agent of each run in `alone`, kept as a run of
    the outcome.

    Each block is a sequence of ((color, type), count) entries, and each
    run a ((color, type), count) pair.  Agents are dealt out of each
    (color, type) class in id order, the blocks first; a class left with
    agents undealt, or asked for more than it has, means the counts are
    not a partition of the instance and raises SolverDivergence.
    """
    pools = instance.agents_of_ct
    dealt = dict.fromkeys(pools, 0)
    coalitions = []
    for block in blocks:
        members: list[int] = []
        for pair, k in block:
            start = dealt[pair]
            members.extend(pools[pair][start : start + k])
            dealt[pair] = start + k
        coalitions.append(tuple(sorted(members)))
    runs = []
    for pair, k in alone:
        start = dealt[pair]
        if k:
            runs.append((pair, pools[pair], start, start + k))
        dealt[pair] = start + k
    if any(dealt[pair] != len(agents) for pair, agents in pools.items()):
        raise SolverDivergence("class counts do not deal out every agent exactly once")
    return Outcome(tuple(coalitions), tuple(runs))


@dataclass(frozen=True, slots=True)
class Deviation:
    agent: int
    target: int  # coalition index, or EMPTY
    kind: str  # NS or IS


class Block:
    """A coalition shape: ((color, type), count) entries as `deal_outcome`
    takes them, and the color counts and member types the rule reads."""

    __slots__ = ("pair_counts", "counts", "types")

    def __init__(self, pair_counts, gamma: int):
        self.pair_counts = pair_counts = tuple(pair_counts)
        counts = [0] * gamma
        for (c, _), k in pair_counts:
            counts[c] += k
        self.counts = tuple(counts)
        self.types = frozenset([t for (_, t), _ in pair_counts])


class Shapes:
    """Every coalition shape one instance can realize with 1..sigma
    members, drawn only as far as some caller has asked and kept, in one
    order: the one-agent shapes `singles`, one `Block` per present pair in
    `present_pairs` order, then `shape(i)`, the i-th shape of 2..sigma
    members, the larger first and then by `Block.pair_counts`, as (count
    vector over `present_pairs`, `Block`, size).  `counts` holds each
    present pair's number of agents."""

    __slots__ = ("singles", "counts", "drawn", "_sized", "_pairs", "_gamma")

    def __init__(self, instance: Instance):
        self._pairs, self._gamma = pairs, gamma = instance.present_pairs, instance.gamma
        self.counts = limits = tuple([instance.n_ct[pair] for pair in pairs])
        self.singles = [Block([(pair, 1)], gamma) for pair in pairs]
        self.drawn: list[tuple[tuple[int, ...], Block, int]] = []
        self._sized = _largest_first(limits, instance.budgets.sigma)

    def shape(self, i: int) -> tuple[tuple[int, ...], Block, int] | None:
        """The i-th shape of 2..sigma members, drawn if it is the next one,
        or None past the last; i is at most the number drawn, which `drawn`
        holds."""
        drawn = self.drawn
        if i < len(drawn):
            return drawn[i]
        vec = next(self._sized, None)
        if vec is None:
            return None
        block = Block([(pair, k) for pair, k in zip(self._pairs, vec) if k], self._gamma)
        drawn.append(entry := (vec, block, sum(vec)))
        return entry

    def draw(self, count: int) -> int:
        """Draws until `count` shapes, `singles` included, are kept or none
        is left; returns the number kept, which exceeds `count` only when a
        caller drew more."""
        singles = len(self.singles)
        for i in range(len(self.drawn), count - singles):
            if self.shape(i) is None:
                break
        return singles + len(self.drawn)

    def listed(self) -> list[tuple[tuple[int, ...], Block]]:
        """The shapes kept, as (count vector, `Block`): `singles`, then
        `drawn`."""
        pairs = range(len(self.singles))
        units = [tuple([int(j == i) for j in pairs]) for i in pairs]
        return list(zip(units, self.singles)) + [(vec, block) for vec, block, _ in self.drawn]


def _largest_first(limits: tuple[int, ...], top: int) -> Iterator[tuple[int, ...]]:
    """The count vectors with counts[j] <= limits[j] and 2..top members, the
    larger first and those of one size in the order of their
    `Block.pair_counts`: at the first coordinate where two vectors differ,
    the smaller positive count first and 0 last.  The vectors of a size are
    built from kept lists of tails, the last coordinates of a vector
    summing to a given count."""
    room = list(accumulate(reversed(limits), initial=0))[::-1]  # room[j]: sum(limits[j:])
    tails: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def heads(j: int, left: int) -> list[int]:
        # The counts coordinate j may take, `left` members to go, in order.
        counts = list(range(max(left - room[j + 1], 1), min(limits[j], left) + 1))
        return counts + [0] if left <= room[j + 1] else counts

    def tail(j: int, left: int) -> list[tuple[int, ...]]:
        got = tails.get((j, left))
        if got is None:
            if left:
                got = [(x,) + rest for x in heads(j, left) for rest in tail(j + 1, left - x)]
            else:
                got = [(0,) * (len(limits) - j)]
            tails[j, left] = got
        return got

    for size in range(min(top, room[0]), 1, -1):
        for x in heads(0, size):
            for rest in tail(1, size - x):
                yield (x,) + rest


def shapes(instance: Instance) -> Shapes:
    """The instance's `Shapes`, shared by every solve of it."""
    parts = shared(instance).parts
    table = parts.get("shapes")
    if table is None:
        table = parts["shapes"] = Shapes(instance)
    return table


class DeviationRule:
    """The NS or IS deviation rule over the instance's `tier_table`: a
    (color, t) agent whose own coalition is at tier `own_tier` for it joins
    a coalition with counts `target` when it strictly prefers the grown
    coalition and, under IS, no member type of the target refuses it.
    Going alone is joining the empty coalition, which has no member to
    refuse.  The block form `free` keeps its verdicts, keyed on the
    `Block`s themselves."""

    __slots__ = ("tiers", "under_is", "empty", "_free")

    def __init__(self, instance: Instance, notion: str):
        self.tiers, self.under_is = tier_table(instance), notion == IS
        self.empty = (0,) * instance.gamma
        self._free: dict[tuple[Block, Block | None], bool] = {}

    def lured(self, color: int, t: int, own_tier: int, target, members: frozenset[int]) -> bool:
        tiers = self.tiers
        return tiers.joined(t, target, color) < own_tier and not (
            self.under_is and tiers.refused(target, color, members)
        )

    def free(self, src: Block, dst: Block | None = None) -> bool:
        """No member of `src` is lured to `dst`, or with no `dst`, to go alone."""
        key = (src, dst)
        verdict = self._free.get(key)
        if verdict is None:
            verdict = self._free[key] = self._decide(src, dst)
        return verdict

    def _decide(self, src: Block, dst: Block | None) -> bool:
        own, lured, counts = self.tiers.own, self.lured, src.counts
        target, members = (self.empty, frozenset()) if dst is None else (dst.counts, dst.types)
        for (c, t), _ in src.pair_counts:
            if lured(c, t, own(t, counts), target, members):
                return False
        return True


def deviation_rule(instance: Instance, notion: str) -> DeviationRule:
    """The instance's `DeviationRule` under `notion` (NS or IS), shared by
    every solve and check of it under that notion."""
    parts = shared(instance).parts
    rule = parts.get(notion)
    if rule is None:
        rule = parts[notion] = DeviationRule(instance, notion)
    return rule


def _sizes(outcome: Outcome, n: int) -> list[int]:
    """Coalition sizes of an outcome that partitions the n agents.

    C-level passes test it: no coalition empty, n ids in all and n
    distinct ones, covering 0..n-1, each an int.  Any other outcome goes
    to `member_of`, which raises InvalidOutcome naming the fault.
    """
    coalitions = outcome.coalitions
    sizes = list(map(len, coalitions))
    try:
        agents = set().union(*coalitions)
    except TypeError:  # an unhashable id
        agents = set()
    if (
        len(agents) == n == sum(sizes)
        and all(coalitions)
        and agents.issuperset(range(n))
        and {int}.issuperset(map(type, agents))
    ):
        return sizes
    outcome.member_of(n)
    raise AssertionError("member_of accepted an outcome that is not a partition")


def _dealt_sizes(instance: Instance, explicit, runs) -> list[int] | None:
    """Sizes of the explicit coalitions when they and the lone runs
    partition the agents, else None.  Each run must be a nonempty slice of
    this instance's own pool of its class, the slices of one pool
    disjoint, each explicit member an int id found in no run (bisected in
    its class's pool), and n agents dealt in all: O(explicit members +
    runs), whatever n is."""
    pools = instance.agents_of_ct
    cuts: dict[tuple[int, int], list[tuple[int, int]]] = {}
    dealt = 0
    for pair, pool, start, stop in runs:
        if not (
            pools.get(pair) is pool
            and type(start) is int
            and type(stop) is int
            and 0 <= start < stop <= len(pool)
        ):
            return None
        cuts.setdefault(pair, []).append((start, stop))
        dealt += stop - start
    for cut in cuts.values():
        if len(cut) > 1:
            cut.sort()
            if any(stop > start for (_, stop), (start, _) in zip(cut, cut[1:])):
                return None
    sizes = list(map(len, explicit))
    if not explicit:
        return sizes if dealt == instance.n else None
    try:
        agents = set().union(*explicit)
    except TypeError:  # an unhashable id
        return None
    if not (
        dealt + len(agents) == instance.n
        and len(agents) == sum(sizes)
        and all(sizes)
        and {int}.issuperset(map(type, agents))
        and 0 <= min(agents)
        and max(agents) < instance.n
    ):
        return None
    colors, types = instance.colors, instance.types
    for agent in agents:
        pair = colors[agent], types[agent]
        cut = cuts.get(pair)
        if cut is not None:
            at = bisect_left(pools[pair], agent)
            k = bisect_right(cut, at, key=itemgetter(0)) - 1
            if k >= 0 and at < cut[k][1]:
                return None
    return sizes


def _parts(instance: Instance, outcome: Outcome):
    """(explicit coalitions, their sizes, lone runs) of an outcome that
    partitions the instance's agents.  The runs are read as they are when
    `_dealt_sizes` accepts them; any other outcome, one dealt from another
    instance's pools for one, is read through its `coalitions` with no
    runs, and `_sizes` raises InvalidOutcome if it is not a partition."""
    runs = outcome.runs
    if runs:
        sizes = _dealt_sizes(instance, outcome.explicit, runs)
        if sizes is not None:
            return outcome.explicit, sizes, runs
    return outcome.coalitions, _sizes(outcome, instance.n), ()


def _scan(instance: Instance, block) -> tuple[list[int], dict[tuple[int, int], int]] | None:
    """Color counts of a coalition and the lowest agent of each (color,
    type) class in it, read with C-level scans over its members' class
    indices: one `count` and one `index` per class.  None when it holds
    more than SCAN_CLASSES classes, where a walk stays linear."""
    members = sorted(block)
    ids = itemgetter(*members)(instance.class_of)
    classes = set(ids)
    if len(classes) > SCAN_CLASSES:
        return None
    pairs, counts = instance.present_pairs, [0] * instance.gamma
    for k in classes:
        counts[pairs[k][0]] += ids.count(k)
    return counts, {pairs[k]: members[ids.index(k)] for k in classes}


def _deviation_search(instance: Instance, explicit, runs, kind: str):
    colors, types, gamma = instance.colors, instance.types, instance.gamma
    rule = deviation_rule(instance, kind)
    lured, tier, empty, under_is = rule.lured, rule.tiers.own, rule.empty, rule.under_is
    none = frozenset()  # member types, read only under IS

    # One pass over the coalitions.  Coalitions of one signature (color
    # counts, and member types under IS) form a group, which keeps its
    # first two coalition indices.  An entry (agent, coalition index,
    # group, (color, type)) is an agent to decide: the one-agent
    # coalitions of a class share one, kept in `lone` with the lowest of
    # their agents; a scanned coalition gives one per class, its lowest
    # agent there; a walked one gives one per member, built after the pass.
    # A lone run after them is a row of one-agent coalitions of its class,
    # read as one: its lowest agent and its first two coalition indices.
    index: dict[tuple, int] = {}
    first: list[int] = []
    second: list[int | None] = []
    counts_of: list[tuple[int, ...]] = []
    present: list[frozenset[int]] = []
    entries: list[tuple] = []
    lone: dict[tuple[int, int], tuple] = {}
    walked: list[tuple] = []
    for idx, block in enumerate(explicit):
        if len(block) == 1:
            agent = block[0]
            pair = colors[agent], types[agent]
            entry = lone.get(pair)
            if entry is not None:
                g = entry[2]
                if second[g] is None:
                    second[g] = idx
                if agent < entry[0]:
                    lone[pair] = agent, idx, g, pair
                continue
            counts = [0] * gamma
            counts[pair[0]] = 1
            here = frozenset(pair[1:]) if under_is else none
        else:
            found = _scan(instance, block) if len(block) >= SCAN_FROM else None
            if found is None:
                counts = [0] * gamma
                for agent in block:
                    counts[colors[agent]] += 1
                here = frozenset([types[agent] for agent in block]) if under_is else none
            else:
                counts, lowest = found
                here = frozenset(map(itemgetter(1), lowest)) if under_is else none
        counts = tuple(counts)
        g = index.setdefault((counts, here), len(first))
        if g == len(first):
            first.append(idx)
            second.append(None)
            counts_of.append(counts)
            present.append(here)
        elif second[g] is None:
            second[g] = idx
        if len(block) == 1:
            lone[pair] = agent, idx, g, pair
        elif found is None:
            walked.append((block, idx, g))
        else:
            entries += zip(lowest.values(), repeat(idx), repeat(g), lowest)
    idx = len(explicit)
    for pair, pool, start, stop in runs:
        counts = [0] * gamma
        counts[pair[0]] = 1
        counts = tuple(counts)
        here = frozenset(pair[1:]) if under_is else none
        g = index.setdefault((counts, here), len(first))
        if g == len(first):
            first.append(idx)
            second.append(idx + 1 if stop - start > 1 else None)
            counts_of.append(counts)
            present.append(here)
        elif second[g] is None:
            second[g] = idx
        entry = lone.get(pair)
        if entry is None or pool[start] < entry[0]:
            lone[pair] = pool[start], idx, g, pair
        idx += stop - start

    # Decide the entries in agent order, each (group, class) key once, at
    # its lowest agent: every agent of a key has the same own group and so
    # the same decisions (its coalition being the group's first changes
    # only which index stands for the own group), and the first key that
    # deviates holds the witness.  The groups are tried in order of their
    # first index, which stands for the whole group (its second index when
    # the first is the agent's own coalition), until that index passes the
    # best target found.
    entries += lone.values()
    if walked:
        entries += [
            (agent, idx, g, (colors[agent], types[agent]))
            for block, idx, g in walked
            for agent in block
        ]
    entries.sort()
    settled: set[tuple[int, tuple[int, int]]] = set()
    for agent, own, g_own, pair in entries:
        if (g_own, pair) in settled:
            continue
        color, t = pair
        own_tier = tier(t, counts_of[g_own])
        best = None
        for g, cand in enumerate(first):
            if best is not None and cand > best:
                break
            if cand == own:
                cand = second[g]
                if cand is None or (best is not None and cand > best):
                    continue
            if lured(color, t, own_tier, counts_of[g], present[g]):
                best = cand
        if best is None and lured(color, t, own_tier, empty, none):
            best = EMPTY
        if best is not None:
            return Deviation(agent, best, kind)
        settled.add((g_own, pair))
    return None


def find_ns_deviation(instance: Instance, outcome: Outcome) -> Deviation | None:
    """First NS-deviation in (agent id, target index, EMPTY last) order."""
    explicit, _, runs = _parts(instance, outcome)
    return _deviation_search(instance, explicit, runs, NS)


def find_is_deviation(instance: Instance, outcome: Outcome) -> Deviation | None:
    """First IS-deviation, same witness order as find_ns_deviation."""
    explicit, _, runs = _parts(instance, outcome)
    return _deviation_search(instance, explicit, runs, IS)


def deviation_tiers(instance: Instance, outcome: Outcome, deviation: Deviation):
    """What a deviation is made of: ((color, type) of the agent, (palette,
    tier) of its coalition, (palette, tier) of the coalition it would form,
    the target grown by it or, for EMPTY, itself alone), tiers as the
    instance's `tier_table` reads them for the agent's type."""
    agent, coalitions, colors = deviation.agent, outcome.coalitions, instance.colors
    own = next(block for block in coalitions if agent in block)
    joined = [agent] if deviation.target == EMPTY else [*coalitions[deviation.target], agent]
    t, tiers = instance.types[agent], tier_table(instance)

    def read(members):
        counts = [0] * instance.gamma
        for member in members:
            counts[colors[member]] += 1
        return reduce_counts(counts), tiers.own(t, tuple(counts))

    return (colors[agent], t), read(own), read(joined)


@dataclass(frozen=True, slots=True)
class CheckResult:
    status: str  # "stable" | "unstable" | "budget"
    deviation: Deviation | None = None
    detail: str = ""

    @property
    def stable(self) -> bool:
        return self.status == "stable"


def check_outcome(instance: Instance, outcome: Outcome, notion: str) -> CheckResult:
    """Verify stability and budget compliance of an outcome."""
    if notion not in (NS, IS):
        raise ValueError(f"unknown stability notion {notion!r}")
    if outcome.runs:
        explicit, sizes, runs = _parts(instance, outcome)
    else:  # an explicit outcome, read as before at the cost of that test
        explicit, sizes, runs = outcome.coalitions, _sizes(outcome, instance.n), ()
    b = instance.budgets
    total = len(sizes)
    if runs:
        total += sum([stop - start for _, _, start, stop in runs])
    nontrivial = len(sizes) - sizes.count(1)
    biggest = max(sizes) if sizes else 1
    if total > b.rho1:
        return CheckResult("budget", detail=f"{total} coalitions > rho1={b.rho1}")
    if nontrivial > b.rho2:
        return CheckResult(
            "budget", detail=f"{nontrivial} non-trivial coalitions > rho2={b.rho2}"
        )
    if biggest > b.sigma:
        return CheckResult("budget", detail=f"coalition of size {biggest} > sigma={b.sigma}")
    dev = _deviation_search(instance, explicit, runs, notion)
    if dev is not None:
        return CheckResult("unstable", deviation=dev)
    return CheckResult("stable")
