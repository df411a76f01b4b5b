"""Deviation detection and outcome verification.

An outcome is a partition of the agents.  An agent admits an NS-deviation
to a coalition C of the outcome (or to the empty coalition) when it
strictly prefers C plus itself over its current coalition; an IS-deviation
additionally requires every member of C to weakly approve the join.
Deviations ignore the size/count budgets: budgets only filter which
outcomes are acceptable, they do not change the game.

Whether an agent deviates to C depends only on the agent's (color, type),
its own coalition's color counts, C's color counts and, under IS, the set
of types present in C.  The search therefore groups coalitions by that
signature in one O(n) pass and decides each agent class -- own signature,
color and type -- against each group at most once, reading tiers straight
from each type's `tier_of`, with no cache.  Groups are tried lazily in
order of their first coalition index, so the witness is the one an
agent-by-agent scan would return: lowest agent, then lowest target index,
the empty coalition last.
The cost is O(n + agent classes x groups) oracle work instead of O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Instance, reduce_counts, singleton_palette
from .errors import InvalidOutcome, SolverDivergence

NS = "ns"
IS = "is"

# Sentinel target: deviate to the empty coalition, i.e. go alone.
EMPTY = -1


@dataclass(frozen=True, slots=True)
class Outcome:
    """A partition of the agents, each coalition a tuple of sorted agent ids.

    Sorted tuples make equal partitions (in the same coalition order) equal
    and cost about a quarter of the memory of frozensets on singletons.
    """

    coalitions: tuple[tuple[int, ...], ...]

    @classmethod
    def from_sets(cls, sets) -> "Outcome":
        return cls(tuple(tuple(sorted(s)) for s in sets))

    def member_of(self, n: int) -> list[int]:
        """Coalition index per agent; validates the partition property."""
        owner = [-1] * n
        for idx, block in enumerate(self.coalitions):
            if not block:
                raise InvalidOutcome("outcome contains an empty coalition")
            for agent in block:
                if not 0 <= agent < n:
                    raise InvalidOutcome(f"unknown agent {agent}")
                if owner[agent] != -1:
                    raise InvalidOutcome(f"agent {agent} listed twice")
                owner[agent] = idx
        missing = [i for i, b in enumerate(owner) if b == -1]
        if missing:
            raise InvalidOutcome(f"agents {missing} not covered")
        return owner


def deal_outcome(instance: Instance, blocks) -> Outcome:
    """Outcome with one coalition per block of class counts.

    Each block is a sequence of ((color, type), count) entries.  Agents are
    dealt out of each (color, type) class in id order; a class left with
    agents undealt, or asked for more than it has, means the counts are not
    a partition of the instance and raises SolverDivergence.
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
    if any(dealt[pair] != len(agents) for pair, agents in pools.items()):
        raise SolverDivergence("class counts do not deal out every agent exactly once")
    return Outcome(tuple(coalitions))


@dataclass(frozen=True, slots=True)
class Deviation:
    agent: int
    target: int  # coalition index, or EMPTY
    kind: str  # NS or IS


def _deviation_search(instance: Instance, outcome: Outcome, owner: list[int], kind: str):
    colors, types, gamma = instance.colors, instance.types, instance.gamma
    prefs = instance.prefs
    under_is = kind == IS

    # One pass over the agents: counts and signature per coalition, and
    # per signature group its first two coalition indices.
    group_of: list[int] = []
    first: list[int] = []
    second: list[int | None] = []
    counts_of: list[tuple[int, ...]] = []
    present: list[frozenset[int]] = []
    index: dict[tuple, int] = {}
    for idx, block in enumerate(outcome.coalitions):
        counts = [0] * gamma
        for member in block:
            counts[colors[member]] += 1
        counts = tuple(counts)
        if under_is:
            here = frozenset(types[member] for member in block)
            sig = (counts, here)
        else:
            sig = counts
        g = index.get(sig)
        if g is None:
            g = index[sig] = len(first)
            first.append(idx)
            second.append(None)
            counts_of.append(counts)
            if under_is:
                present.append(here)
        elif second[g] is None:
            second[g] = idx
        group_of.append(g)

    palettes = [reduce_counts(counts) for counts in counts_of]

    # Walk the agents in id order.  The groups are tried in order of their
    # first index, which stands for the whole group (its second index when
    # the first is the agent's own coalition), until that index passes the
    # best target found.  A class with no deviation is remembered: any
    # later agent of it has the same own group and the same decisions.
    settled: set[tuple[int, int, int]] = set()
    for agent in range(instance.n):
        own = owner[agent]
        g_own = group_of[own]
        color, t = colors[agent], types[agent]
        if (g_own, color, t) in settled:
            continue
        tier_of = prefs[t].tier_of
        own_tier = tier_of(palettes[g_own])
        best = None
        for g, cand in enumerate(first):
            if best is not None and cand > best:
                break
            if cand == own:
                cand = second[g]
                if cand is None or (best is not None and cand > best):
                    continue
            counts = list(counts_of[g])
            counts[color] += 1
            joined = reduce_counts(counts)
            if tier_of(joined) >= own_tier:
                continue
            if under_is and not all(
                prefs[u].tier_of(joined) <= prefs[u].tier_of(palettes[g])
                for u in present[g]
            ):
                continue
            best = cand
        if best is None and tier_of(singleton_palette(color, gamma)) < own_tier:
            # Deviation to the empty coalition: always accepted under IS.
            best = EMPTY
        if best is not None:
            return Deviation(agent, best, kind)
        settled.add((g_own, color, t))
    return None


def find_ns_deviation(instance: Instance, outcome: Outcome) -> Deviation | None:
    """First NS-deviation in (agent id, target index, EMPTY last) order."""
    return _deviation_search(instance, outcome, outcome.member_of(instance.n), NS)


def find_is_deviation(instance: Instance, outcome: Outcome) -> Deviation | None:
    """First IS-deviation, same witness order as find_ns_deviation."""
    return _deviation_search(instance, outcome, outcome.member_of(instance.n), IS)


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
    owner = outcome.member_of(instance.n)  # validates the partition
    b = instance.budgets
    total = len(outcome.coalitions)
    nontrivial = sum(1 for c in outcome.coalitions if len(c) >= 2)
    biggest = max(len(c) for c in outcome.coalitions)
    if total > b.rho1:
        return CheckResult("budget", detail=f"{total} coalitions > rho1={b.rho1}")
    if nontrivial > b.rho2:
        return CheckResult(
            "budget", detail=f"{nontrivial} non-trivial coalitions > rho2={b.rho2}"
        )
    if biggest > b.sigma:
        return CheckResult("budget", detail=f"coalition of size {biggest} > sigma={b.sigma}")
    dev = _deviation_search(instance, outcome, owner, notion)
    if dev is not None:
        return CheckResult("unstable", deviation=dev)
    return CheckResult("stable")
