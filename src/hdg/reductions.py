"""Instance generators built from classical hard problems.

Each generator maps a source instance (exact cover, number partition,
multidimensional subset sum, independent set, group activity selection)
to a diversity game whose stable outcomes correspond to source solutions.
They serve as adversarial fixtures, and tiny inputs are cross-verified
end to end against source-side brute-force deciders (in the test suite).

Several constructions share a trap gadget: one red agent, one blue agent
and m green agents whose orders force every green into a "desirable"
coalition of the host instance; otherwise red, blue and the greens chase
each other in a cycle and no outcome is stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import IdColumn, Instance, NamedFamily, Palette, Runs, TierList, make_instance
from .errors import InvalidInput

# ---------------------------------------------------------------------------
# Trap gadget.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrapGadget:
    """Colors and tier lists of the red/blue/green trap.

    The green order's top tier (the desirable coalitions) is supplied by
    the host construction; reds and blues only ever chase each other and
    the greens.
    """

    green: int
    red: int
    blue: int
    num_greens: int
    gamma: int

    def _chain(self, partner: int) -> list[list[Palette]]:
        tiers = []
        for k in range(self.num_greens, 0, -1):
            counts = [0] * self.gamma
            counts[self.green] = k
            counts[partner] = 1
            tiers.append([tuple(counts)])
        return tiers

    def _unit(self, color: int) -> Palette:
        return tuple(1 if c == color else 0 for c in range(self.gamma))

    def _pair(self, a: int, b: int) -> Palette:
        counts = [0] * self.gamma
        counts[a] += 1
        counts[b] += 1
        return tuple(counts)

    def green_tiers(self, desirable: Iterable[Palette]) -> TierList:
        tiers = [list(desirable)]
        tiers += self._chain(self.red)
        tiers += self._chain(self.blue)
        tiers.append([self._unit(self.green)])
        return TierList(tiers)

    def red_tiers(self) -> TierList:
        tiers = [[self._pair(self.red, self.blue)]]
        tiers += self._chain(self.red)
        tiers.append([self._unit(self.red)])
        return TierList(tiers)

    def blue_tiers(self) -> TierList:
        tiers = self._chain(self.blue)
        tiers.append([self._pair(self.red, self.blue)])
        tiers.append([self._unit(self.blue)])
        return TierList(tiers)


# ---------------------------------------------------------------------------
# Exact cover by 3-sets.
# ---------------------------------------------------------------------------


def from_x3c(universe: Sequence[int], family: Sequence[Iterable[int]]) -> Instance:
    """Universe agents with fresh colors, one green per needed triple.

    A stable outcome exists (either notion) iff the family contains an
    exact cover.
    """
    universe = list(universe)
    if len(universe) % 3 != 0 or not universe:
        raise InvalidInput("universe size must be a positive multiple of 3")
    if len(set(universe)) != len(universe):
        raise InvalidInput("universe has repeated elements")
    triples = [tuple(sorted(x)) for x in family]
    if len(set(triples)) != len(triples):
        raise InvalidInput("set family must be duplicate-free")
    for x in triples:
        if len(set(x)) != 3 or not set(x) <= set(universe):
            raise InvalidInput(f"{x} is not a 3-subset of the universe")

    m = len(universe) // 3
    index = {u: i for i, u in enumerate(universe)}
    gamma = len(universe) + 3
    gadget = TrapGadget(
        green=len(universe),
        red=len(universe) + 1,
        blue=len(universe) + 2,
        num_greens=m,
        gamma=gamma,
    )

    def triple_palette(x) -> Palette:
        counts = [0] * gamma
        for u in x:
            counts[index[u]] = 1
        counts[gadget.green] = 1
        return tuple(counts)

    desirable = [triple_palette(x) for x in sorted(triples)]
    master = TierList(
        [desirable, [gadget._unit(index[u]) for u in universe]]
    )
    colors = [index[u] for u in universe] + [gadget.green] * m + [gadget.red, gadget.blue]
    types = [0] * len(universe) + [1] * m + [2, 3]
    ids = [f"u{u}" for u in universe] + [f"g{i}" for i in range(m)] + ["R", "B"]
    return make_instance(
        colors=colors,
        types=types,
        prefs={
            0: master,
            1: gadget.green_tiers(desirable),
            2: gadget.red_tiers(),
            3: gadget.blue_tiers(),
        },
        gamma=gamma,
        sigma=4,
        agent_ids=ids,
    )


# ---------------------------------------------------------------------------
# Partition.
# ---------------------------------------------------------------------------


def from_partition(values: Sequence[int], notion: str) -> Instance:
    """Number-partition construction via the trap gadget with two greens.

    Desirable coalitions hold exactly one green and value-sum half the
    total.  A lone pair-seeking guard would invade a singleton half (for
    values like [1,2,3] every valid split has one), so both stability
    notions use the gadget variant; Nash stability implies individual
    stability, so the converse argument covers both.
    """
    if notion not in ("ns", "is"):
        raise InvalidInput(f"unknown notion {notion!r}")
    values = list(values)
    if not values or any(v < 1 for v in values):
        raise InvalidInput("values must be positive integers")
    total = sum(values)
    if total % 2 != 0:
        raise InvalidInput("values must have an even sum")
    target = total // 2
    distinct = sorted(set(values))
    color_of_value = {v: i for i, v in enumerate(distinct)}
    mult = [values.count(v) for v in distinct]
    ids = [f"v{v}.{i}" for v in distinct for i in range(values.count(v))]
    colors = [color_of_value[v] for v in distinct for _ in range(values.count(v))]

    green = len(distinct)
    gamma = green + 3
    gadget = TrapGadget(green=green, red=green + 1, blue=green + 2, num_greens=2, gamma=gamma)
    value_vec = [distinct[c] for c in range(len(distinct))] + [None, None, None]
    sizes = mult + [2, 1, 1]
    normal = NamedFamily(
        "value_sum_trichotomy",
        {
            "values": value_vec,
            "target": target,
            "class_sizes": sizes,
            "green_color": green,
        },
    )
    guard = NamedFamily(
        "partition_guard",
        {
            "values": value_vec,
            "target": target,
            "class_sizes": sizes,
            "green": green,
            "red": gadget.red,
            "blue": gadget.blue,
        },
    )
    return make_instance(
        colors=colors + [green, green, gadget.red, gadget.blue],
        types=[0] * len(values) + [1, 1, 2, 3],
        prefs={0: normal, 1: guard, 2: gadget.red_tiers(), 3: gadget.blue_tiers()},
        gamma=gamma,
        rho1=3,
        rho2=3,
        agent_ids=ids + ["g0", "g1", "R", "B"],
    )


# ---------------------------------------------------------------------------
# Multidimensional subset sum (partitioned variant).
# ---------------------------------------------------------------------------


def from_mss(sets: Sequence[Sequence[Sequence[int]]], target: Sequence[int]) -> Instance:
    """Marker agent per vector set, target-many normal agents per axis.

    A stable outcome exists iff one vector (or nothing) can be chosen from
    each set so the choices sum to the target.
    """
    omega = len(sets)
    if omega == 0:
        raise InvalidInput("need at least one vector set")
    k = len(target)
    if any(x < 0 for x in target):
        raise InvalidInput("target entries must be nonnegative")
    for group in sets:
        for vec in group:
            if len(vec) != k:
                raise InvalidInput(f"vector {vec} does not have {k} entries")
            if any(x < 0 for x in vec):
                raise InvalidInput("vector entries must be nonnegative")

    gamma = k + omega
    marker_color = [k + i for i in range(omega)]
    colors = []
    ids = []
    for j in range(k):
        colors += [j] * target[j]
        ids += [f"n{j}.{x}" for x in range(target[j])]
    colors += marker_color
    ids += [f"m{i}" for i in range(omega)]
    types = [0] * (len(colors) - omega) + [1 + i for i in range(omega)]

    prefs: dict[int, TierList | NamedFamily] = {
        0: NamedFamily("marker_trichotomy", {"marker_colors": marker_color})
    }
    for i, group in enumerate(sets):
        satisfying = set()
        for vec in group:
            counts = [0] * gamma
            for j in range(k):
                counts[j] = vec[j]
            counts[marker_color[i]] = 1
            satisfying.add(tuple(counts))
        alone = tuple(1 if c == marker_color[i] else 0 for c in range(gamma))
        tiers = [sorted(satisfying)]
        if alone not in satisfying:
            tiers.append([alone])
        prefs[1 + i] = TierList(tiers)

    n = len(colors)
    return make_instance(
        colors=colors,
        types=types,
        prefs=prefs,
        gamma=gamma,
        rho1=min(omega, n),
        rho2=min(omega, n),
        agent_ids=ids,
    )


# ---------------------------------------------------------------------------
# Independent set.
# ---------------------------------------------------------------------------


def from_independent_set(
    num_vertices: int, edges: Sequence[tuple[int, int]], k: int
) -> Instance:
    """Vertex agents with fresh colors plus a guarded trap gadget.

    A stable outcome exists iff the graph has an independent set of size
    k.  Vertex preferences are an oracle family consulting the edge list.
    The guarded coalition and the red-blue pair are both non-trivial, so
    outcomes are capped at two non-trivial coalitions.
    """
    if not 1 <= k <= num_vertices:
        raise InvalidInput("need 1 <= k <= number of vertices")
    edge_set = set()
    for u, v in edges:
        if u == v or not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise InvalidInput(f"bad edge ({u},{v})")
        edge_set.add((min(u, v), max(u, v)))

    gamma = num_vertices + 3
    guard, red, blue = num_vertices, num_vertices + 1, num_vertices + 2
    vertex_colors = list(range(num_vertices))
    vertex_order = NamedFamily(
        "indset_vertex",
        {
            "guard": guard,
            "vertex_colors": vertex_colors,
            "k": k,
            "edges": sorted([u, v] for u, v in edge_set),
        },
    )
    guard_order = NamedFamily(
        "indset_guard",
        {
            "guard": guard,
            "vertex_colors": vertex_colors,
            "k": k,
            "red": red,
            "blue": blue,
        },
    )
    gadget = TrapGadget(green=guard, red=red, blue=blue, num_greens=1, gamma=gamma)
    return make_instance(
        colors=vertex_colors + [guard, red, blue],
        types=[0] * num_vertices + [1, 2, 3],
        prefs={0: vertex_order, 1: guard_order, 2: gadget.red_tiers(), 3: gadget.blue_tiers()},
        gamma=gamma,
        sigma=k + 1,
        rho2=2,
        agent_ids=[f"x{v}" for v in range(num_vertices)] + ["G", "R", "B"],
    )


# ---------------------------------------------------------------------------
# Simple group activity selection.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SGaspInstance:
    participants: tuple[str, ...]
    activities: tuple[str, ...]
    approvals: Mapping[str, frozenset[tuple[str, int]]]
    group_size_param: int | None = None  # the s of normalized instances

    def __post_init__(self):
        if len(set(self.participants)) != len(self.participants):
            raise InvalidInput("participant names must be unique")
        if len(set(self.activities)) != len(self.activities):
            raise InvalidInput("activity names must be unique")
        unknown = set(self.approvals) - set(self.participants)
        if unknown:
            raise InvalidInput(f"approvals for unknown participants {sorted(unknown)}")
        s = self.group_size_param
        if s is not None and (type(s) is not int or s < 1):
            raise InvalidInput(f"group size parameter {s!r} is not an integer >= 1")
        for p in self.participants:
            for a, t in self.approvals.get(p, frozenset()):
                if a not in self.activities or t < 1:
                    raise InvalidInput(f"bad approval ({a},{t}) for {p}")


def gasp_normalize(sgasp: SGaspInstance) -> SGaspInstance:
    """Equivalent instance with odd approved sizes in one tight window.

    With s = |P|+1, each activity gains 2s|A|+1 dedicated participants
    approving every odd size in [2s|A|+1, 2s|A|+2s-1], and each original
    participant is replaced by a pair approving {(a, 2t+2s|A|+1)}.
    """
    if not sgasp.activities:
        raise InvalidInput("need at least one activity")
    s = len(sgasp.participants) + 1
    num_a = len(sgasp.activities)
    low = 2 * s * num_a + 1
    odd_sizes = tuple(range(low, low + 2 * s - 1, 2))

    participants: list[str] = []
    approvals: dict[str, frozenset[tuple[str, int]]] = {}
    for a in sgasp.activities:
        for i in range(2 * s * num_a + 1):
            name = f"{a}#ap{i}"
            participants.append(name)
            approvals[name] = frozenset((a, t) for t in odd_sizes)
    for p in sgasp.participants:
        pair_approval = frozenset(
            (a, 2 * t + low) for a, t in sgasp.approvals.get(p, frozenset())
        )
        for copy in range(2):
            name = f"{p}#pp{copy}"
            participants.append(name)
            approvals[name] = pair_approval
    return SGaspInstance(
        participants=tuple(participants),
        activities=sgasp.activities,
        approvals=approvals,
        group_size_param=s,
    )


def _z(i: int) -> int:
    # Marker class size for the (1-based) i-th activity.
    return 100 * i + 1


def small_split_ratios(num_activities: int, s: int) -> list[Fraction]:
    """The spoiler mid-tier: nudged copies of every marker-window ratio
    achievable with few reds."""
    low = 2 * s * num_activities + 1
    high = 2 * s * (num_activities + 1) - 1
    out = set()
    for i in range(1, num_activities + 1):
        for t in range(low, high + 1, 2):
            base = Fraction(_z(i), _z(i) + t)
            step_r = base.numerator
            step_b = base.denominator - base.numerator
            lam = 1
            while lam * step_r <= 75 * i + 1:
                r, b = lam * step_r, lam * step_b
                out.add(Fraction(r + 1, r + b + 1))
                lam += 1
    return sorted(out)


def _ratio_palette(ratio: Fraction) -> Palette:
    return (ratio.numerator, ratio.denominator - ratio.numerator)


def from_sgasp(sgasp: SGaspInstance, normalized: bool = True) -> Instance:
    """Two-color construction: blue participants, red markers and spoilers.

    Requires a normalized instance (gasp_normalize) so that approved group
    sizes sit in the window the marker orders expect.  Nash-stable
    outcomes exist iff the activity selection instance is solvable.
    """
    if not normalized:
        sgasp = gasp_normalize(sgasp)
    s = sgasp.group_size_param
    if s is None:
        raise InvalidInput("normalized sGASP input must carry its size parameter")
    acts = list(sgasp.activities)
    num_a = len(acts)
    act_index = {a: i + 1 for i, a in enumerate(acts)}  # 1-based
    low = 2 * s * num_a + 1
    high = 2 * s * (num_a + 1) - 1

    red, blue = 0, 1
    prefs: dict[int, TierList | NamedFamily] = {}
    # Run-length columns: one run per participant and per agent class, so
    # the build costs O(participants + activities), not one entry per agent.
    color_runs: list[tuple[int, int]] = []
    type_runs: list[tuple[int, int]] = []
    ids: list[str | tuple[str, int]] = []

    # Normal (blue) agents: one per participant, one type per approval set.
    type_of_approval: dict[frozenset, int] = {}
    for p in sgasp.participants:
        approval = sgasp.approvals.get(p, frozenset())
        t = type_of_approval.get(approval)
        if t is None:
            t = len(type_of_approval)
            type_of_approval[approval] = t
            tier = sorted(
                _ratio_palette(Fraction(_z(act_index[a]), _z(act_index[a]) + sz))
                for a, sz in approval
            )
            tiers = [tier] if tier else []
            prefs[t] = TierList(tiers + [[(0, 1)]])
        color_runs.append((blue, 1))
        type_runs.append((t, 1))
        ids.append(f"p:{p}")

    # Marker (red) agents: z_i per activity, tolerating any window size.
    marker_base = len(type_of_approval)
    for a in acts:
        i = act_index[a]
        t = marker_base + i - 1
        tier = sorted(
            {_ratio_palette(Fraction(_z(i), _z(i) + sz)) for sz in range(low, high + 1)}
        )
        prefs[t] = TierList([tier, [(1, 0)]])
        color_runs.append((red, _z(i)))
        type_runs.append((t, _z(i)))
        ids.append((f"m{i}.", _z(i)))

    # Spoiler (red) agents.
    spoiler_type = marker_base + num_a
    prefs[spoiler_type] = NamedFamily(
        "sgasp_spoiler",
        {
            "red": red,
            "blue": blue,
            "splits": [
                [f.numerator, f.denominator] for f in small_split_ratios(num_a, s)
            ],
        },
    )
    num_spoilers = (400 * num_a**2) * 200 * num_a**2 + 1
    color_runs.append((red, num_spoilers))
    type_runs.append((spoiler_type, num_spoilers))
    ids.append(("s", num_spoilers))

    return make_instance(
        colors=Runs(color_runs),
        types=Runs(type_runs),
        prefs=prefs,
        gamma=2,
        agent_ids=IdColumn(ids),
    )
