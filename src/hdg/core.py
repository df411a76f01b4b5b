"""Instance model for hedonic diversity games.

Agents carry a color and a preference type.  A type is a weak order over
coalition *palettes* -- the per-color composition of a coalition reduced to
lowest terms, so that two coalitions with proportional color counts look
identical to every agent.  Orders are read only through `tier_of(palette)`
(an oracle), which lets combinatorially large preference families be
encoded as named comparators instead of explicit tier lists.

Palettes are plain tuples of nonnegative integers with gcd 1; all
comparisons are exact integer arithmetic, never floating point.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, groupby, repeat, starmap
from typing import Callable, Iterable, Iterator, Mapping

from .errors import EmptyCoalition, InvalidInput

Palette = tuple[int, ...]


def reduce_counts(counts: Sequence[int]) -> Palette:
    """Reduce a color-count vector to its palette (gcd-1 form)."""
    if min(counts, default=0) < 0:
        raise InvalidInput(f"negative color count in {counts!r}")
    g = math.gcd(*counts)
    if g == 0:
        raise EmptyCoalition("cannot take the palette of an empty coalition")
    return tuple(counts) if g == 1 else tuple([c // g for c in counts])


def singleton_palette(color: int, gamma: int) -> Palette:
    return tuple(1 if c == color else 0 for c in range(gamma))


# --------------------------------------------------------------------------
# Preference orders.
#
# Every order exposes tier_of(palette) -> int with 0 the most preferred
# tier; palettes in the same tier are indifferent.  A weak order is exactly
# an integer-valued key function, so this representation is fully general.
# --------------------------------------------------------------------------


class TierList:
    """Explicit weak order: listed tiers, then one implicit bottom tier.

    All palettes absent from every tier are mutually indifferent and
    strictly below the last explicit tier.
    """

    __slots__ = ("tiers", "_index")

    def __init__(self, tiers: Iterable[Iterable[Palette]]):
        self.tiers: tuple[frozenset[Palette], ...] = tuple(
            frozenset(tuple(p) for p in tier) for tier in tiers
        )
        index: dict[Palette, int] = {}
        for i, tier in enumerate(self.tiers):
            for p in tier:
                if p in index:
                    raise InvalidInput(f"palette {p} appears in two tiers")
                if not p or reduce_counts(p) != p:
                    raise InvalidInput(f"tier palette {p} is not reduced")
                index[p] = i
        self._index = index

    def tier_of(self, palette: Palette) -> int:
        return self._index.get(palette, len(self.tiers))

    def __eq__(self, other):
        return isinstance(other, TierList) and self.tiers == other.tiers

    def __hash__(self):
        return hash(self.tiers)

    def __repr__(self):
        return f"TierList({[sorted(t) for t in self.tiers]})"


# Registered comparator families.  A family builds tier_of from JSON-able
# parameters, which keeps reduction-generated instances polynomial even
# when a tier would contain combinatorially many palettes.
_FAMILIES: dict[str, Callable[[dict], Callable[[Palette], int]]] = {}


def register_family(name: str):
    def deco(builder):
        _FAMILIES[name] = builder
        return builder

    return deco


class NamedFamily:
    """Weak order given by a registered comparator family plus parameters."""

    __slots__ = ("name", "params", "_tier_of", "_key")

    def __init__(self, name: str, params: dict):
        if name not in _FAMILIES:
            raise InvalidInput(f"unknown preference family {name!r}")
        self.name = name
        # JSON round-trip canonicalizes tuples vs lists so that parsed
        # instances compare equal to constructed ones.
        self.params = json.loads(json.dumps(params))
        self._tier_of = _FAMILIES[name](self.params)
        self._key = (name, json.dumps(self.params, sort_keys=True))

    def tier_of(self, palette: Palette) -> int:
        return self._tier_of(palette)

    def __eq__(self, other):
        return isinstance(other, NamedFamily) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"NamedFamily({self.name!r}, {self.params!r})"


PreferenceOrder = TierList | NamedFamily

# Family parameters checked against gamma when an Instance is built: those
# naming one color, those listing colors (and the color pairs of "edges"),
# and those with one entry per color.
_COLOR_PARAMS = ("color", "green_color", "green", "red", "blue", "guard")
_COLOR_LIST_PARAMS = ("marker_colors", "vertex_colors")
_PER_COLOR_PARAMS = ("values", "class_sizes")


def _check_family_params(type_id: int, order: NamedFamily, gamma: int) -> None:
    params = order.params
    named = [params[key] for key in _COLOR_PARAMS if params.get(key) is not None]
    for key in _COLOR_LIST_PARAMS:
        named.extend(params.get(key, ()))
    for edge in params.get("edges", ()):
        named.extend(edge)
    for c in named:
        if type(c) is not int or not 0 <= c < gamma:
            raise InvalidInput(
                f"type {type_id} ({order.name}) names color {c!r}, not one of 0..{gamma - 1}"
            )
    for key in _PER_COLOR_PARAMS:
        if key in params and len(params[key]) != gamma:
            raise InvalidInput(
                f"type {type_id} ({order.name}) has {len(params[key])} {key!r}, "
                f"not gamma={gamma}"
            )


def _ratio(num: int, den: int) -> Fraction:
    """A family's ratio parameter [num, den], which must lie in [0, 1]."""
    if type(num) is not int or type(den) is not int or not 0 <= num <= den or den < 1:
        raise InvalidInput(f"ratio [{num!r}, {den!r}] is not num/den with 0 <= num <= den")
    return Fraction(num, den)


@register_family("own_ratio_tiers")
def _own_ratio_tiers(params: dict) -> Callable[[Palette], int]:
    # Order depending only on the ratio of one color to the coalition size.
    color = params["color"]
    table: dict[Fraction, int] = {}
    tiers = params["tiers"]
    for i, tier in enumerate(tiers):
        for num, den in tier:
            frac = _ratio(num, den)
            if frac in table:
                raise InvalidInput(f"ratio {num}/{den} appears in two tiers")
            table[frac] = i
    bottom = len(tiers)

    def tier_of(p: Palette) -> int:
        return table.get(Fraction(p[color], sum(p)), bottom)

    return tier_of


@register_family("value_sum_trichotomy")
def _value_sum_trichotomy(params: dict) -> Callable[[Palette], int]:
    # Top tier: palettes of realizable coalitions whose members' color
    # values sum to the target (optionally with exactly one green agent).
    # Middle tier: alone.  Bottom: everything else.
    values: list[int | None] = list(params["values"])
    target: int = params["target"]
    class_sizes: list[int] = list(params["class_sizes"])
    green: int | None = params.get("green_color")

    def in_top(p: Palette) -> bool:
        for c, v in enumerate(values):
            if p[c] > 0 and v is None and c != green:
                return False
        if green is not None:
            # Exactly one green agent forces the scale factor to 1.
            if p[green] != 1:
                return False
            lambdas: Iterable[int] = (1,)
        else:
            limit = min(
                class_sizes[c] // p[c] for c in range(len(p)) if p[c] > 0
            )
            lambdas = range(1, limit + 1)
        for lam in lambdas:
            if any(lam * p[c] > class_sizes[c] for c in range(len(p))):
                continue
            total = sum(
                (values[c] or 0) * lam * p[c]
                for c in range(len(p))
                if values[c] is not None
            )
            if total == target:
                return True
        return False

    def tier_of(p: Palette) -> int:
        if in_top(p):
            return 0
        if sum(p) == 1 and values[p.index(1)] is not None:
            return 1
        return 2

    return tier_of


@register_family("partition_guard")
def _partition_guard(params: dict) -> Callable[[Palette], int]:
    # Trap-gadget green for the value-sum construction: desirable
    # coalitions (value sum hits the target with exactly one green),
    # then greens-with-red, greens-with-blue, all-green, bottom.
    values: list[int | None] = list(params["values"])
    target: int = params["target"]
    class_sizes: list[int] = list(params["class_sizes"])
    green = params["green"]
    red = params["red"]
    blue = params["blue"]
    greens_total = class_sizes[green]

    def desirable(p: Palette) -> bool:
        if p[green] != 1 or p[red] > 0 or p[blue] > 0:
            return False
        if any(p[c] > 0 and values[c] is None and c != green for c in range(len(p))):
            return False
        if any(p[c] > class_sizes[c] for c in range(len(p))):
            return False
        total = sum(
            (values[c] or 0) * p[c] for c in range(len(p)) if values[c] is not None
        )
        return total == target

    bottom = 2 * greens_total + 2

    def tier_of(p: Palette) -> int:
        if desirable(p):
            return 0
        support = {c for c, x in enumerate(p) if x > 0}
        # Chains G^m R > ... > G R and G^m B > ... > G B, then all-green.
        if support == {green, red} and p[red] == 1 and p[green] <= greens_total:
            return 1 + (greens_total - p[green])
        if support == {green, blue} and p[blue] == 1 and p[green] <= greens_total:
            return 1 + greens_total + (greens_total - p[green])
        if support == {green}:
            return 2 * greens_total + 1
        return bottom

    return tier_of


@register_family("marker_trichotomy")
def _marker_trichotomy(params: dict) -> Callable[[Palette], int]:
    # One marker color present > no marker color > several marker colors.
    markers = set(params["marker_colors"])

    def tier_of(p: Palette) -> int:
        present = sum(1 for c in markers if p[c] > 0)
        if present == 1:
            return 0
        if present == 0:
            return 1
        return 2

    return tier_of


@register_family("indset_vertex")
def _indset_vertex(params: dict) -> Callable[[Palette], int]:
    # Master list for vertex agents: guarded edge-free coalitions of k
    # vertex agents, then alone, then everything else.
    guard = params["guard"]
    vertices = set(params["vertex_colors"])
    k = params["k"]
    edges = {frozenset(e) for e in params["edges"]}

    def tier_of(p: Palette) -> int:
        support = [c for c, x in enumerate(p) if x > 0]
        if (
            p[guard] == 1
            and all(p[c] == 1 for c in support)
            and all(c in vertices for c in support if c != guard)
            and len(support) == k + 1
            and not any(
                frozenset((u, v)) in edges
                for i, u in enumerate(support)
                for v in support[i + 1 :]
            )
        ):
            return 0
        if sum(p) == 1 and p.index(1) in vertices:
            return 1
        return 2

    return tier_of


@register_family("indset_guard")
def _indset_guard(params: dict) -> Callable[[Palette], int]:
    # Trap-gadget green whose desirable coalitions are "guard plus any k
    # vertex agents" (no independence requirement for the guard itself).
    guard = params["guard"]
    vertices = set(params["vertex_colors"])
    k = params["k"]
    red = params["red"]
    blue = params["blue"]

    def tier_of(p: Palette) -> int:
        support = [c for c, x in enumerate(p) if x > 0]
        if (
            p[guard] == 1
            and all(p[c] == 1 for c in support)
            and all(c in vertices for c in support if c != guard)
            and len(support) == k + 1
        ):
            return 0
        if p[guard] == 1 and p[red] == 1 and sum(p) == 2:
            return 1
        if p[guard] == 1 and p[blue] == 1 and sum(p) == 2:
            return 2
        if sum(p) == 1 and p.index(1) == guard:
            return 3
        return 4

    return tier_of


@register_family("sgasp_spoiler")
def _sgasp_spoiler(params: dict) -> Callable[[Palette], int]:
    # Two-color order over red ratios: blue-up-to-one ratios, then the
    # small-split ratios, then all red, then everything else.
    red = params["red"]
    blue = params["blue"]
    splits = {_ratio(num, den) for num, den in params["splits"]}

    def tier_of(p: Palette) -> int:
        if p[red] == 1 and p[blue] >= 1:
            return 0
        if Fraction(p[red], p[red] + p[blue]) in splits:
            return 1
        if p[blue] == 0:
            return 2
        return 3

    return tier_of


# --------------------------------------------------------------------------
# Instances.
#
# An instance holds one column per agent attribute.  Generated instances
# can have millions of agents in a handful of (color, type) classes, so a
# column may also be stored compactly: `Runs` for colors and types,
# `IdColumn` for agent ids.  Both are immutable sequences; class data is
# read from their runs without expanding them.
# --------------------------------------------------------------------------


class _Column:
    """Length, indexing and slicing of a compact column, from the end
    position of each of its runs.

    A plain class registered as a `Sequence` (which supplies `index`,
    `count`, `in` and `reversed`): telling a compact column from a tuple is
    then a plain type test, not an ABC lookup, on every instance built.
    """

    __slots__ = ("_ends",)
    __contains__ = Sequence.__contains__
    __reversed__ = Sequence.__reversed__
    index = Sequence.index
    count = Sequence.count

    def _read(self, run: int, offset: int):
        """The entry at `offset` within run `run`."""
        raise NotImplementedError

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self)))))
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("column index out of range")
        run = bisect_right(self._ends, i)
        return self._read(run, i - (self._ends[run - 1] if run else 0))


Sequence.register(_Column)


class Runs(_Column):
    """Column given as (value, count) runs.

    Empty runs are dropped and adjacent runs of equal value merged, so
    `runs` is the column's unique run-length form.
    """

    __slots__ = ("runs",)

    def __init__(self, runs: Iterable[tuple[object, int]]):
        merged: list[list] = []
        for value, count in runs:
            if count < 0:
                raise InvalidInput(f"negative run length {count}")
            if not count:
                continue
            if merged and merged[-1][0] == value:
                merged[-1][1] += count
            else:
                merged.append([value, count])
        self.runs: tuple[tuple[object, int], ...] = tuple(map(tuple, merged))
        self._ends = list(accumulate(count for _, count in self.runs))

    def _read(self, run: int, offset: int):
        return self.runs[run][0]

    def __iter__(self):
        return chain.from_iterable(starmap(repeat, self.runs))


class IdColumn(_Column):
    """Agent-id column of explicit names and numbered blocks.

    Each part is a name, or a (prefix, count) block that stands for the
    names f"{prefix}0", ..., f"{prefix}{count - 1}"; block names are made
    only when read.
    """

    __slots__ = ("_chunks",)

    def __init__(self, parts: Iterable[str | tuple[str, int]]):
        chunks: list[tuple[str, int, tuple[str, ...] | None]] = []  # (prefix, count, names)
        for named, group in groupby(parts, key=lambda part: isinstance(part, str)):
            if named:
                names = tuple(group)
                chunks.append(("", len(names), names))
                continue
            for prefix, count in group:
                if count < 0:
                    raise InvalidInput(f"negative id block length {count}")
                if count:
                    chunks.append((prefix, count, None))
        self._chunks = tuple(chunks)
        self._ends = list(accumulate(count for _, count, _ in self._chunks))

    def _read(self, run: int, offset: int):
        prefix, _, names = self._chunks[run]
        return f"{prefix}{offset}" if names is None else names[offset]

    def __iter__(self):
        return chain.from_iterable(
            map(prefix.__add__, map(str, range(count))) if names is None else names
            for prefix, count, names in self._chunks
        )


def _distinct(column: Sequence) -> set:
    if isinstance(column, Runs):
        return {value for value, _ in column.runs}
    return set(column)


def class_blocks(
    colors: Sequence[int], types: Sequence[int]
) -> Iterator[tuple[tuple[int, int], int, int]]:
    """((color, type), start, count) for each maximal run of agents of one class."""
    if isinstance(colors, Runs) and isinstance(types, Runs):
        start = 0
        for end in sorted(set(colors._ends).union(types._ends)):
            yield (colors[start], types[start]), start, end - start
            start = end
        return
    start = 0
    for pair, group in groupby(zip(colors, types)):
        count = len(list(group))
        yield pair, start, count
        start += count


@dataclass(frozen=True, slots=True)
class Budgets:
    """Outcome restrictions: max coalition size, max number of coalitions,
    max number of non-trivial (size >= 2) coalitions."""

    sigma: int
    rho1: int
    rho2: int


@dataclass(frozen=True, eq=False)
class Instance:
    gamma: int
    colors: Sequence[int]
    types: Sequence[int]
    prefs: Mapping[int, PreferenceOrder]
    budgets: Budgets
    agent_ids: Sequence[str] = ()

    def __post_init__(self):
        n = len(self.colors)
        if n < 1:
            raise InvalidInput("instance needs at least one agent")
        if self.gamma < 1:
            raise InvalidInput("instance needs at least one color")
        if len(self.types) != n:
            raise InvalidInput("colors and types must have equal length")
        if not all(0 <= c < self.gamma for c in _distinct(self.colors)):
            raise InvalidInput("agent color out of range")
        missing = _distinct(self.types) - self.prefs.keys()
        if missing:
            t = next(t for t in self.types if t in missing)
            raise InvalidInput(f"agent type {t} has no preference order")
        for t, order in self.prefs.items():
            if isinstance(order, TierList):
                for tier in order.tiers:
                    for p in tier:
                        if len(p) != self.gamma:
                            raise InvalidInput(
                                f"type {t} lists palette {p} of length {len(p)}, "
                                f"not gamma={self.gamma}"
                            )
            else:
                _check_family_params(t, order, self.gamma)
        b = self.budgets
        if not (1 <= b.sigma <= n and 1 <= b.rho1 <= n and 0 <= b.rho2 <= b.rho1):
            raise InvalidInput(f"budgets {b} out of range for n={n}")
        if not self.agent_ids:
            object.__setattr__(self, "agent_ids", tuple(str(i) for i in range(n)))
        elif len(self.agent_ids) != n:
            raise InvalidInput("agent_ids must have one entry per agent")

    @property
    def n(self) -> int:
        return len(self.colors)

    @cached_property
    def agents_of_ct(self) -> dict[tuple[int, int], Sequence[int]]:
        """Agents of each (color, type) pair, in id order, in order of first
        appearance: a range when the class is one block, else a tuple."""
        blocks: dict[tuple[int, int], list[range]] = {}
        for pair, start, count in class_blocks(self.colors, self.types):
            blocks.setdefault(pair, []).append(range(start, start + count))
        return {
            pair: runs[0] if len(runs) == 1 else tuple(chain.from_iterable(runs))
            for pair, runs in blocks.items()
        }

    @cached_property
    def n_ct(self) -> dict[tuple[int, int], int]:
        """Number of agents per (color, type) pair; only nonzero pairs."""
        return {pair: len(agents) for pair, agents in self.agents_of_ct.items()}

    @cached_property
    def class_sizes(self) -> tuple[int, ...]:
        """Number of agents per color."""
        sizes = [0] * self.gamma
        for (c, _), _, count in class_blocks(self.colors, self.types):
            sizes[c] += count
        return tuple(sizes)

    @cached_property
    def present_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.n_ct))


def _column(values: Sequence) -> Sequence:
    """Compact columns as they are; any other sequence as a tuple."""
    return values if isinstance(values, _Column) else tuple(values)


def make_instance(
    colors: Sequence[int],
    prefs: Mapping[int, PreferenceOrder],
    types: Sequence[int] | None = None,
    gamma: int | None = None,
    sigma: int | None = None,
    rho1: int | None = None,
    rho2: int | None = None,
    agent_ids: Sequence[str] = (),
) -> Instance:
    """Convenience constructor with unrestricted budgets by default."""
    n = len(colors)
    if types is None:
        types = colors
    if gamma is None:
        gamma = max(colors) + 1 if colors else 1
    rho1_val = n if rho1 is None else rho1
    budgets = Budgets(
        sigma=n if sigma is None else sigma,
        rho1=rho1_val,
        rho2=min(n, rho1_val) if rho2 is None else rho2,
    )
    return Instance(
        gamma=gamma,
        colors=_column(colors),
        types=_column(types),
        prefs=dict(prefs),
        budgets=budgets,
        agent_ids=_column(agent_ids),
    )


def palette_of(coalition: Iterable[int], instance: Instance) -> Palette:
    """Palette of a concrete set of agents."""
    counts = [0] * instance.gamma
    empty = True
    for agent in coalition:
        if not 0 <= agent < instance.n:
            raise InvalidInput(f"unknown agent {agent}")
        counts[instance.colors[agent]] += 1
        empty = False
    if empty:
        raise EmptyCoalition("cannot take the palette of an empty coalition")
    return reduce_counts(counts)


# --------------------------------------------------------------------------
# Palette universes.
# --------------------------------------------------------------------------


def compositions_upto(
    limits: Sequence[int], max_size: int, min_size: int = 1
) -> Iterator[tuple[int, ...]]:
    """All count vectors with counts[c] <= limits[c] and min <= sum <= max."""
    gamma = len(limits)

    def rec(c: int, counts: list[int], total: int) -> Iterator[tuple[int, ...]]:
        if c == gamma:
            if total >= min_size:
                yield tuple(counts)
            return
        for x in range(0, min(limits[c], max_size - total) + 1):
            counts.append(x)
            yield from rec(c + 1, counts, total + x)
            counts.pop()

    yield from rec(0, [], 0)


def realizable_palettes(instance: Instance, max_size: int) -> list[Palette]:
    """Distinct palettes of coalitions the instance can actually form."""
    vectors = compositions_upto(instance.class_sizes, min(max_size, instance.n))
    return sorted({reduce_counts(counts) for counts in vectors})
