"""Independent answers for the benchmark's correctness checks.

Nothing here imports `hdg`.  Games are read straight from the serialized
instance JSON, preferences are evaluated from the tier lists or the
`own_ratio_tiers` parameters as written in the file, and stability is
decided from the definitions:

* an agent admits an NS-deviation when it strictly prefers the palette of
  another coalition plus itself (or being alone) to its own palette;
* an IS-deviation additionally needs every member of the target coalition
  to weakly prefer the grown palette to the current one;
* budgets (sigma, rho1, rho2) filter outcomes, they do not change the game.

Agents of one (color, type) class are interchangeable, so outcomes are
handled as multisets of class-count vectors.  That keeps a check linear in
the number of distinct coalition compositions, which is small even at a
few thousand agents, and lets the existence oracle enumerate outcomes up
to agent interchange.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from fractions import Fraction

ALONE = -1
ORACLE_LIMIT = 2_000_000  # outcomes the existence oracle tries before giving up


class Unsupported(Exception):
    """The instance uses a preference family the reference does not read."""


def _reduce(counts) -> tuple[int, ...]:
    g = math.gcd(*counts)
    return tuple(c // g for c in counts)


def _tier_function(block: dict):
    if "tiers" in block:
        table = {}
        for i, tier in enumerate(block["tiers"]):
            for p in tier:
                table[tuple(p)] = i
        bottom = len(block["tiers"])
        return lambda p: table.get(p, bottom)
    if block.get("family") == "own_ratio_tiers":
        color = block["params"]["color"]
        table = {}
        for i, tier in enumerate(block["params"]["tiers"]):
            for num, den in tier:
                table[Fraction(num, den)] = i
        bottom = len(block["params"]["tiers"])
        return lambda p: table.get(Fraction(p[color], sum(p)), bottom)
    raise Unsupported(block.get("family"))


class Game:
    """A hedonic diversity game read from its serialized JSON text."""

    def __init__(self, text: str):
        data = json.loads(text)
        self.gamma = data["gamma"]
        self.sigma, self.rho1, self.rho2 = data["sigma"], data["rho1"], data["rho2"]
        agents = data["agents"]
        self.n = len(agents)
        self._tier_fns = {int(t): _tier_function(b) for t, b in data["types"].items()}
        self._memo: dict = {}
        pairs = [(a["color"], a["type"]) for a in agents]
        self.classes = sorted(set(pairs))
        index = {k: i for i, k in enumerate(self.classes)}
        self.class_of = [index[k] for k in pairs]
        self.class_counts = tuple(Counter(self.class_of)[i] for i in range(len(self.classes)))

    def tier(self, type_id: int, palette) -> int:
        key = (type_id, palette)
        val = self._memo.get(key)
        if val is None:
            val = self._memo[key] = self._tier_fns[type_id](palette)
        return val

    def colors_of(self, comp) -> list[int]:
        counts = [0] * self.gamma
        for k, x in enumerate(comp):
            if x:
                counts[self.classes[k][0]] += x
        return counts

    # -- outcomes ---------------------------------------------------------

    def compositions(self, blocks) -> list[tuple[int, ...]]:
        """Class-count vector of every block; rejects non-partitions."""
        seen = [False] * self.n
        out = []
        for block in blocks:
            if not block:
                raise ValueError("empty coalition")
            comp = [0] * len(self.classes)
            for a in block:
                if not 0 <= a < self.n or seen[a]:
                    raise ValueError(f"agent {a} unknown or placed twice")
                seen[a] = True
                comp[self.class_of[a]] += 1
            out.append(tuple(comp))
        if not all(seen):
            raise ValueError("outcome does not cover every agent")
        return out

    def status(self, blocks, notion: str) -> str:
        """'budget', 'unstable' or 'stable', budgets checked first."""
        comps = self.compositions(blocks)
        return self.status_of_compositions(comps, notion)

    def status_of_compositions(self, comps, notion: str) -> str:
        sizes = [sum(c) for c in comps]
        if len(comps) > self.rho1 or sum(1 for s in sizes if s >= 2) > self.rho2:
            return "budget"
        if max(sizes) > self.sigma:
            return "budget"
        return "unstable" if self._has_deviation(Counter(comps), notion) else "stable"

    def _has_deviation(self, multiset: Counter, notion: str) -> bool:
        info = []
        for comp, mult in multiset.items():
            counts = self.colors_of(comp)
            info.append((comp, mult, counts, _reduce(counts)))
        for comp, mult, counts, own in info:
            for k, x in enumerate(comp):
                if not x:
                    continue
                color, t = self.classes[k]
                mine = self.tier(t, own)
                alone = tuple(1 if c == color else 0 for c in range(self.gamma))
                if self.tier(t, alone) < mine:
                    return True
                for comp2, mult2, counts2, base in info:
                    if comp2 == comp and mult < 2:
                        continue
                    grown = list(counts2)
                    grown[color] += 1
                    joined = _reduce(grown)
                    if self.tier(t, joined) >= mine:
                        continue
                    if notion == "is" and not all(
                        self.tier(self.classes[j][1], joined)
                        <= self.tier(self.classes[j][1], base)
                        for j, y in enumerate(comp2)
                        if y
                    ):
                        continue
                    return True
        return False

    def is_deviation(self, blocks, agent: int, target: int, notion: str) -> bool:
        """Whether moving `agent` to block `target` (or ALONE) is a deviation."""
        color, t = self.classes[self.class_of[agent]]
        own_block = next(b for b in blocks if agent in b)
        own = _reduce(self._color_counts(own_block))
        if target == ALONE:
            joined = tuple(1 if c == color else 0 for c in range(self.gamma))
            return self.tier(t, joined) < self.tier(t, own)
        block = blocks[target]
        if agent in block:
            return False
        counts = self._color_counts(block)
        base = _reduce(counts)
        counts[color] += 1
        joined = _reduce(counts)
        if self.tier(t, joined) >= self.tier(t, own):
            return False
        if notion == "is":
            return all(
                self.tier(self.classes[self.class_of[m]][1], joined)
                <= self.tier(self.classes[self.class_of[m]][1], base)
                for m in block
            )
        return True

    def _color_counts(self, block) -> list[int]:
        counts = [0] * self.gamma
        for a in block:
            counts[self.classes[self.class_of[a]][0]] += 1
        return counts

    # -- existence --------------------------------------------------------

    def stable_exists(self, notion: str) -> bool:
        """Exhaustive search over outcomes up to agent interchange.

        Non-trivial coalitions are chosen as a multiset of class-count
        vectors of size 2..sigma (at most rho2 of them); every remaining
        agent sits alone, and the coalition count must stay within rho1.
        Raises RuntimeError when more than ORACLE_LIMIT outcomes would be tried.
        """
        vectors = sorted(_bounded_vectors(self.class_counts, 2, min(self.sigma, self.n)))
        tried = 0
        k = len(self.classes)

        def rec(start: int, chosen: list, residual: list) -> bool:
            nonlocal tried
            tried += 1
            if tried > ORACLE_LIMIT:
                raise RuntimeError(f"existence oracle gave up after {ORACLE_LIMIT} outcomes")
            singles = sum(residual)
            if len(chosen) + singles <= self.rho1:
                comps = list(chosen)
                for j in range(k):
                    unit = tuple(1 if i == j else 0 for i in range(k))
                    comps.extend([unit] * residual[j])
                if not self._has_deviation(Counter(comps), notion):
                    return True
            if len(chosen) == self.rho2:
                return False
            for i in range(start, len(vectors)):
                v = vectors[i]
                if any(x > r for x, r in zip(v, residual)):
                    continue
                chosen.append(v)
                found = rec(i, chosen, [r - x for r, x in zip(residual, v)])
                chosen.pop()
                if found:
                    return True
            return False

        return rec(0, [], list(self.class_counts))


def _bounded_vectors(limits, lo: int, hi: int):
    """Count vectors v <= limits with lo <= sum(v) <= hi."""
    if not limits:
        if lo <= 0:
            yield ()
        return
    for x in range(min(limits[0], hi) + 1):
        for rest in _bounded_vectors(limits[1:], lo - x, hi - x):
            yield (x,) + rest


# ---------------------------------------------------------------------------
# Source problems of the reduction gadgets: deciders and witness validation.
# ---------------------------------------------------------------------------


def x3c_has_cover(universe, family) -> bool:
    want = frozenset(universe)
    sets = [frozenset(x) for x in family]

    def rec(covered, start):
        if covered == want:
            return True
        return any(
            rec(covered | sets[i], i + 1)
            for i in range(start, len(sets))
            if not sets[i] & covered
        )

    return rec(frozenset(), 0)


def partition_splits(values) -> bool:
    total = sum(values)
    if total % 2:
        return False
    reachable = {0}
    for v in values:
        reachable |= {r + v for r in reachable}
    return total // 2 in reachable


def mss_has_choice(sets, target) -> bool:
    sums = {tuple(0 for _ in target)}
    for group in sets:
        sums |= {tuple(a + b for a, b in zip(s, vec)) for s in sums for vec in group}
    return tuple(target) in sums


def indset_exists(num_vertices, edges, k) -> bool:
    edge_set = {frozenset(e) for e in edges}
    return any(
        not any(frozenset(p) in edge_set for p in itertools.combinations(combo, 2))
        for combo in itertools.combinations(range(num_vertices), k)
    )


def _ids_by_block(ids, blocks):
    return [[ids[a] for a in block] for block in blocks]


def x3c_witness_error(ids, blocks, universe, family) -> str | None:
    triples = []
    for names in _ids_by_block(ids, blocks):
        if any(x.startswith("g") for x in names):
            triples.append(frozenset(int(x[1:]) for x in names if x.startswith("u")))
    allowed = {frozenset(x) for x in family}
    if any(t not in allowed for t in triples):
        return f"decoded triples {triples} are not all in the family"
    covered = [u for t in triples for u in t]
    if sorted(covered) != sorted(universe):
        return f"decoded triples {triples} are not an exact cover"
    return None


def partition_witness_error(ids, blocks, values) -> str | None:
    # A coalition of g greens whose value counts are all divisible by g has
    # the palette of g desirable halves, so it encodes g halves.
    halves = []
    for names in _ids_by_block(ids, blocks):
        greens = sum(1 for x in names if x.startswith("g"))
        if not greens:
            continue
        counts = Counter(int(x.split(".")[0][1:]) for x in names if x.startswith("v"))
        if any(k % greens for k in counts.values()):
            return f"coalition {sorted(names)} does not split evenly over its greens"
        half = sorted(v for v, k in counts.items() for _ in range(k // greens))
        halves += [half] * greens
    if len(halves) != 2 or sorted(halves[0] + halves[1]) != sorted(values):
        return f"decoded halves {halves} do not split the values"
    if sum(halves[0]) != sum(halves[1]):
        return f"decoded halves {halves} have different sums"
    return None


def mss_witness_error(ids, blocks, sets, target) -> str | None:
    total = [0] * len(target)
    for names in _ids_by_block(ids, blocks):
        markers = [x for x in names if x.startswith("m")]
        if len(markers) != 1:
            continue
        if len(names) == 1:
            continue
        vec = [0] * len(target)
        for x in names:
            if x.startswith("n"):
                vec[int(x.split(".")[0][1:])] += 1
        group = [tuple(v) for v in sets[int(markers[0][1:])]]
        if tuple(vec) not in group:
            return f"marker {markers[0]} holds {vec}, not a vector of its set"
        total = [a + b for a, b in zip(total, vec)]
    if tuple(total) != tuple(target):
        return f"decoded vectors sum to {total}, not {list(target)}"
    return None


def indset_witness_error(ids, blocks, edges, k) -> str | None:
    for names in _ids_by_block(ids, blocks):
        if "G" in names and len(names) > 1:
            chosen = sorted(int(x[1:]) for x in names if x.startswith("x"))
            if len(chosen) != k:
                return f"decoded set {chosen} does not have {k} vertices"
            bad = [e for e in edges if e[0] in chosen and e[1] in chosen]
            if bad:
                return f"decoded set {chosen} is not independent: {bad}"
            return None
    return "no guarded coalition in the witness"


# ---------------------------------------------------------------------------
# Simple group activity selection: structural audit of the construction.
# ---------------------------------------------------------------------------


def sgasp_expected(participants, activities, approvals, s):
    """Agent counts and tier contents the sGASP construction must have.

    Recomputed from the normalized source and the construction's stated
    parameters: z_i = 100 i + 1 red markers for the i-th activity, which
    accept every window size in [2 s |A| + 1, 2 s (|A| + 1) - 1];
    400 |A|^2 * 200 |A|^2 + 1 spoilers; one blue agent per participant
    whose top tier holds the ratio palettes of its approved (activity,
    size) pairs; spoiler mid-tier ratios are the window ratios of each
    marker scaled while at most 75 i + 1 reds are used, plus one red.
    """
    num_a = len(activities)
    low, high = 2 * s * num_a + 1, 2 * s * (num_a + 1) - 1
    z = {a: 100 * (i + 1) + 1 for i, a in enumerate(activities)}

    def palette(f: Fraction):
        return (f.numerator, f.denominator - f.numerator)

    blue_tiers = {
        p: {palette(Fraction(z[a], z[a] + t)) for a, t in approvals.get(p, ())}
        for p in participants
    }
    marker_tiers = {
        i + 1: {palette(Fraction(z[a], z[a] + t)) for t in range(low, high + 1)}
        for i, a in enumerate(activities)
    }
    splits = set()
    for i, a in enumerate(activities, start=1):
        for t in range(low, high + 1, 2):
            base = Fraction(z[a], z[a] + t)
            r, b = base.numerator, base.denominator - base.numerator
            lam = 1
            while lam * r <= 75 * i + 1:
                splits.add(Fraction(lam * r + 1, lam * (r + b) + 1))
                lam += 1
    return {
        "markers": {i + 1: z[a] for i, a in enumerate(activities)},
        "spoilers": 400 * num_a**2 * 200 * num_a**2 + 1,
        "blues": len(participants),
        "blue_tiers": blue_tiers,
        "marker_tiers": marker_tiers,
        "splits": splits,
    }
