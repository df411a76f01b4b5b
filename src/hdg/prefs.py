"""Memoized oracle access shared by the parameterized solvers."""

from __future__ import annotations

from .core import Instance, Palette


class TierCache:
    """Caches tier lookups; all solver comparisons go through here.

    Tier values are per-type integers with 0 the most preferred tier, so
    strict/weak preference reduce to integer comparisons.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self._cache: dict[tuple[int, Palette], int] = {}

    def tier(self, type_id: int, palette: Palette) -> int:
        key = (type_id, palette)
        val = self._cache.get(key)
        if val is None:
            val = self.instance.prefs[type_id].tier_of(palette)
            self._cache[key] = val
        return val

    def prefers(self, type_id: int, p: Palette, q: Palette) -> bool:
        return self.tier(type_id, p) < self.tier(type_id, q)


def order_values(cache: TierCache, type_id: int, universe) -> dict[Palette, int]:
    """Dense order values over a palette universe; higher = better."""
    tiers = sorted({cache.tier(type_id, p) for p in universe}, reverse=True)
    dense = {t: i for i, t in enumerate(tiers)}
    return {p: dense[cache.tier(type_id, p)] for p in universe}
