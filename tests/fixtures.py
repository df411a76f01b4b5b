"""Canonical hand-built instances used by tests and docs."""

from __future__ import annotations

from hdg.core import Instance, TierList, make_instance


def example1(sigma=None, rho1=None, rho2=None) -> Instance:
    """Two colors, four agents a,b,c,d; the classic two-type instance.

    Agents a,c,d share one master list, agent b has its own; color classes
    are {a,b} and {c,d}.  {b,c,d}|{a} is Nash stable while {a,c,d}|{b} is
    individually but not Nash stable.
    """
    master = TierList([[(1, 2)], [(2, 1)], [(1, 0)], [(1, 1)], [(0, 1)]])
    b_list = TierList([[(1, 1)], [(1, 2)], [(1, 0)], [(2, 1)]])
    return make_instance(
        colors=[0, 0, 1, 1],
        types=[0, 1, 0, 0],
        prefs={0: master, 1: b_list},
        sigma=sigma,
        rho1=rho1,
        rho2=rho2,
        agent_ids=("a", "b", "c", "d"),
    )


A, B, C, D = 0, 1, 2, 3
