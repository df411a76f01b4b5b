"""Integral maximum flow on bipartite class-to-slot transportation networks.

Each row is a class of interchangeable units (agents of one (color, type)
pair, say) with a supply; each slot has a capacity; a row -> slot edge lets
any number of the row's units take that slot.  Source -> row edges carry
the supplies, row -> slot edges the row's supply and slot -> sink edges the
slot capacities.  Augmenting paths are found breadth-first with neighbors
visited in node-index order (each node's order is sorted once) and carry
their bottleneck, so results are reproducible and the cost depends on the
number of rows and slots, not on the supplies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InvalidInput


@dataclass(frozen=True)
class FlowNetwork:
    supplies: tuple[int, ...]
    slot_caps: tuple[int, ...]
    edges: frozenset[tuple[int, int]]  # (row, slot)

    def __post_init__(self):
        if any(c < 0 for c in self.supplies):
            raise InvalidInput("row supplies must be nonnegative")
        if any(c < 0 for c in self.slot_caps):
            raise InvalidInput("slot capacities must be nonnegative")
        for r, s in self.edges:
            if not (0 <= r < len(self.supplies) and 0 <= s < len(self.slot_caps)):
                raise InvalidInput(f"edge ({r},{s}) out of range")

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return 1 + len(self.supplies) + len(self.slot_caps)

    def row_node(self, r: int) -> int:
        return 1 + r

    def slot_node(self, s: int) -> int:
        return 1 + len(self.supplies) + s


def max_flow(net: FlowNetwork) -> tuple[int, dict[tuple[int, int], int]]:
    """Maximum flow value plus one integral flow {(row, slot): amount}.

    Only edges that carry flow appear in the map, in (row, slot) order.
    """
    source, sink = net.source, net.sink
    cap: list[dict[int, int]] = [dict() for _ in range(sink + 1)]

    def add(u: int, v: int, c: int):
        cap[u][v] = cap[u].get(v, 0) + c
        cap[v].setdefault(u, 0)

    for r, supply in enumerate(net.supplies):
        add(source, net.row_node(r), supply)
    for r, s in net.edges:
        add(net.row_node(r), net.slot_node(s), net.supplies[r])
    for s, c in enumerate(net.slot_caps):
        add(net.slot_node(s), sink, c)
    order = [sorted(arcs) for arcs in cap]

    value = 0
    while True:
        parent = [-1] * (sink + 1)
        parent[source] = source
        queue = deque([source])
        while queue and parent[sink] < 0:
            u = queue.popleft()
            arcs = cap[u]
            for v in order[u]:
                if parent[v] < 0 and arcs[v] > 0:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] < 0:
            break
        path = []
        v = sink
        while v != source:
            path.append((parent[v], v))
            v = parent[v]
        push = min(cap[u][v] for u, v in path)
        for u, v in path:
            cap[u][v] -= push
            cap[v][u] += push
        value += push

    flow: dict[tuple[int, int], int] = {}
    for r, s in sorted(net.edges):
        amount = cap[net.slot_node(s)][net.row_node(r)]
        if amount > 0:
            flow[(r, s)] = amount
    return value, flow
