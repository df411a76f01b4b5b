import random

from hdg.maxflow import FlowNetwork, max_flow

from oracles import brute_max_assignment


def net(supplies, caps, edges):
    return FlowNetwork(tuple(supplies), tuple(caps), frozenset(edges))


def unit(num_agents):
    return (1,) * num_agents


def test_single_agent_single_slot():
    value, flow = max_flow(net(unit(1), [1], [(0, 0)]))
    assert value == 1 and flow == {(0, 0): 1}


def test_capacity_bound():
    value, flow = max_flow(net(unit(2), [1], [(0, 0), (1, 0)]))
    assert value == 1 and sum(flow.values()) == 1


def test_three_agents_two_slots_missing_edge():
    edges = [(0, 0), (0, 1), (1, 0), (2, 0)]  # agent 1,2 cannot reach slot 1
    n = net(unit(3), [2, 2], edges)
    value, flow = max_flow(n)
    assert value == brute_max_assignment(3, [2, 2], set(edges)) == 3
    _check_flow(n, value, flow)


def _check_flow(n, value, flow):
    # Conservation and capacity constraints, re-derived from the output.
    assert sum(flow.values()) == value
    loads = [0] * len(n.slot_caps)
    sent = [0] * len(n.supplies)
    for (row, slot), amount in flow.items():
        assert (row, slot) in n.edges and amount > 0
        loads[slot] += amount
        sent[row] += amount
    assert all(l <= c for l, c in zip(loads, n.slot_caps))
    assert all(s <= c for s, c in zip(sent, n.supplies))


def test_random_networks_match_enumeration():
    rng = random.Random(41)
    for _ in range(200):
        agents = rng.randint(0, 6)
        slots = rng.randint(1, 3)
        caps = [rng.randint(0, 3) for _ in range(slots)]
        edges = {
            (a, s)
            for a in range(agents)
            for s in range(slots)
            if rng.random() < 0.6
        }
        n = net(unit(agents), caps, edges)
        value, flow = max_flow(n)
        assert value == brute_max_assignment(agents, caps, edges)
        _check_flow(n, value, flow)


def test_random_supplies_match_unit_expansion():
    # A row of supply k is k interchangeable agents with the row's edges.
    rng = random.Random(43)
    for _ in range(300):
        supplies = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        while sum(supplies) > 7:
            supplies[rng.randrange(len(supplies))] -= 1
        slots = rng.randint(1, 3)
        caps = [rng.randint(0, 4) for _ in range(slots)]
        edges = {
            (r, s)
            for r in range(len(supplies))
            for s in range(slots)
            if rng.random() < 0.6
        }
        agents = [r for r, k in enumerate(supplies) for _ in range(k)]
        expanded = {(a, s) for a, r in enumerate(agents) for s in range(slots) if (r, s) in edges}
        n = net(supplies, caps, edges)
        value, flow = max_flow(n)
        assert value == brute_max_assignment(len(agents), caps, expanded)
        _check_flow(n, value, flow)


def test_large_supplies_take_few_augmentations():
    # Augmenting by the bottleneck: a billion units through two paths.
    n = net([10**9, 10**9], [10**9, 5], [(0, 0), (1, 0), (1, 1)])
    value, flow = max_flow(n)
    assert value == 10**9 + 5
    _check_flow(n, value, flow)


def test_deterministic_repeat():
    edges = [(a, s) for a in range(4) for s in range(2)]
    n = net(unit(4), [2, 2], edges)
    assert max_flow(n) == max_flow(n)
