"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are exact (zero mismatches) throughout; runtime bounds are the
documented budgets."""

import itertools
import random
import time
from fractions import Fraction

from hdg.bench import BenchReport, check_instance
from hdg.brute import enumerate_stable, solve_brute
from hdg.core import palette_of
from hdg.ilp import ILPSystem, feasible
from hdg.maxflow import FlowNetwork, max_flow
from hdg.randgen import GenCaps, random_instance
from hdg.reductions import (
    SGaspInstance,
    from_independent_set,
    from_mss,
    from_partition,
    from_sgasp,
    from_x3c,
    gasp_normalize,
    small_split_ratios,
)
from hdg.stability import (
    IS,
    NS,
    Outcome,
    check_outcome,
    find_is_deviation,
    find_ns_deviation,
)

from fixtures import A, B, C, D, example1
from oracles import all_partitions, box_exhaustive_feasible, brute_max_assignment
from references import (
    evaluate,
    independent_set_solvable,
    mss_solvable,
    partition_solvable,
    x3c_solvable,
)


CAPS = GenCaps(n=7, gamma=3, tau=3, sigma=5, rho1=5, rho2=2)
SUITE_SEED = 20240
SUITE_COUNT = 500


def _suite_instances():
    rng = random.Random(SUITE_SEED)
    for i in range(SUITE_COUNT):
        own = rng.random() < 0.3
        yield i, random_instance(rng, CAPS, own_color=own)


def test_criterion_1_example1_conformance():
    start = time.time()
    inst = example1()
    split = Outcome.from_sets([{A, C, D}, {B}])
    assert find_is_deviation(inst, split) is None
    dev = find_ns_deviation(inst, split)
    assert dev is not None and dev.agent == B and dev.target == 0
    assert check_outcome(inst, split, IS).stable
    assert check_outcome(inst, split, NS).status == "unstable"

    nash = Outcome.from_sets([{B, C, D}, {A}])
    assert find_ns_deviation(inst, nash) is None
    assert check_outcome(inst, nash, NS).stable
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"criterion 1 (example-1 conformance): PASS in {elapsed:.3f}s")


def test_criterion_2_cross_solver_unanimity():
    start = time.time()
    report = BenchReport(count=SUITE_COUNT)
    for i, inst in _suite_instances():
        check_instance(inst, report, label=f"acc-{i}")
    elapsed = time.time() - start
    assert report.disagreements == []
    assert report.witness_failures == []
    assert elapsed < 600
    print(
        f"criterion 2 (cross-solver unanimity): PASS, {report.count} instances, "
        f"{report.runs} solver runs, yes={report.yes} no={report.no}, in {elapsed:.1f}s"
    )


def _criterion3_cases():
    # Exhaustive X3C with |U| = 3: the only 3-subset is the whole universe.
    for family in ([], [[1, 2, 3]]):
        yield ("x3c", ([1, 2, 3], family), x3c_solvable([1, 2, 3], family), from_x3c(
            [1, 2, 3], family
        ), None)
    # All partition multisets over {1,2,3} of size <= 4 with even sum.
    for size in range(1, 5):
        for values in itertools.combinations_with_replacement([1, 2, 3], size):
            if sum(values) % 2 != 0:
                continue
            for notion in (NS, IS):
                yield (
                    "partition",
                    (values, notion),
                    partition_solvable(values),
                    from_partition(values, notion),
                    notion,
                )
    # All graphs on up to 4 vertices, every k up to min(3, |V|).
    for nv in range(1, 5):
        possible = list(itertools.combinations(range(nv), 2))
        for mask in range(1 << len(possible)):
            edges = [possible[i] for i in range(len(possible)) if mask >> i & 1]
            for k in range(1, min(3, nv) + 1):
                yield (
                    "indset",
                    (nv, tuple(edges), k),
                    independent_set_solvable(nv, edges, k),
                    from_independent_set(nv, edges, k),
                    None,
                )
    # Seeded MSS inputs within the caps.
    rng = random.Random(99)
    vectors = {
        1: [(x,) for x in range(3)],
        2: [(x, y) for x in range(3) for y in range(3)],
    }
    for _ in range(60):
        k = rng.choice([1, 2])
        omega = rng.choice([1, 2])
        sets = [
            rng.sample(vectors[k], k=rng.randint(1, 3)) for _ in range(omega)
        ]
        target = tuple(rng.randint(0, 2) for _ in range(k))
        yield (
            "mss",
            (tuple(map(tuple, sets)), target),
            mss_solvable(sets, target),
            from_mss(sets, target),
            None,
        )


def test_criterion_3_reduction_equivalence():
    start = time.time()
    mismatches = []
    checked = 0
    for kind, key, want, inst, notion in _criterion3_cases():
        notions = [notion] if notion else [NS, IS]
        for nt in notions:
            got = solve_brute(inst, nt) is not None
            checked += 1
            if got != want:
                mismatches.append((kind, key, nt, want, got))
    elapsed = time.time() - start
    assert mismatches == []
    assert elapsed < 300
    print(
        f"criterion 3 (reduction equivalence): PASS, {checked} checks in {elapsed:.1f}s"
    )


def test_criterion_4_trap_gadget_claim():
    start = time.time()
    violations = []
    scanned = 0
    for kind, key, want, inst, notion in _criterion3_cases():
        greens = [
            a
            for a in range(inst.n)
            if inst.agent_ids[a].startswith("g") or inst.agent_ids[a] == "G"
        ]
        if not greens:
            continue  # no trap gadget in this construction
        notions = [notion] if notion else [NS, IS]
        for nt in notions:
            for out in enumerate_stable(inst, nt):
                scanned += 1
                owner = out.member_of(inst.n)
                for g in greens:
                    pal = palette_of(out.coalitions[owner[g]], inst)
                    if inst.prefs[inst.types[g]].tier_of(pal) != 0:
                        violations.append((kind, key, nt))
    elapsed = time.time() - start
    assert violations == []
    print(
        f"criterion 4 (trap-gadget claim): PASS, {scanned} stable outcomes "
        f"scanned in {elapsed:.1f}s"
    )


def test_criterion_5_sgasp_structural_audit():
    start = time.time()
    rng = random.Random(7)
    audited = 0
    for num_a in (1, 2, 3):
        for _ in range(3):
            parts = tuple(f"p{i}" for i in range(rng.randint(1, 2)))
            acts = tuple(f"a{j}" for j in range(num_a))
            approvals = {
                p: frozenset(
                    (rng.choice(acts), rng.randint(1, len(parts)))
                    for _ in range(rng.randint(0, 2))
                )
                for p in parts
            }
            src = SGaspInstance(parts, acts, approvals)
            norm = gasp_normalize(src)
            inst = from_sgasp(norm)
            s = norm.group_size_param
            low, high = 2 * s * num_a + 1, 2 * s * (num_a + 1) - 1

            # Agent counts: z_i = 100 i + 1 markers, the exact spoiler count.
            # Every id is read once, into a list; ids are unique, so the
            # few lookups below can use list.index.
            ids = list(inst.agent_ids)
            for i in range(1, num_a + 1):
                prefix = f"m{i}."
                markers = [x for x in ids if x.startswith(prefix)]
                assert len(markers) == 100 * i + 1
            spoilers = [x for x in ids if x.startswith("s")]
            assert len(spoilers) == (400 * num_a**2) * 200 * num_a**2 + 1
            blues = [x for x in ids if x.startswith("p:")]
            assert len(blues) == len(norm.participants)

            # Tier sets recomputed independently from the approvals.
            for p in norm.participants:
                order = inst.prefs[inst.types[ids.index(f"p:{p}")]]
                expect = set()
                for a, t in norm.approvals[p]:
                    z = 100 * (acts.index(a) + 1) + 1
                    f = Fraction(z, z + t)
                    expect.add((f.numerator, f.denominator - f.numerator))
                assert set(order.tiers[0]) == expect or (
                    not expect and order.tiers[0] == frozenset({(0, 1)})
                )
            for i in range(1, num_a + 1):
                order = inst.prefs[inst.types[ids.index(f"m{i}.0")]]
                z = 100 * i + 1
                expect = set()
                for t in range(low, high + 1):
                    f = Fraction(z, z + t)
                    expect.add((f.numerator, f.denominator - f.numerator))
                assert set(order.tiers[0]) == expect
            spoiler_order = inst.prefs[inst.types[ids.index("s0")]]
            splits = {
                Fraction(n_, d_) for n_, d_ in spoiler_order.params["splits"]
            }
            assert splits == set(small_split_ratios(num_a, s))
            assert spoiler_order.tier_of((1, 5)) == 0
            assert spoiler_order.tier_of((1, 0)) == 2
            audited += 1
    elapsed = time.time() - start
    print(
        f"criterion 5 (sGASP structural audit): PASS, {audited} instances "
        f"audited in {elapsed:.1f}s  (end-to-end solving out of scope: "
        f">= 80001 agents at |A|=1)"
    )


def test_criterion_6_ns_implies_is():
    start = time.time()
    violations = 0
    scanned = 0
    for i, inst in _suite_instances():
        for blocks in all_partitions(range(inst.n)):
            out = Outcome.from_sets(blocks)
            if find_ns_deviation(inst, out) is None:
                scanned += 1
                if find_is_deviation(inst, out) is not None:
                    violations += 1
    elapsed = time.time() - start
    assert violations == 0
    print(
        f"criterion 6 (NS implies IS): PASS, {scanned} Nash-stable partitions "
        f"rechecked in {elapsed:.1f}s"
    )


def test_criterion_7_subroutine_oracles():
    start = time.time()
    rng = random.Random(1234)
    for _ in range(1000):
        num_vars = rng.randint(0, 4)
        eqs = tuple(
            (tuple(rng.randint(0, 4) for _ in range(num_vars)), rng.randint(0, 15))
            for _ in range(rng.randint(1, 3))
        )
        les = tuple(
            (tuple(rng.randint(0, 3) for _ in range(num_vars)), rng.randint(0, 12))
            for _ in range(rng.randint(0, 2))
        )
        system = ILPSystem(num_vars, eqs, les)
        got = feasible(system)
        want = box_exhaustive_feasible(system)
        assert (got is None) == (want is None)
        if got is not None:
            assert evaluate(system, got)
    ilp_elapsed = time.time() - start
    assert ilp_elapsed < 60

    start = time.time()
    for _ in range(1000):
        agents = rng.randint(0, 6)
        slots = rng.randint(1, 3)
        caps = tuple(rng.randint(0, 3) for _ in range(slots))
        edges = frozenset(
            (a, s)
            for a in range(agents)
            for s in range(slots)
            if rng.random() < 0.6
        )
        net = FlowNetwork((1,) * agents, caps, edges)
        value, flow = max_flow(net)
        assert value == brute_max_assignment(agents, caps, edges)
        assert sum(flow.values()) == value
        loads = [0] * slots
        for (a, s), amount in flow.items():
            assert (a, s) in edges and amount == 1
            loads[s] += amount
        assert all(l <= c for l, c in zip(loads, caps))
    flow_elapsed = time.time() - start
    assert flow_elapsed < 60
    print(
        f"criterion 7 (subroutine oracles): PASS, 1000 ILP systems in "
        f"{ilp_elapsed:.1f}s, 1000 flow networks in {flow_elapsed:.1f}s"
    )
