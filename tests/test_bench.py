import random

import pytest

from hdg.bench import BenchReport, run_bench
from hdg.errors import OwnColorViolation, SearchSpaceTooLarge, SolverDivergence
from hdg.maxflow import FlowNetwork, max_flow
from hdg.randgen import GenCaps


def test_empty_run_is_ok():
    report = run_bench(seed=0, count=0)
    assert report.ok and report.runs == 0


def test_seeded_runs_are_identical():
    a = run_bench(seed=42, count=20)
    b = run_bench(seed=42, count=20)
    assert (a.runs, a.yes, a.no) == (b.runs, b.yes, b.no)
    assert a.ok and b.ok


def test_offending_instance_serialized(tmp_path, monkeypatch):
    # A deliberately wrong solver that answers NO everywhere disagrees
    # with the real ones on example1 (YES under both notions).
    from hdg import bench
    from hdg.fileio import parse_instance, serialize_instance
    from fixtures import example1

    monkeypatch.setitem(bench.SOLVERS, "always-no", bench.Solver(lambda instance, notion: None))
    instance = example1()
    report = BenchReport()
    bench.check_instance(instance, report, label="x/1", out_dir=str(tmp_path))
    assert len(report.disagreements) == 2 and not report.witness_failures
    written = list(tmp_path.iterdir())
    assert [p.name for p in written] == ["disagreement-x_1.json"]
    back = parse_instance(written[0].read_text())
    assert serialize_instance(back) == serialize_instance(instance)


@pytest.mark.parametrize("error", [SearchSpaceTooLarge, OwnColorViolation])
def test_solver_tripping_a_guard_is_declined(monkeypatch, error):
    from hdg import bench
    from fixtures import example1

    def trips(instance, notion):
        raise error("guard tripped")

    full = BenchReport()
    bench.check_instance(example1(), full, label="x/1")
    monkeypatch.setitem(bench.SOLVERS, "colors-types", bench.Solver(trips))
    report = BenchReport()
    bench.check_instance(example1(), report, label="x/1")
    assert report.ok and report.runs == full.runs - 2
    assert (report.yes, report.no) == (full.yes, full.no)


def test_solver_divergence_is_not_declined(monkeypatch):
    from hdg import bench
    from fixtures import example1

    def diverges(instance, notion):
        raise SolverDivergence("witness failed")

    monkeypatch.setitem(bench.SOLVERS, "colors-types", bench.Solver(diverges))
    with pytest.raises(SolverDivergence):
        bench.check_instance(example1(), BenchReport(), label="x/1")


def test_capacity_reduction_never_increases_flow():
    rng = random.Random(8)
    for _ in range(60):
        agents = rng.randint(1, 6)
        slots = rng.randint(1, 3)
        caps = [rng.randint(1, 3) for _ in range(slots)]
        edges = frozenset(
            (a, s) for a in range(agents) for s in range(slots) if rng.random() < 0.6
        )
        before, _ = max_flow(FlowNetwork((1,) * agents, tuple(caps), edges))
        shrink = rng.randrange(slots)
        caps[shrink] -= 1
        after, _ = max_flow(FlowNetwork((1,) * agents, tuple(caps), edges))
        assert after <= before
