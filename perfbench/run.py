#!/usr/bin/env python3
"""Time to a verified verdict for the hdg solvers, on one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cross-check --seed 1 --seconds 20 --trace 0

One invocation runs one workload (cross-check, n-sweep, large-n,
reductions) in this single-threaded process:

1. set-up: the workload's instances are built and loaded several times;
   `setup_s` is the median time of the program's part of one build;
2. an untimed warm-up pass, which is also the correctness pass: every
   solver run's verdict is compared with an independent answer and every
   witness with an independent checker (see reference.py);
3. timed rounds that visit every operation round-robin; an operation's
   time is its median over the rounds, and every result is compared with
   the verified warm-up result.  Before each round and each check batch,
   untimed, every instance is parsed afresh from its serialized text, so
   no state carries over from one pass to the next;
4. with `--trace 1`, one more round with hooks on the program's layers,
   which gives the per-layer metrics (trace.py) instead of the end-to-end
   ones.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SOLVER_EXPORTS = {
    "brute": "solve_brute",
    "brute-positions": "solve_brute_positions",
    "colors-size": "solve_colors_size",
    "colors-types": "solve_colors_types",
    "colors-ntcoal": "solve_colors_ntcoal",
    "own-nash": "solve_ownhdg_nash",
}
SETUP_REPEATS = {"reductions": 3}  # each build makes the 1.28M-agent sGASP game
DEFAULT_SETUP_REPEATS = 9
SETUP_MIN_S = 1.0  # small set-ups repeat beyond their count to fill this
MIN_ROUNDS = 3
# Check batches per round, by workload: short check passes are repeated.
# The count is fixed, not taken from a timing, because batch times fall
# over a round (the first batches after the solver runs are slower), so
# the median batch time depends on how many batches a round has.
CHECK_BATCHES = {"cross-check": 5, "n-sweep": 12, "reductions": 40}
OUT_DIR = ROOT / ".perfbench"

# Speed normalization.  The host shares its cores: the same pure-Python
# work takes from 0.7x to 1.3x its median time within seconds, and whole
# runs drift by 20-35%.  A fixed calibration kernel, independent of the
# program, is timed every CAL_EVERY_S between operations; every timed
# interval is rescaled by CAL_REF_S over the median kernel time within
# CAL_WINDOW_S of it (and at least CAL_MIN_SAMPLES samples on each side),
# giving seconds at a fixed reference speed.
CAL_LOOPS = 400
CAL_REF_S = 0.0005
CAL_EVERY_S = 0.025
CAL_WINDOW_S = 0.25
CAL_MIN_SAMPLES = 4  # on each side, where long operations leave the window sparse


def calibration_kernel() -> int:
    table: dict = {}
    for i in range(CAL_LOOPS):
        t = (i % 7 + 1, i % 11, i % 13)
        g = math.gcd(*t)
        key = tuple(x // g for x in t)
        table[key] = table.get(key, 0) + 1
    return len(table)


class Speedometer:
    """Samples of the calibration kernel's time, by when they were taken."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self):
        t0 = time.perf_counter()
        calibration_kernel()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.took.append(t1 - t0)

    def maybe_sample(self):
        if not self.at or time.perf_counter() - self.at[-1] >= CAL_EVERY_S:
            self.sample()

    def reference_seconds(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] rescaled to the reference speed."""
        mid = bisect.bisect_left(self.at, (t0 + t1) / 2)
        lo = min(bisect.bisect_left(self.at, t0 - CAL_WINDOW_S), max(mid - CAL_MIN_SAMPLES, 0))
        hi = max(bisect.bisect_right(self.at, t1 + CAL_WINDOW_S), mid + CAL_MIN_SAMPLES)
        return (t1 - t0) * CAL_REF_S / statistics.median(self.took[lo:hi])


def import_program():
    """Import `hdg` from this checkout's sources, never from elsewhere."""
    if not (SRC / "hdg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC / 'hdg'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import hdg

    if Path(hdg.__file__).resolve().parent != (SRC / "hdg").resolve():
        sys.exit(f"perfbench: imported hdg from {hdg.__file__}, not from {SRC}")
    return hdg


@dataclass
class SolveOp:
    item: object
    solver: str
    notion: str
    result: object = None
    error: str | None = None
    times: list = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"{self.item.key}/{self.solver}/{self.notion}"


@dataclass
class CheckOp:
    item: object
    blocks: list
    notion: str
    expected: str
    label: str
    result: object = None
    error: str | None = None


class Harness:
    def __init__(self, hdg, workloads, name: str, seed: int, quick: bool):
        self.hdg = hdg
        self.wl = workloads
        self.name = name
        self.seed = seed
        self.quick = quick
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checks: dict[str, tuple[int, int]] = {}  # correctness check -> (passed, total)
        self.speed = Speedometer()
        self.untraced = contextlib.nullcontext  # traced mode: hooks off while reloading

    # -- set-up -------------------------------------------------------------

    def setup(self, repeats: int, min_s: float = 0.0) -> list[list[tuple[float, float]]]:
        """Builds the workload `repeats` times, and more until `min_s` has
        passed; returns the intervals of program work in each build."""
        build = self.wl.BUILDERS[self.name]
        builds = []
        self.items = None
        start = time.perf_counter()
        while len(builds) < repeats or time.perf_counter() - start < min_s:
            self.items = None  # drop the last build before making the next
            gc.collect()
            self.speed.sample()
            clock = self.wl.Clock()
            self.items = build(self.seed, self.quick, clock)
            builds.append(clock.intervals)
            self.speed.sample()
        return builds

    def reload(self):
        """Every instance parsed afresh from its text, as `load` made it."""
        with self.untraced():
            for item in self.items:
                if item.text is not None:
                    self.speed.maybe_sample()  # speed samples close to the check batches
                    item.instance = self.wl.parsed(item.text)

    def prepare(self):
        """Independent answers and the operation list, outside any timing."""
        problems = self.wl.attach_references(self.items)
        self.record_check("sgasp-structural-audit", not problems, problems,
                          present=any(i.source[:1] == ("sgasp",) for i in self.items))
        self.solve_ops = [
            SolveOp(item, solver, notion) for item in self.items for solver, notion in item.plan
        ]

    def record_check(self, name: str, ok: bool, detail=(), present: bool = True):
        if not present:
            return
        passed, total = self.checks.get(name, (0, 0))
        self.checks[name] = (passed + bool(ok), total + 1)
        if not ok:
            for line in list(detail)[:5]:
                print(f"  {name}: {line}", file=sys.stderr)

    # -- operations -----------------------------------------------------------

    def call_solver(self, op: SolveOp):
        fn = getattr(self.hdg, SOLVER_EXPORTS[op.solver])
        if op.solver == "own-nash":
            return fn(op.item.instance)
        return fn(op.item.instance, op.notion)

    def fail(self, label: str, why: str):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {why}")

    def verify_solve(self, op: SolveOp, outcome) -> str | None:
        got, want = outcome is not None, op.item.expected[op.notion]
        if got != want:
            return f"verdict {'YES' if got else 'NO'}, independent answer {'YES' if want else 'NO'}"
        if outcome is None:
            return None
        blocks = [sorted(b) for b in outcome.coalitions]
        return self.wl.witness_error(op.item, blocks, op.notion)

    def warm_up(self):
        """The untimed correctness pass; also fixes each operation's result.

        Returns the expected wall time of one timed round."""
        t0 = time.perf_counter()
        for op in self.solve_ops:
            self.attempted += 1
            try:
                op.result = self.call_solver(op)
            except Exception as exc:  # an operation that raises is a failed one
                op.error = f"raised {type(exc).__name__}: {exc}"
            else:
                op.error = self.verify_solve(op, op.result)
            if op.error:
                self.fail(op.label, op.error)
        solve_s = time.perf_counter() - t0
        self.property_checks()
        self.check_ops = self.make_check_ops()
        t0, t1 = self.run_checks(verify=True)
        self.batches = CHECK_BATCHES.get(self.name, 1)
        r0 = time.perf_counter()
        self.reload()
        reload_s = time.perf_counter() - r0
        return solve_s + self.batches * (t1 - t0) + (1 + self.batches) * reload_s

    def property_checks(self):
        by_item: dict[str, dict] = {}
        for op in self.solve_ops:
            if op.error is None:
                by_item.setdefault(op.item.key, {}).setdefault(op.notion, set()).add(
                    op.result is not None
                )
        for key, verdicts in by_item.items():
            for notion, seen in verdicts.items():
                self.record_check("solver-agreement", len(seen) == 1, [f"{key}/{notion}: {seen}"])
            if {"ns", "is"} <= verdicts.keys():
                ns_yes = True in verdicts["ns"]
                is_yes = True in verdicts["is"]
                self.record_check("ns-yes-implies-is-yes", is_yes or not ns_yes, [key])

    def make_check_ops(self) -> list[CheckOp]:
        """Outcomes to check, with their independently known status."""
        Outcome = self.hdg.Outcome
        witnesses: dict[str, list] = {}
        for op in self.solve_ops:
            if op.result is not None and op.error is None:
                witnesses.setdefault(op.item.key, []).append(op.result)
        ops = []
        for item in self.items:
            if item.game is None:
                continue
            found = {}
            if item.check_witnesses:
                for outcome in witnesses.get(item.key, []):
                    found.setdefault(outcome)
                found.setdefault(Outcome.from_sets([[a] for a in range(item.instance.n)]))
            for blocks in item.constructed:
                found.setdefault(Outcome.from_sets(blocks))
            for outcome in list(found):
                moved = moved_agent(Outcome, outcome)
                if moved is not None:
                    found.setdefault(moved)
            for k, outcome in enumerate(found):
                blocks = [sorted(b) for b in outcome.coalitions]
                for notion in self.wl.NOTIONS:
                    ops.append(CheckOp(item, blocks, notion, item.game.status(blocks, notion),
                                       f"{item.key}/check{k}/{notion}"))
        return ops

    def run_checks(self, verify: bool) -> tuple[float, float]:
        """One batch of every check, on fresh instances and outcomes;
        returns the batch's interval.  The warm-up batch (`verify`) checks
        each result against the independent checker and keeps it; later
        batches compare each result with the kept one."""
        check, Outcome = self.hdg.check_outcome, self.hdg.Outcome
        if not verify:
            self.reload()
        calls = [(op.item.instance, Outcome.from_sets(op.blocks), op.notion)
                 for op in self.check_ops]
        self.speed.sample()
        t0 = time.perf_counter()
        results = []
        for args in calls:
            try:
                results.append(check(*args))
            except Exception as exc:  # an operation that raises is a failed one
                results.append(exc)
        interval = (t0, time.perf_counter())
        self.speed.sample()
        for op, res in zip(self.check_ops, results):
            self.attempted += 1
            if verify:
                op.result, op.error = res, self.verify_check(op, res)
            if op.error or res != op.result:
                self.fail(op.label, op.error or "result differs from the verified warm-up result")
        return interval

    def verify_check(self, op: CheckOp, res) -> str | None:
        if isinstance(res, Exception):
            return f"raised {type(res).__name__}: {res}"
        if res.status != op.expected:
            return f"status {res.status}, independent answer {op.expected}"
        if res.status == "unstable":
            dev = res.deviation
            if not op.item.game.is_deviation(op.blocks, dev.agent, dev.target, op.notion):
                return f"reported deviation {dev} is not a deviation"
        return None

    def timed_round(self) -> list[tuple[float, float]]:
        """Every solver run once, then the check batches, whose intervals it returns."""
        self.reload()
        gc.collect()
        for op in self.solve_ops:
            self.attempted += 1
            self.speed.maybe_sample()
            t0 = time.perf_counter()
            try:
                out = self.call_solver(op)
            except Exception as exc:  # an operation that raises is a failed one
                out = exc
            op.times.append((t0, time.perf_counter()))
            if out != op.result or op.error:
                why = op.error or "result differs from the verified warm-up result"
                self.fail(op.label, why)
        intervals = [self.run_checks(verify=False) for _ in range(self.batches)]
        self.speed.sample()
        return intervals


def moved_agent(Outcome, outcome):
    """The outcome with its first agent moved into the next coalition."""
    blocks = [sorted(b) for b in outcome.coalitions]
    if len(blocks) < 2:
        return None
    agent = blocks[0].pop(0)
    blocks[1].append(agent)
    return Outcome.from_sets([b for b in blocks if b])


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten runs beyond it."""
    p = 99
    while p > 0 and count - math.ceil(p * count / 100) < 10:
        p -= 1
    return p


def nearest_rank(values, p: int) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def end_to_end(h: Harness, setup_builds, check_intervals) -> dict:
    """The end-to-end metrics in reference-speed time; the raw ones are printed."""

    def figures(seconds) -> dict:
        medians = [statistics.median(seconds(*i) for i in op.times) for op in h.solve_ops]
        checks = statistics.median(seconds(*i) for i in check_intervals)
        return {
            "setup_s": (statistics.median(sum(seconds(*i) for i in build)
                                          for build in setup_builds), "s"),
            "solves_per_s": (len(medians) / sum(medians), "1/s"),
            "solve_p50_ms": (statistics.median(medians) * 1e3, "ms"),
            "solve_tail_ms": (nearest_rank(medians, tail_percentile(len(medians))) * 1e3, "ms"),
            "checks_per_s": (len(h.check_ops) / checks, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    raw = figures(lambda t0, t1: t1 - t0)
    print("raw wall-clock figures: " + ", ".join(
        f"{name} {value:.6g} {unit}" for name, (value, unit) in raw.items()))
    speed = CAL_REF_S / statistics.median(h.speed.took)
    runs = len(h.solve_ops)
    print(f"set-up builds: {len(setup_builds)}, "
          f"timed rounds: {len(h.solve_ops[0].times)}, check batches: {len(check_intervals)}, "
          f"tail percentile: p{tail_percentile(runs)} of {runs} solver runs; "
          f"machine speed {speed:.3f}x reference over {len(h.speed.took)} samples")
    return figures(h.speed.reference_seconds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["cross-check", "n-sweep", "large-n", "reductions"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    """One benchmark run; `quick` shrinks every workload for the self-test."""
    hdg = import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    h = Harness(hdg, workloads, workload, seed, quick)
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        setup_builds = h.setup(1)
        tracer.remove()
        h.untraced = tracer.paused
    else:
        setup_builds = h.setup(SETUP_REPEATS.get(workload, DEFAULT_SETUP_REPEATS), SETUP_MIN_S)
    h.prepare()
    warm_s = h.warm_up()
    print(f"workload {workload}, seed {seed}: {len(h.items)} instances, "
          f"{len(h.solve_ops)} solver runs and {len(h.check_ops)} checks per pass")
    if trace:
        h.batches = 1  # one check pass per round, so counts do not depend on timing
        h.timed_round()
        untraced = sum(h.speed.reference_seconds(*op.times[-1]) for op in h.solve_ops)
        tracer.install()
        h.timed_round()
        tracer.remove()
        traced = sum(h.speed.reference_seconds(*op.times[-1]) for op in h.solve_ops)
        print(f"tracing overhead: {traced - untraced:.3f} s on {untraced:.3f} s of solving "
              f"(reference-speed seconds)")
        metrics = tracer.metrics(traced - untraced)
        tracer.write_spans(OUT_DIR / f"spans-{workload}-{seed}.json")
    else:
        rounds = max(MIN_ROUNDS, round(seconds / max(warm_s, 1e-3)))
        check_intervals = [i for _ in range(rounds) for i in h.timed_round()]
        metrics = end_to_end(h, setup_builds, check_intervals)
    correct = all(passed == total for passed, total in h.checks.values())
    for name, (passed, total) in sorted(h.checks.items()):
        print(f"check {name}: {passed}/{total} passed")
    print(f"operations: {h.attempted} attempted, {h.failed} failed")
    for line in h.failures:
        print(f"  failed {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    return {
        "correct": correct,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
