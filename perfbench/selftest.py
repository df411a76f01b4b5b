#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. A quick mode of every workload, untraced and traced, must run with no
   failed operation, pass its correctness checks and find every hook.
2. Two planted faults must each be counted as one failed operation in
   every pass (warm-up plus timed rounds):
   - a colors-types stub that flips the verdict of its first instance;
   - a colors-ntcoal stub that returns its first witness with one agent
     moved so that the outcome is no longer stable.
3. A `check_outcome` stub that answers its first check right once and
   wrongly ever after must be counted once in every timed check batch.

Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

WORKLOADS = ("cross-check", "n-sweep", "large-n", "reductions")
PASSES = 1 + run.MIN_ROUNDS  # warm-up plus timed rounds of a zero-second run


def quiet_run(workload: str, trace: bool) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run(workload, seed=1, seconds=0, trace=trace, quick=True)
    return result, out.getvalue()


def planted(hdg, export: str, fault):
    """Replace one solver export with a stub that breaks one instance."""
    real = getattr(hdg, export)
    broken: dict = {}

    def stub(instance, notion):
        outcome = real(instance, notion)
        # Instances are parsed afresh every pass, so they are known by content.
        key = (hdg.fileio.serialize_instance(instance), notion)
        if not broken:
            planted_outcome = fault(hdg, instance, notion, outcome)
            if planted_outcome is not False:
                broken[key] = planted_outcome
        return broken[key] if key in broken else outcome

    return real, stub


def flip_verdict(hdg, instance, notion, outcome):
    if outcome is None:
        return hdg.Outcome.from_sets([[a] for a in range(instance.n)])
    return None


def move_one_agent(hdg, instance, notion, outcome):
    """The witness with one agent moved, if some move makes it unstable
    while keeping it within the budgets."""
    if outcome is None:
        return False
    blocks = [sorted(b) for b in outcome.coalitions]
    for i, block in enumerate(blocks):
        for j in range(len(blocks)):
            if j == i:
                continue
            moved = [list(b) for b in blocks]
            agent = moved[i].pop(0)
            moved[j].append(agent)
            candidate = hdg.Outcome.from_sets([b for b in moved if b])
            if hdg.check_outcome(instance, candidate, notion).status == "unstable":
                return candidate
    return False


def stale_check(hdg):
    """`check_outcome` that answers its first check right only the first time."""
    real = hdg.check_outcome
    first: list = []

    def stub(instance, outcome, notion):
        result = real(instance, outcome, notion)
        key = (hdg.fileio.serialize_instance(instance), outcome, notion)
        if not first:
            first.append(key)
        elif key == first[0]:
            wrong = "unstable" if result.status == "stable" else "stable"
            return dataclasses.replace(result, status=wrong)
        return result

    return stub


def main() -> int:
    hdg = run.import_program()
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            result, text = quiet_run(workload, trace)
            mode = "traced" if trace else "untraced"
            missing = result["metrics"].get("trace.hooks_missing", {}).get("value", 0)
            ok = result["failed"] == 0 and result["correct"] and missing == 0
            print(f"{'PASS' if ok else 'FAIL'} quick {workload} ({mode}): "
                  f"{result['attempted']} attempted, {result['failed']} failed, "
                  f"correct={result['correct']}, missing hooks={missing}")
            if not ok:
                problems.append(f"quick {workload} {mode}")
                print(text[-2000:])
    for export, fault, solver in (
        ("solve_colors_types", flip_verdict, "colors-types"),
        ("solve_colors_ntcoal", move_one_agent, "colors-ntcoal"),
    ):
        real, stub = planted(hdg, export, fault)
        setattr(hdg, export, stub)
        try:
            result, text = quiet_run("cross-check", False)
        finally:
            setattr(hdg, export, real)
        failures = [line for line in text.splitlines() if line.startswith("  failed ")]
        ok = (
            result["failed"] == PASSES
            and len(failures) == PASSES
            and all(f"/{solver}/" in line for line in failures)
        )
        print(f"{'PASS' if ok else 'FAIL'} planted {fault.__name__} in {solver}: "
              f"{result['failed']} failed of {result['attempted']} (want {PASSES})")
        for line in failures[:1]:
            print(f"  {line.strip()}")
        if not ok:
            problems.append(f"planted {fault.__name__}")
    real = hdg.check_outcome
    hdg.check_outcome = stale_check(hdg)
    try:
        result, text = quiet_run("cross-check", False)
    finally:
        hdg.check_outcome = real
    batches = int(re.search(r"check batches: (\d+)", text).group(1))
    failures = [line for line in text.splitlines() if line.startswith("  failed ")]
    ok = result["failed"] == batches and all("/check0/" in line for line in failures)
    print(f"{'PASS' if ok else 'FAIL'} planted stale_check in check_outcome: "
          f"{result['failed']} failed of {result['attempted']} (want {batches})")
    for line in failures[:1]:
        print(f"  {line.strip()}")
    if not ok:
        problems.append("planted stale_check")
    print("selftest:", "FAIL " + ", ".join(problems) if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
