"""Cross-solver checking harness.

Generates seeded random instances, runs every solver of the `SOLVERS`
table on each stability notion it supports, and demands unanimous YES/NO
answers with verified witnesses.  Any disagreement is reported (and the
offending instance serialized) for triage; the harness is both a CLI
command and the workhorse of the acceptance suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

from .brute import solve_brute
from .colors_ntcoal import solve_colors_ntcoal
from .colors_size import solve_colors_size
from .colors_types import solve_colors_types
from .core import Instance
from .errors import OwnColorViolation, SearchSpaceTooLarge
from .fileio import serialize_instance
from .ownhdg import solve_ownhdg_nash
from .randgen import GenCaps, random_instance
from .stability import IS, NS, Outcome, check_outcome


class Solver(NamedTuple):
    solve: Callable[[Instance, str], Outcome | None]
    notions: tuple[str, ...] = (NS, IS)


# Every solver, by its `hdg solve --algo` name.  The CLI and the bench
# both read this table and nothing else.
SOLVERS = {
    "brute": Solver(solve_brute),
    "colors-size": Solver(solve_colors_size),
    "colors-types": Solver(solve_colors_types),
    "colors-ntcoal": Solver(solve_colors_ntcoal),
    "own-nash": Solver(lambda instance, notion: solve_ownhdg_nash(instance), (NS,)),
}


@dataclass
class BenchReport:
    count: int = 0
    runs: int = 0
    yes: int = 0
    no: int = 0
    disagreements: list[str] = field(default_factory=list)
    witness_failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements and not self.witness_failures


def check_instance(instance, report: BenchReport, label: str, out_dir=None) -> None:
    """Run every table solver on one instance; record mismatches."""
    for notion in (NS, IS):
        answers = {}
        for name, solver in SOLVERS.items():
            if notion not in solver.notions:
                continue
            try:
                outcome = solver.solve(instance, notion)
            except (SearchSpaceTooLarge, OwnColorViolation):
                continue  # declined: a guard tripped, or not an own-ratio game
            answers[name] = outcome is not None
            report.runs += 1
            if outcome is not None and not check_outcome(instance, outcome, notion).stable:
                report.witness_failures.append(f"{label}/{notion}/{name}")
        if not answers:
            continue
        if len(set(answers.values())) > 1:
            report.disagreements.append(f"{label}/{notion}: {answers}")
            if out_dir is not None:
                path = Path(out_dir) / f"disagreement-{label.replace('/', '_')}.json"
                path.write_text(serialize_instance(instance))
        if next(iter(answers.values())):
            report.yes += 1
        else:
            report.no += 1


def run_bench(
    seed: int,
    count: int,
    caps: GenCaps = GenCaps(),
    out_dir=None,
    own_color_share: float = 0.3,
) -> BenchReport:
    rng = random.Random(seed)
    report = BenchReport(count=count)
    for i in range(count):
        own = rng.random() < own_color_share
        instance = random_instance(rng, caps, own_color=own)
        check_instance(instance, report, label=f"{seed}-{i}", out_dir=out_dir)
    return report
