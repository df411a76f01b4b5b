"""Command-line front end: solve, check, generate, cross-check."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import reductions
from .bench import SOLVERS, run_bench
from .core import Budgets, Instance
from .errors import (
    HdgError,
    InvalidInput,
    OwnColorViolation,
    SearchSpaceTooLarge,
    SolverDivergence,
    search_cap,
)
from .fileio import (
    load_instance,
    load_outcome,
    save_instance,
    save_outcome,
    serialize_outcome,
)
from .randgen import GenCaps
from .stability import IS, NS, check_outcome, deviation_tiers

NOTION_NAMES = {NS: "Nash stability", IS: "individual stability"}


def pick_auto(instance: Instance) -> str:
    """Dispatch by the cheapest applicable parameterization."""
    b = instance.budgets
    if instance.n <= 8:
        return "brute"
    if min(b.rho2, b.rho1) <= 2:
        return "colors-ntcoal"
    if instance.gamma**b.sigma <= 10_000:
        return "colors-size"
    return "colors-types"


def _apply_overrides(instance: Instance, args) -> Instance:
    if args.sigma is None and args.rho1 is None and args.rho2 is None:
        return instance
    b = instance.budgets
    rho1 = args.rho1 if args.rho1 is not None else b.rho1
    rho2 = args.rho2 if args.rho2 is not None else min(b.rho2, rho1)
    sigma = args.sigma if args.sigma is not None else b.sigma
    # `Instance.__post_init__` validates the new budgets.
    return dataclasses.replace(instance, budgets=Budgets(sigma, rho1, rho2))


def cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    instance = _apply_overrides(instance, args)
    algo = args.algo if args.algo != "auto" else pick_auto(instance)
    solver = SOLVERS[algo]
    if args.notion not in solver.notions:
        names = " and ".join(NOTION_NAMES[notion] for notion in solver.notions)
        print(f"{algo} solves {names} only", file=sys.stderr)
        return 2
    b = instance.budgets
    tau = len({t for _, t in instance.present_pairs})
    print(
        f"n={instance.n} gamma={instance.gamma} tau={tau} "
        f"sigma={b.sigma} rho1={b.rho1} rho2={b.rho2} algo={algo} notion={args.notion}"
    )
    outcome = solver.solve(instance, args.notion)
    if outcome is None:
        print("NO: no stable outcome within the budgets")
        return 1
    verdict = check_outcome(instance, outcome, args.notion)
    if not verdict.stable:
        raise SolverDivergence(f"{algo} returned an outcome that fails its check: {verdict}")
    if args.out:
        save_outcome(instance, outcome, args.out)
        print(f"YES: stable outcome written to {args.out}")
    else:
        print("YES: stable outcome")
        sys.stdout.write(serialize_outcome(instance, outcome))
    return 0


def cmd_check(args) -> int:
    instance = load_instance(args.instance)
    instance = _apply_overrides(instance, args)
    outcome = load_outcome(instance, args.outcome)
    verdict = check_outcome(instance, outcome, args.notion)
    if verdict.stable:
        print("stable")
        return 0
    if verdict.status == "budget":
        print(f"budget violation: {verdict.detail}")
    else:
        dev = verdict.deviation
        target = "the empty coalition" if dev.target == -1 else f"coalition {dev.target}"
        print(f"unstable: agent {instance.agent_ids[dev.agent]} deviates to {target}")
        (color, t), (own, own_tier), (joined, joined_tier) = deviation_tiers(
            instance, outcome, dev
        )
        print(
            f"  (color {color}, type {t}): palette {own} at tier {own_tier}, "
            f"joined palette {joined} at tier {joined_tier} (tier 0 is the top)"
        )
    return 1


def _instance_from_source(src, args) -> Instance:
    if args.problem == "x3c":
        return reductions.from_x3c(src["universe"], src["family"])
    if args.problem == "partition":
        return reductions.from_partition(src["values"], args.notion)
    if args.problem == "mss":
        return reductions.from_mss(src["sets"], tuple(src["target"]))
    if args.problem == "indset":
        return reductions.from_independent_set(
            src["num_vertices"], [tuple(e) for e in src["edges"]], src["k"]
        )
    if args.problem == "sgasp":
        sgasp = reductions.SGaspInstance(
            participants=tuple(src["participants"]),
            activities=tuple(src["activities"]),
            approvals={
                p: frozenset((a, t) for a, t in lst)
                for p, lst in src["approvals"].items()
            },
            group_size_param=src.get("s"),
        )
        return reductions.from_sgasp(sgasp, normalized=args.normalized)
    raise InvalidInput(args.problem)  # pragma: no cover - argparse restricts choices


def cmd_gen(args) -> int:
    try:
        with open(args.source) as fh:
            src = json.load(fh)
        instance = _instance_from_source(src, args)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        # A source of the wrong shape (not JSON, a missing key, a string
        # where a number belongs) fails inside the reduction's arithmetic.
        raise InvalidInput(f"malformed {args.problem} source: {exc!r}") from exc
    save_instance(instance, args.out)
    print(f"wrote {instance.n} agents, {instance.gamma} colors to {args.out}")
    return 0


def cmd_bench(args) -> int:
    if args.count < 0:
        raise InvalidInput(f"--count must be at least 0, not {args.count}")
    caps = GenCaps(n=args.cap_n, gamma=args.cap_gamma, tau=args.cap_tau)
    report = run_bench(args.seed, args.count, caps, out_dir=args.out_dir)
    print(
        f"instances={report.count} solver_runs={report.runs} "
        f"yes={report.yes} no={report.no}"
    )
    for line in report.disagreements:
        print(f"DISAGREEMENT {line}")
    for line in report.witness_failures:
        print(f"BAD WITNESS {line}")
    if report.ok:
        print("all solvers agree")
        return 0
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdg", description="Stable-outcome solvers for diversity games"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget_flags(p):
        p.add_argument("--sigma", type=int)
        p.add_argument("--rho1", type=int)
        p.add_argument("--rho2", type=int)

    p = sub.add_parser("solve", help="decide existence and emit a stable outcome")
    p.add_argument("instance")
    p.add_argument("--algo", default="auto", choices=["auto", *SOLVERS])
    p.add_argument("--notion", default="ns", choices=["ns", "is"])
    p.add_argument("--out")
    add_budget_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="verify an outcome file")
    p.add_argument("instance")
    p.add_argument("outcome")
    p.add_argument("--notion", default="ns", choices=["ns", "is"])
    add_budget_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="generate an instance from a source problem")
    p.add_argument("problem", choices=["x3c", "partition", "mss", "indset", "sgasp"])
    p.add_argument("--source", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--notion", default="ns", choices=["ns", "is"])
    p.add_argument("--normalized", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="random cross-solver agreement run")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--cap-n", type=int, default=7)
    p.add_argument("--cap-gamma", type=int, default=3)
    p.add_argument("--cap-tau", type=int, default=3)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        search_cap(1)  # a malformed HDG_SEARCH_CAP fails even if no guard reads it
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot use {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except InvalidInput as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OwnColorViolation as exc:
        print(f"not an own-ratio instance: {exc}", file=sys.stderr)
        return 2
    except SearchSpaceTooLarge as exc:
        print(f"search space too large: {exc}", file=sys.stderr)
        return 2
    except HdgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
