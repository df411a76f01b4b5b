"""One place each for the solver table and the search-cap policy.

`bench.SOLVERS` is the only list of solvers: `hdg solve --algo` offers its
names and the bench runs its entries and nothing else.  `errors.search_cap`
is the only reader of the environment.  `stability.deal_outcome` is the
only materialiser of the class-level solvers' witnesses, and only
`stability` and `fileio` read an outcome's `coalitions`.  Every solver the
benchmark in `perfbench/` names is an `hdg` export, and every entry point
its traced mode hooks exists.  Only `hdg.core` tells
compact columns from tuples, and the class data the benchmark traces stays
a set of cached properties on `Instance`.  `stability.Block` is the one
coalition shape, which brute force, colors-size and colors-types draw
from `stability.shapes` in its one order, and `core.PackedCounts` the one packed residual.
`core.shared` is the one per-instance slot, and only `core` holds an
instance by weak reference.  Every layer reads preferences
through `tier_of`, which only `core.TierList` and `core.NamedFamily` define.
Only `core` (in `TierTable`) and `ownhdg` (its own-ratio order builder)
call it; every other layer reads each tier through the instance's
`core.TierTable`, which only `core.tier_table` builds, so back-to-back
solves and deviation searches on one instance share it.  colors-ntcoal
decides every seat with one flag-monotone test, `_seat_ok`, and builds
every class-to-seat network in one function, `_network`.
"""

import argparse
import ast
import functools
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import hdg
import hdg.brute
import hdg.core
import hdg.maxflow
import hdg.stability
from hdg import bench, cli, colors_ntcoal, colors_size, colors_types
from hdg.core import NamedFamily, TierList
from hdg.errors import search_cap
from hdg.reductions import from_x3c
from hdg.stability import IS, NS, Outcome

from fixtures import example1


def _package_modules():
    yield hdg
    for info in pkgutil.iter_modules(hdg.__path__):
        yield importlib.import_module(f"hdg.{info.name}")


def test_only_errors_reads_the_environment():
    readers = [
        path.name
        for path in sorted(Path(hdg.__file__).parent.glob("*.py"))
        if path.name != "errors.py"
        and any(word in path.read_text() for word in ("environ", "getenv"))
    ]
    assert readers == []


def test_algo_choices_are_the_table_names():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    algo = next(a for a in commands.choices["solve"]._actions if a.dest == "algo")
    assert list(algo.choices) == ["auto", *bench.SOLVERS]


def test_bench_runs_only_table_solvers(monkeypatch):
    # Every solve_* function in the package fails when called, so a solver
    # run from outside the table shows up as an error.
    def forbidden(name):
        def run(*args, **kwargs):
            raise AssertionError(f"bench ran {name}, which is not in the table")

        return run

    for module in _package_modules():
        for name, value in list(vars(module).items()):
            if name.startswith("solve_") and callable(value):
                monkeypatch.setattr(module, name, forbidden(name))
    calls = []

    def recording(instance, notion):
        calls.append(notion)
        return None

    monkeypatch.setattr(bench, "SOLVERS", {"only": bench.Solver(recording)})
    report = bench.BenchReport()
    bench.check_instance(example1(), report, label="x/1")
    assert calls == ["ns", "is"] and report.runs == 2 and report.ok


def test_search_cap_only_raises_a_guard(monkeypatch):
    monkeypatch.delenv("HDG_SEARCH_CAP", raising=False)
    assert search_cap(12) == 12
    monkeypatch.setenv("HDG_SEARCH_CAP", "")
    assert search_cap(12) == 12
    monkeypatch.setenv("HDG_SEARCH_CAP", "14")
    assert search_cap(12) == 14
    assert search_cap(400_000) == 400_000


# Solvers that decide on class counts; each builds its witness by dealing
# agents out of classes, never from hand-built agent lists, and deals only
# its witness.
CLASS_LEVEL = {
    "colors_size": "colors-size",
    "colors_types": "colors-types",
    "colors_ntcoal": "colors-ntcoal",
    "ownhdg": "own-nash",
    "brute": "brute",
}


def test_class_level_solvers_materialise_through_deal_outcome(monkeypatch):
    for module in CLASS_LEVEL:
        assert "from_sets" not in Path(hdg.__file__).with_name(f"{module}.py").read_text()

    def forbidden(cls, sets):
        raise AssertionError("a solver built its witness with Outcome.from_sets")

    monkeypatch.setattr(Outcome, "from_sets", classmethod(forbidden))
    dealers = []
    for module, algo in CLASS_LEVEL.items():
        mod = importlib.import_module(f"hdg.{module}")
        real = mod.deal_outcome
        dealt = []

        def dealing(instance, blocks, alone=(), real=real, dealt=dealt):
            dealt.append(real(instance, blocks, alone))
            return dealt[-1]

        monkeypatch.setattr(mod, "deal_outcome", dealing)
        witness = bench.SOLVERS[algo].solve(example1(), NS)
        assert witness is not None and witness is dealt[-1]
        assert len(dealt) == 1
        dealers.append(algo)
    assert dealers == list(CLASS_LEVEL.values())


def test_flow_solvers_deal_lone_agents_in_runs(monkeypatch):
    # Three 1:1 pairs and three color-0 agents left alone: colors-ntcoal
    # and own-nash hand every lone agent to `deal_outcome` as a run, never
    # as a one-agent block.
    tiers = [[[1, 2]], [[1, 1]]]
    prefs = {t: NamedFamily("own_ratio_tiers", {"color": t, "tiers": tiers}) for t in (0, 1)}
    colors = [0, 1, 0, 1, 0, 1, 0, 0, 0]
    inst = hdg.make_instance(colors, prefs, types=colors, gamma=2, sigma=2, rho2=3)
    for module, algo, notion in (
        ("colors_ntcoal", "colors-ntcoal", NS),
        ("colors_ntcoal", "colors-ntcoal", IS),
        ("ownhdg", "own-nash", NS),
    ):
        mod = importlib.import_module(f"hdg.{module}")
        real = mod.deal_outcome
        calls = []

        def dealing(instance, blocks, alone=(), real=real, calls=calls):
            blocks, alone = [list(b) for b in blocks], list(alone)
            calls.append((blocks, alone))
            return real(instance, blocks, alone)

        monkeypatch.setattr(mod, "deal_outcome", dealing)
        witness = bench.SOLVERS[algo].solve(inst, notion)
        [(blocks, alone)] = calls
        assert all(sum(k for _, k in block) >= 2 for block in blocks)
        lone = sum(1 for coalition in witness.coalitions if len(coalition) == 1)
        assert lone == 3 and sum(k for _, k in alone) == lone
        monkeypatch.undo()


def _perfbench_constant(module: str, name: str):
    """A literal assigned at the top of a perfbench module, read without
    importing the benchmark."""
    source = (Path(__file__).resolve().parents[1] / "perfbench" / module).read_text()
    value = next(
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    )
    return ast.literal_eval(value)


def test_perfbench_solver_exports_exist():
    # perfbench/run.py calls solvers by their `hdg` export names.
    exports = _perfbench_constant("run.py", "SOLVER_EXPORTS")
    assert exports and all(hasattr(hdg, name) for name in exports.values())
    assert hdg.solve_brute_positions is hdg.solve_brute


def test_perfbench_trace_hooks_resolve():
    # perfbench/tracing.py hooks these (module, attribute) entries where
    # callers look them up; a rewrite that drops one would silently lose
    # its layer's spans or counts.  `hdg.prefs` is gone; its hook awaits
    # removal from the benchmark (ROADMAP, open item 1).
    entries = _perfbench_constant("tracing.py", "SPAN_HOOKS")
    entries += _perfbench_constant("tracing.py", "COUNT_HOOKS")
    missing = set()
    for module, attr, *_ in entries:
        try:
            owner = importlib.import_module(module)
        except ImportError:
            missing.add(f"{module}:{attr}")
            continue
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if name not in vars(owner):
            missing.add(f"{module}:{attr}")
    assert len(entries) > 20
    assert missing <= {"hdg.prefs:TierCache.tier"}


def test_only_core_tells_compact_columns_from_tuples():
    compact = {"Runs", "IdColumn", "_Column"}
    checkers = []
    for path in sorted(Path(hdg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                named = {
                    n.id if isinstance(n, ast.Name) else n.attr
                    for n in ast.walk(node.args[1])
                    if isinstance(n, (ast.Name, ast.Attribute))
                }
                if named & compact:
                    checkers.append(path.name)
    assert checkers and set(checkers) == {"core.py"}


def test_perfbench_class_data_are_cached_properties():
    names = _perfbench_constant("workloads.py", "CLASS_DATA")
    assert names
    for name in names:
        assert isinstance(vars(hdg.core.Instance).get(name), functools.cached_property), name


def _classes_defining(attr: str) -> set[tuple[str, str]]:
    """(module, class) for every class in the package that holds `attr`: a
    field, a `__slots__` entry or an attribute it assigns."""
    found = set()
    for path in sorted(Path(hdg.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and node.attr == attr
                    or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id == attr
                    or isinstance(node, ast.Constant) and node.value == attr
                ):
                    found.add((path.stem, cls.name))
    return found


def test_block_is_the_one_coalition_shape():
    # brute force, colors-size and colors-types draw their shapes from
    # `stability.shapes` and build no count vectors of their own.
    assert _classes_defining("pair_counts") == {("stability", "Block")}
    for module in (hdg.brute, colors_size, colors_types):
        assert module.shapes is hdg.stability.shapes
        assert "compositions_upto" not in Path(module.__file__).read_text()


def test_only_core_holds_an_instance_weakly():
    # `core.shared` is the one per-instance slot: every other layer keeps
    # what it builds of an instance in that slot's parts.
    importers = set()
    for path in sorted(Path(hdg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Import) and any(a.name == "weakref" for a in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "weakref"
            ):
                importers.add(path.stem)
    assert importers == {"core"}
    refs = [
        node
        for node in ast.walk(ast.parse(Path(hdg.core.__file__).read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "ref"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "weakref"
    ]
    assert len(refs) == 1


def test_only_core_sizes_packed_fields():
    # Guard-bit packing (`core.PackedCounts`) is the only field-width arithmetic.
    sizers = set()
    for path in sorted(Path(hdg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "bit_length":
                sizers.add(path.stem)
    assert sizers == {"core"}


def test_only_core_and_ownhdg_read_tier_of():
    # Any `.tier_of` read counts, whether called at once or bound to a name.
    readers = set()
    for path in sorted(Path(hdg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "tier_of":
                readers.add(path.stem)
    assert readers == {"core", "ownhdg"}


def test_only_stability_and_fileio_read_coalitions():
    # A dealt outcome's lone coalitions are built only when read: checks
    # read its runs, and only the file writer lists every coalition.
    readers = set()
    for path in sorted(Path(hdg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "coalitions":
                readers.add(path.stem)
    assert readers == {"stability", "fileio"}


def test_only_core_builds_a_tier_table():
    # Everyone else asks `core.tier_table`, so back-to-back calls share one.
    builders = set()
    for path in sorted(Path(hdg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                if name == "TierTable":
                    builders.add(path.stem)
    assert builders == {"core"}


def test_only_stability_lists_the_shapes():
    # `stability.Shapes` holds the one order of the coalition shapes: only
    # it calls `_largest_first`, and it builds no composition-order copy.
    callers = set()
    for path in sorted(Path(hdg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                if name == "_largest_first":
                    callers.add(path.stem)
    assert callers == {"stability"}
    imported = {
        alias.name
        for node in ast.walk(ast.parse(Path(hdg.stability.__file__).read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "compositions_upto" not in imported and not hasattr(hdg.stability, "compositions_upto")


def test_colors_ntcoal_has_one_seat_rule():
    # The flow and the relaxed family screen both decide seats
    # through `_seat_ok`; only it and the flag screens of `_is_guesses`
    # read the join and pair tiers.
    tree = ast.parse(Path(colors_ntcoal.__file__).read_text())
    readers = {
        top.name
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr in ("joined", "pair")
    }
    assert readers == {"_seat_ok", "_is_guesses"}


def test_colors_ntcoal_builds_one_network():
    # Only `_network` names `FlowNetwork` and `max_flow`, and it builds
    # one network; `max_flow` stays a module-level name, because the
    # benchmark's `hdg.colors_ntcoal:max_flow` hook and
    # `test_flow_rows.record_networks` patch it there.
    tree = ast.parse(Path(colors_ntcoal.__file__).read_text())
    namers, builds = set(), 0
    for top in tree.body:
        if isinstance(top, ast.ImportFrom):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in ("FlowNetwork", "max_flow"):
                namers.add(getattr(top, "name", type(top).__name__))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "FlowNetwork":
                builds += 1
    assert namers == {"_network"} and builds == 1
    assert vars(colors_ntcoal)["max_flow"] is hdg.maxflow.max_flow


def test_tier_of_is_the_only_preference_oracle():
    methods = []  # (module, class, method) for every method in the package
    for path in sorted(Path(hdg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods += [
                    (path.stem, node.name, item.name)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
            elif isinstance(node, ast.FunctionDef) and node.name == "tier_of":
                # Outside core, no function may stand in for the oracle.
                assert path.stem == "core", path.name
    definers = [(module, cls) for module, cls, name in methods if name == "tier_of"]
    assert definers == [("core", "TierList"), ("core", "NamedFamily")]
    assert not [m for m in methods if m[2] in ("tier", "prefers")]
    assert "prefs" not in {info.name for info in pkgutil.iter_modules(hdg.__path__)}
    assert not hasattr(hdg, "compare")


@pytest.mark.parametrize("notion", [NS, IS])
@pytest.mark.parametrize(
    "module, solve",
    [(colors_types, colors_types.solve_colors_types), (colors_size, colors_size.solve_colors_size)],
    ids=["colors-types", "colors-size"],
)
def test_a_solve_reads_each_tier_once(monkeypatch, module, solve, notion):
    # The solver's tier_of calls, not counting its witness re-check: a
    # palette p is read at most once per count vector k*p a coalition or
    # a coalition plus one joiner can have.  Over a universe of nine, so
    # that even colors-size, which stops at its first feasible support,
    # reads well over a hundred palettes.
    inst = from_x3c(list(range(1, 10)), [[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 2, 4]])
    calls: Counter = Counter()
    counting = [True]
    for cls in (TierList, NamedFamily):
        def tier_of(self, palette, _read=cls.tier_of):
            if counting[0]:
                calls[id(self), palette] += 1
            return _read(self, palette)

        monkeypatch.setattr(cls, "tier_of", tier_of)
    check = module.check_outcome

    def uncounted_check(*args):
        counting[0] = False
        try:
            return check(*args)
        finally:
            counting[0] = True

    monkeypatch.setattr(module, "check_outcome", uncounted_check)
    assert solve(inst, notion) is not None
    types_of = Counter(id(order) for order in inst.prefs.values())
    most = inst.budgets.sigma + 1
    assert len(calls) > 100
    assert all(k <= types_of[order] * (most // sum(p)) for (order, p), k in calls.items())
