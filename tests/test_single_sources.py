"""One place each for the solver table and the search-cap policy.

`bench.SOLVERS` is the only list of solvers: `hdg solve --algo` offers its
names and the bench runs its entries and nothing else.  `errors.search_cap`
is the only reader of the environment.  `stability.deal_outcome` is the
only materialiser of the class-level solvers' witnesses.  Every solver the
benchmark in `perfbench/` names is an `hdg` export, and every entry point
its traced mode hooks exists.  Only `hdg.core` tells
compact columns from tuples, and the class data the benchmark traces stays
a set of cached properties on `Instance`.  Every layer reads preferences
through `tier_of`, which only `core.TierList` and `core.NamedFamily` define.
"""

import argparse
import ast
import functools
import importlib
import pkgutil
from pathlib import Path

import hdg
import hdg.core
from hdg import bench, cli
from hdg.errors import search_cap
from hdg.stability import NS, Outcome

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
# agents out of classes, never from hand-built agent lists.  Brute force
# deals every outcome it tries, the others only their witness.
CLASS_LEVEL = {
    "colors_size": "colors-size",
    "colors_types": "colors-types",
    "colors_ntcoal": "colors-ntcoal",
    "ownhdg": "own-nash",
    "brute": "brute",
}
DEALS_EVERY_CANDIDATE = {"brute"}


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

        def dealing(instance, blocks, real=real, dealt=dealt):
            dealt.append(real(instance, blocks))
            return dealt[-1]

        monkeypatch.setattr(mod, "deal_outcome", dealing)
        witness = bench.SOLVERS[algo].solve(example1(), NS)
        assert witness is not None and witness is dealt[-1]
        if module not in DEALS_EVERY_CANDIDATE:
            assert len(dealt) == 1
        dealers.append(algo)
    assert dealers == list(CLASS_LEVEL.values())


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
    # removal from the benchmark (ROADMAP, open item 5).
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
