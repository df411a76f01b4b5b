"""Traced mode: spans around the program's layers, hooked from outside.

Each hook replaces one entry point where its callers look it up (a module
global such as `colors_ntcoal.max_flow`, an `hdg` export, or a class
attribute such as `TierList.tier_of`) with a wrapper that records a span
(name, start, end, parent) and the layer's work counts.  A hook whose
target is gone is reported as missing and skipped.  Spans stay in memory
and are written once, at the end, to `.perfbench/spans-<workload>-<seed>.json`
in the checkout.  The preference-oracle calls are far too many to keep one
record each, so for them only the totals are kept.

A layer's self time is its spans' time minus the time of the spans they
directly contain.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

from workloads import CLASS_DATA

SOLVER_LAYERS = ("brute", "colors_size", "colors_types", "colors_ntcoal", "ownhdg")

# (module, attribute or Class.attribute, layer, keep one record per call)
SPAN_HOOKS = [
    ("hdg", "solve_brute", "brute", True),
    ("hdg", "solve_brute_positions", "brute", True),
    ("hdg", "solve_colors_size", "colors_size", True),
    ("hdg", "solve_colors_types", "colors_types", True),
    ("hdg", "solve_colors_ntcoal", "colors_ntcoal", True),
    ("hdg", "solve_ownhdg_nash", "ownhdg", True),
    ("hdg", "check_outcome", "stability", True),
    ("hdg.colors_size", "check_outcome", "stability", True),
    ("hdg.colors_types", "check_outcome", "stability", True),
    ("hdg.colors_ntcoal", "check_outcome", "stability", True),
    ("hdg.ownhdg", "check_outcome", "stability", True),
    ("hdg.colors_size", "feasible", "ilp", True),
    ("hdg.colors_ntcoal", "max_flow", "maxflow", True),
    ("hdg.ownhdg", "max_flow", "maxflow", True),
    ("hdg.fileio", "parse_instance", "fileio", True),
    ("hdg.reductions", "from_x3c", "reductions", True),
    ("hdg.reductions", "from_partition", "reductions", True),
    ("hdg.reductions", "from_mss", "reductions", True),
    ("hdg.reductions", "from_independent_set", "reductions", True),
    ("hdg.reductions", "gasp_normalize", "reductions", True),
    ("hdg.reductions", "from_sgasp", "reductions", True),
    ("hdg.core", "TierList.tier_of", "core.tier_of", False),
    ("hdg.core", "NamedFamily.tier_of", "core.tier_of", False),
    ("hdg.prefs", "TierCache.tier", "prefs.cache", False),
]
# Counted, not timed: their time stays in the calling layer.
COUNT_HOOKS = [
    ("hdg.brute", "find_ns_deviation", "brute.partitions"),
    ("hdg.brute", "find_is_deviation", "brute.partitions"),
    ("hdg.colors_size", "enumerate_coalition_types", "colors_size.types"),
    ("hdg.ownhdg", "arc_exists", "ownhdg.arcs"),
]

def _count_work(counts: Counter, hook: str, args, result):
    """Work counts of one call, by the hook it went through."""
    if hook == "hdg.core:TierList.tier_of":
        counts["core.tierlist.calls"] += 1
    elif hook == "hdg.core:NamedFamily.tier_of":
        counts["core.family.calls"] += 1
    elif hook.endswith(":check_outcome"):
        instance, outcome = args[0], args[1]
        counts["stability.pairs"] += instance.n * len(outcome.coalitions)
    elif hook.endswith(":feasible"):
        counts["ilp.vars"] += args[0].num_vars
        counts["ilp.feasible"] += result is not None
    elif hook.endswith(":max_flow"):
        counts["maxflow.augmentations"] += result[0]
        counts["maxflow.edges"] += len(args[0].edges)
    elif hook == "hdg.fileio:parse_instance":
        counts["fileio.bytes"] += len(args[0].encode())
    elif hook == "hdg.colors_size:enumerate_coalition_types":
        counts["colors_size.types"] += len(result)
    elif hook == "hdg.ownhdg:arc_exists":
        counts["ownhdg.arc_hits"] += result is not None


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [layer, child time, child count, span id]
        self._ids = itertools.count()
        self.calls: Counter = Counter()
        self.total: dict = defaultdict(float)
        self.self_time: dict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._undo: list = []

    # -- hooks ----------------------------------------------------------------

    def _resolve(self, module: str, attr: str):
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None, None
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or name not in vars(owner):
            return None, None
        return owner, name

    def install(self):
        self.missing = []
        for module, attr, layer, keep in SPAN_HOOKS:
            self._hook(module, attr, lambda target, h=f"{module}:{attr}", layer=layer, keep=keep:
                       self._span_wrapper(target, h, layer, keep))
        for module, attr, counter in COUNT_HOOKS:
            self._hook(module, attr, lambda target, h=f"{module}:{attr}", counter=counter:
                       self._count_wrapper(target, h, counter))
        core = importlib.import_module("hdg.core")
        for name in CLASS_DATA:
            prop = vars(core.Instance).get(name)
            if not isinstance(prop, functools.cached_property):
                self.missing.append(f"hdg.core:Instance.{name}")
                continue
            traced = functools.cached_property(
                self._span_wrapper(prop.func, f"hdg.core:Instance.{name}", "core.class_data", True)
            )
            traced.__set_name__(core.Instance, name)
            setattr(core.Instance, name, traced)
            self._undo.append((core.Instance, name, prop))

    def _hook(self, module, attr, make):
        owner, name = self._resolve(module, attr)
        if owner is None:
            self.missing.append(f"{module}:{attr}")
            return
        original = vars(owner)[name]
        setattr(owner, name, make(original))
        self._undo.append((owner, name, original))

    def remove(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    @contextlib.contextmanager
    def paused(self):
        """Hooks off, if they are on, for the benchmark's own use of the program."""
        installed = bool(self._undo)
        self.remove()
        try:
            yield
        finally:
            if installed:
                self.install()

    def _span_wrapper(self, target, hook: str, layer: str, keep: bool):
        stack, counts = self.stack, self.counts

        @functools.wraps(target)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, 0.0, 0, next(self._ids)]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = target(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                elapsed = end - start
                self.calls[layer] += 1
                self.total[layer] += elapsed
                self.self_time[layer] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    parent[2] += 1
                    if layer == "stability" and parent[0] in SOLVER_LAYERS:
                        self.total["stability.in_solve"] += elapsed
                if layer == "prefs.cache" and frame[2] == 0:
                    counts["prefs.cache.hits"] += 1
                if keep:
                    self.spans.append(
                        (frame[3], None if parent is None else parent[3], layer, start, end)
                    )
            _count_work(counts, hook, args, result)
            return result

        return traced

    def _count_wrapper(self, target, hook: str, counter: str):
        counts = self.counts

        @functools.wraps(target)
        def counted(*args, **kwargs):
            result = target(*args, **kwargs)
            counts[counter] += 1
            _count_work(counts, hook, args, result)
            return result

        return counted

    # -- results --------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict:
        c, calls, own = self.counts, self.calls, self.self_time
        solve_total = sum(self.total[layer] for layer in SOLVER_LAYERS)

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "fileio.parse_s": (own["fileio"], "s"),
            "fileio.bytes": (c["fileio.bytes"], "B"),
            "reductions.build_s": (own["reductions"], "s"),
            "core.class_data_s": (own["core.class_data"], "s"),
            "core.tierlist.calls": (c["core.tierlist.calls"], "count"),
            "core.family.calls": (c["core.family.calls"], "count"),
            "core.tier_of_s": (own["core.tier_of"], "s"),
            "prefs.cache.lookups": (calls["prefs.cache"], "count"),
            "prefs.cache.hit_ratio": (ratio(c["prefs.cache.hits"], calls["prefs.cache"]), "ratio"),
            "stability.calls": (calls["stability"], "count"),
            "stability.s": (own["stability"], "s"),
            "stability.pairs": (c["stability.pairs"], "count"),
            "stability.solve_share": (ratio(self.total["stability.in_solve"], solve_total), "ratio"),
            "brute.s": (own["brute"], "s"),
            "brute.partitions": (c["brute.partitions"], "count"),
            "colors_size.s": (own["colors_size"], "s"),
            "colors_size.types": (c["colors_size.types"], "count"),
            "ilp.calls": (calls["ilp"], "count"),
            "ilp.s": (own["ilp"], "s"),
            "ilp.vars": (c["ilp.vars"], "count"),
            "ilp.useful_ratio": (ratio(c["ilp.feasible"], calls["ilp"]), "ratio"),
            "colors_types.s": (own["colors_types"], "s"),
            "colors_ntcoal.s": (own["colors_ntcoal"], "s"),
            "maxflow.calls": (calls["maxflow"], "count"),
            "maxflow.s": (own["maxflow"], "s"),
            "maxflow.augmentations": (c["maxflow.augmentations"], "count"),
            "maxflow.edges": (c["maxflow.edges"], "count"),
            "ownhdg.s": (own["ownhdg"], "s"),
            "ownhdg.arcs": (c["ownhdg.arcs"], "count"),
            "ownhdg.arc_hit_ratio": (ratio(c["ownhdg.arc_hits"], c["ownhdg.arcs"]), "ratio"),
            "trace.overhead_s": (overhead_s, "s"),
            "trace.hooks_missing": (len(self.missing), "count"),
        }

    def write_spans(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({
                "fields": ["id", "parent", "layer", "start_s", "end_s"],
                "spans": self.spans,
                "missing_hooks": self.missing,
                "calls": dict(self.calls),
                "self_s": dict(self.self_time),
                "counts": dict(self.counts),
            }, fh)
