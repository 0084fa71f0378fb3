"""Spans around every call into a steppath module, and the per-layer metrics.

The tracer wraps public functions and methods of ``steppath`` by rebinding
them on their modules and classes, and puts every original back when it is
removed.  Nothing under ``src/`` is edited.  A function is rebound in every
``steppath`` module that holds it, because ``ppsp`` and ``batch`` import
``run_search`` (and others) by name.

Each span records its name, start, end, parent span and request id.  Spans
are kept in memory in flat arrays and written out once, when the run ends.
A span's self time is its duration minus that of its child spans.

Request ids: ``-1 - k`` during the k-th set-up, the request's sequence
number during the loop.  Set-up metrics are per set-up and loop metrics per
pass over the request list, so counts repeat exactly whatever the number
of passes a run had time for.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

# (module, function) pairs wrapped wherever steppath binds them
FUNCTIONS = [
    ("graph", "build_csr"),
    ("graph", "largest_component"),
    ("io", "save_binary"),
    ("io", "load_graph"),
    ("workloads", "percentile_pairs"),
    ("workloads", "pattern_pairs"),
    ("oracle", "percentile_target"),
    ("engine", "run_search"),
    ("engine", "sssp"),
    ("ppsp", "ppsp"),
    ("batch", "build_query_graph"),
    ("batch", "multi_bids"),
    ("batch", "baseline_batch"),
]
METHODS = [
    ("engine", "Frontier", "extract"),
    ("engine", "Frontier", "add_many"),
    ("heuristics", "MemoTable", "get_many"),
]
# Search hooks, wrapped on every Search subclass of these modules that defines them
HOOK_MODULES = ("engine", "ppsp", "batch")
HOOKS = ("keys", "prune", "on_improved", "early_out")


def _module(name):
    return sys.modules.get(f"steppath.{name}")


def _label_arg(position, keyword, default=None):
    """Span label taken from one argument, such as the ppsp strategy."""

    def label(args, kwargs):
        if keyword in kwargs:
            return kwargs[keyword]
        return args[position] if len(args) > position else default

    return label


def _count_stats(add, args, stats, before):
    add("engine.steps", stats.steps)
    add("engine.relaxations", stats.relaxations)
    add("engine.settled_copies", stats.settled_copies)


def _count_extracted(add, args, result, before):
    add("engine.extracted_copies", int(result[0].size))


def _count_pruned(add, args, pruned, before):
    add("ppsp.pruned_copies", int(np.count_nonzero(pruned)))


def _memo_before(args):
    return args[0].computations


def _count_memo(add, args, result, before):
    add("heuristics.requests", int(np.size(args[1])))
    add("heuristics.computations", args[0].computations - before)


LABELS = {
    "ppsp.ppsp": _label_arg(3, "strategy", "bids"),
    "batch.baseline_batch": _label_arg(2, "mode", "plain-bids"),
}
COUNTERS = {
    "engine.run_search": (None, _count_stats),
    "engine.Frontier.extract": (None, _count_extracted),
    "heuristics.MemoTable.get_many": (_memo_before, _count_memo),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.req = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.request = -1
        self.counts: dict[tuple[bool, str], int] = defaultdict(int)
        self.missing: list[str] = []
        self.hooks: set[str] = set()  # span names of the wrapped Search hooks
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def add(self, key: str, value: int) -> None:
        self.counts[(self.request < 0, key)] += value

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, before=None, after=None):
        label = LABELS.get(name)
        before, after = COUNTERS.get(name, (before, after))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            full = name if label is None else f"{name}[{label(args, kwargs)}]"
            sid = len(tracer.start)
            tracer.name.append(tracer._name_id(full))
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.req.append(tracer.request)
            tracer.start.append(0)
            tracer.end.append(0)
            tracer._stack.append(sid)
            state = before(args) if before else None
            tracer.start[sid] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = perf_counter_ns()
                tracer._stack.pop()
            if after is not None:
                after(tracer.add, args, result, state)
            return result

        return traced

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; a target that no longer exists is noted as missing."""
        modules = [m for k, m in sys.modules.items() if k == "steppath" or k.startswith("steppath.")]
        for mod_name, fn_name in FUNCTIONS:
            fn = getattr(_module(mod_name), fn_name, None)
            name = f"{mod_name}.{fn_name}"
            if not callable(fn):
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._rebind(module, attr, wrapper)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(_module(mod_name), cls_name, None)
            name = f"{mod_name}.{cls_name}.{meth}"
            if cls is None or meth not in vars(cls):
                self.missing.append(name)
                continue
            self._rebind(cls, meth, self.wrap(name, vars(cls)[meth]))
        search = getattr(_module("engine"), "Search", None)
        if search is None:
            self.missing.append("engine.Search")
            return
        for mod_name in HOOK_MODULES:
            for cls_name, cls in getattr(_module(mod_name), "__dict__", {}).items():
                if not (inspect.isclass(cls) and issubclass(cls, search)):
                    continue
                if cls.__module__ != f"steppath.{mod_name}":
                    continue
                for hook in HOOKS:
                    if hook in vars(cls):
                        name = f"{mod_name}.{cls_name}.{hook}"
                        after = _count_pruned if hook == "prune" else None
                        self._rebind(cls, hook, self.wrap(name, vars(cls)[hook], after=after))
                        self.hooks.add(name)
        if "batch.MultiBidsSearch.on_improved" not in self.hooks:
            self.missing.append("batch.MultiBidsSearch.on_improved")

    def _rebind(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "request": np.frombuffer(self.req, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def layer_metrics(tracer: Tracer, setups: int, passes: int, computed: dict) -> dict:
    """Per-layer metrics: set-up ones per set-up, loop ones per pass.

    A metric built from a wrap target that no longer exists is None.
    """
    a = tracer.arrays()
    dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) / 1e9
    parent = a["parent"]
    has = parent >= 0
    own = dur - np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    in_setup = a["request"] < 0
    gone = set(tracer.missing)

    def select(names, setup=False):
        ids = [i for i, n in enumerate(tracer.names) if n in names or n.split("[", 1)[0] in names]
        return np.isin(a["name"], ids) & (in_setup if setup else ~in_setup)

    def per(total, setup):
        runs = setups if setup else passes
        if isinstance(total, float):
            return total / runs
        return total // runs if total % runs == 0 else total / runs

    def self_s(span, setup=False, needs=()):
        if gone & {span, *needs}:
            return None
        return per(float(own[select({span}, setup)].sum()), setup)

    def total_s(span):
        return None if span.split("[", 1)[0] in gone else per(float(dur[select({span})].sum()), False)

    def calls(span, setup=False):
        return None if span in gone else per(int(select({span}, setup).sum()), setup)

    def count(key, span):
        return None if span in gone else per(tracer.counts.get((False, key), 0), False)

    def p50_ms(span):
        if span.split("[", 1)[0] in gone:
            return None
        d = dur[select({span})]
        return float(np.median(d)) * 1e3 if d.size else 0.0

    run, extract, add = "engine.run_search", "engine.Frontier.extract", "engine.Frontier.add_many"
    memo, on_improved = "heuristics.MemoTable.get_many", "batch.MultiBidsSearch.on_improved"
    hooks = tracer.hooks - {on_improved}
    extracted = count("engine.extracted_copies", extract)
    settled = count("engine.settled_copies", run)
    m = {
        "graph.build_csr_s": self_s("graph.build_csr", True),
        "graph.build_csr_calls": calls("graph.build_csr", True),
        "graph.largest_component_s": self_s("graph.largest_component", True),
        "graph.largest_component_calls": calls("graph.largest_component", True),
        "io.save_binary_s": self_s("io.save_binary", True),
        "io.load_graph_s": self_s("io.load_graph", True),
        "io.graph_bytes": computed["io.graph_bytes"],
        "workloads.percentile_pairs_s": self_s("workloads.percentile_pairs", True, ["oracle.percentile_target"]),
        "workloads.pattern_pairs_s": self_s("workloads.pattern_pairs", True, ["graph.largest_component"]),
        "oracle.percentile_target_s": self_s("oracle.percentile_target", True),
        "oracle.percentile_target_calls": calls("oracle.percentile_target", True),
        "batch.build_query_graph_s": self_s("batch.build_query_graph", True),
        "engine.run_search_calls": calls(run),
        "engine.relax_s": self_s(run, needs=[extract, add, "engine.Search"]),
        "engine.frontier_extract_s": self_s(extract, needs=["engine.Search"]),
        "engine.frontier_extract_calls": calls(extract),
        "engine.frontier_add_s": self_s(add),
        "engine.frontier_add_calls": calls(add),
        "engine.steps": count("engine.steps", run),
        "engine.relaxations": count("engine.relaxations", run),
        "engine.settled_copies": settled,
        "engine.extracted_copies": extracted,
        "engine.useful_extract_ratio": None if None in (settled, extracted) else settled / extracted if extracted else 0.0,
        "heuristics.memo_get_s": self_s(memo),
        "heuristics.requests": count("heuristics.requests", memo),
        "heuristics.computations": count("heuristics.computations", memo),
        "ppsp.hooks_s": None if gone & {"engine.Search", memo} else per(float(own[select(hooks)].sum()), False),
        "ppsp.pruned_copies": count("ppsp.pruned_copies", "engine.Search"),
        "batch.on_improved_s": self_s(on_improved),
        "batch.on_improved_calls": calls(on_improved),
        "batch.multi_s": total_s("batch.multi_bids"),
        "batch.plain_bids_s": total_s("batch.baseline_batch[plain-bids]"),
        "batch.cells": computed.get("batch.cells", 0),
    }
    for strategy in ("et", "bids", "astar", "bidastar"):
        m[f"ppsp.{strategy}_p50_ms"] = p50_ms(f"ppsp.ppsp[{strategy}]")
    return m
