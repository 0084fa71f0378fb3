"""The benchmark tracer still finds every function and hook it wraps.

``perfbench/tracing.py`` rebinds steppath functions by name; a renamed or
deleted target would turn its per-layer metric into null without failing
the benchmark, and a non-finite one would make its result line invalid
JSON.  The tracer is loaded by path and used unedited.
"""

import importlib
import importlib.util
import json
import math
import pkgutil
import sys
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

import steppath

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
BENCHMARK = ROOT / "BENCHMARK.json"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_wrap_target():
    for info in pkgutil.iter_modules(steppath.__path__):
        importlib.import_module(f"steppath.{info.name}")
    tracer = _load_tracing().Tracer()
    original = steppath.batch.multi_bids
    try:
        tracer.install()
        assert tracer.missing == []
        assert steppath.batch.multi_bids is not original
    finally:
        tracer.remove()
    assert steppath.batch.multi_bids is original


def test_traced_set_up_and_loop_give_every_layer_metric(tmp_path):
    """A tiny set-up and loop through every wrap target, as the benchmark runs them.

    Every per-layer metric must come back as a finite number: a null, NaN
    or infinity would leave the benchmark's last line without a strict
    JSON result.
    """
    for info in pkgutil.iter_modules(steppath.__path__):
        importlib.import_module(f"steppath.{info.name}")
    tracing = _load_tracing()
    tracer = tracing.Tracer()

    def mod(name):  # looked up at call time, so the wrappers are what runs
        return sys.modules[f"steppath.{name}"]

    rng = np.random.default_rng(0)
    points = rng.random((300, 2))
    dist, idx = cKDTree(points).query(points, k=5)
    edges = np.column_stack([np.repeat(np.arange(300), 4), idx[:, 1:].ravel(), dist[:, 1:].ravel()])
    path = tmp_path / "graph.bin"
    try:
        tracer.install()
        assert tracer.missing == []
        tracer.request = -1
        graph = mod("graph").build_csr(300, edges, symmetrize=True)
        mod("io").save_binary(graph, path)
        graph = mod("io").load_graph(path).with_coords(points, "euclidean")
        mod("graph").largest_component(graph)
        pairs = mod("workloads").percentile_pairs(graph, 3, 90, 1)
        batches = [
            mod("batch").build_query_graph(mod("workloads").pattern_pairs(graph, pattern, 4, k), graph.n)
            for k, pattern in enumerate(steppath.PATTERNS)
        ]
        tracer.request = 0
        for s, t in pairs.tolist():
            for strategy in ("et", "bids", "astar", "bidastar"):
                mod("ppsp").ppsp(graph, s, t, strategy)
        for qg in batches:
            mod("batch").multi_bids(graph, qg)
            mod("batch").baseline_batch(graph, qg, "plain-bids")
    finally:
        tracer.remove()
    computed = {"io.graph_bytes": path.stat().st_size, "batch.cells": max(int(qg.order) for qg in batches) * graph.n}
    values = tracing.layer_metrics(tracer, 1, 1, computed)
    for entry in json.loads(BENCHMARK.read_text())["per_layer"]:
        value = values.get(entry["name"])
        finite = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
        assert finite, (entry["name"], value)
    json.dumps({"metrics": values}, allow_nan=False)
    # the drive reached the set-up and the loop: each side counted its calls
    assert values["graph.build_csr_calls"] == 1
    assert values["oracle.percentile_target_calls"] == 3
    assert min(values[k] for k in ("heuristics.computations", "batch.on_improved_calls", "ppsp.bidastar_p50_ms")) > 0
