"""The benchmark tracer still finds every function and hook it wraps.

``perfbench/tracing.py`` rebinds steppath functions by name; a renamed or
deleted target would turn its per-layer metric into null without failing
the benchmark.  The tracer is loaded by path and used unedited.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import steppath

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
