"""steppath benchmark: one seeded closed-loop workload, checked against scipy.

Run from the repository root:

    python3 perfbench/run.py --workload p2p-geo --seed 1 --seconds 10 --trace 0

The workload's inputs are made from ``--seed``.  Set-up (build the graph,
round-trip it through the binary format, label components, generate one
share of the queries) runs SETUPS times and ``setup_s`` is the median; each
set-up draws its share with its own seeds.  After each set-up one client
sends that share's requests in order, each after the previous one returned,
in whole passes: after the first set-up until ``--seconds``/SETUPS have gone
by, after the others as many passes as the first one made.  The measured
loop is thus spread over the whole run, which evens out slow spells of the
host.  Every answer is checked against scipy's Dijkstra after the loop.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``
(a separate run with spans around every call into a steppath module; the
spans go to perfbench/out/).  The line before it is a run record with the
seed, sizes, sample counts and versions.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
THREADS_ENV_VAR = "STEPPATH_THREADS"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # library defaults only: one worker, whatever the caller's environment says
    threads_env = os.environ.pop(THREADS_ENV_VAR, None)
    src = ROOT / "src"
    if not (src / "steppath" / "__init__.py").is_file():
        print(f"no steppath sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import scipy
    import steppath

    import cases
    import tracing

    if Path(steppath.__file__).resolve().parent != (src / "steppath").resolve():
        print(f"imported steppath from {steppath.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in cases.CASES:
        print(f"unknown workload {args.workload!r}; one of {sorted(cases.CASES)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    case = cases.CASES[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    try:
        if tracer:
            tracer.install()
        setup_times, queries, computed = [], [], {}
        loop = ClosedLoop(args.seconds / cases.SETUPS, tracer)
        for k in range(cases.SETUPS):
            if tracer:
                tracer.request = -1 - k
            setup = None  # free the previous part's graph: peak RSS holds one set-up
            with tempfile.TemporaryDirectory(dir=OUT) as workdir:
                gc.collect()
                t0 = time.perf_counter()
                setup = case.setup(Path(workdir), k)
                setup_times.append(time.perf_counter() - t0)
            queries += setup.queries
            for key, value in setup.computed.items():
                computed[key] = max(computed.get(key, 0), value)
            loop.run(case.requests(setup, setup.queries))
    finally:
        if tracer:
            tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wrong = case.wrong(queries, loop.first)
    failed = sum(1 for i, ok in loop.samples if not ok or i in wrong)
    attempted = len(loop.samples)
    latencies_ms = [s * 1e3 for s in loop.latencies]

    if tracer:
        values = tracing.layer_metrics(tracer, cases.SETUPS, loop.passes, computed)
        tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "latency_p50_ms": statistics.median(latencies_ms),
            "requests_per_s": attempted / loop.seconds,
            "peak_rss_mb": peak_rss_mb,
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **setup.sizes,
        "queries": len(queries),
        "requests": len(loop.first),
        "passes": loop.passes,
        "samples": attempted,
        "loop_s": loop.seconds,
        "setup_runs_s": setup_times,
        "error_rate": failed / attempted,
        "wrong_requests": sorted(wrong),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        THREADS_ENV_VAR: "unset" if threads_env is None else f"removed (was {threads_env!r})",
        **case.notes(),
    }
    if attempted >= 100:
        record["latency_p90_ms"] = statistics.quantiles(latencies_ms, n=10)[-1]
    if tracer and tracer.missing:
        record["missing_wrap_targets"] = tracer.missing
    print(json.dumps({"run_record": record}))

    metrics = {}
    for entry in wanted:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


class ClosedLoop:
    """One client sending each request after the previous one returned.

    ``run`` takes one set-up's requests and makes whole passes over them:
    on the first call until ``seconds`` have gone by, on later calls as many
    passes as the first call made, so every request is sent equally often
    and per-pass counts stay exact.  The first answer of each request is
    kept for the reference check; later passes must repeat it exactly.
    """

    def __init__(self, seconds: float, tracer):
        self.part_seconds = seconds
        self.tracer = tracer
        self.passes = 0  # passes per set-up, fixed by the first one
        self.first = []  # first answer of every request, in request order
        self.samples = []  # (request index, answered without error and as before)
        self.latencies = []
        self.seconds = 0.0  # wall time of all passes

    def run(self, requests) -> None:
        base = len(self.first)
        self.first += [None] * len(requests)
        passes = 0
        gc.collect()
        start = time.perf_counter()
        while self._another(passes, start):
            for i, request in enumerate(requests):
                if self.tracer:
                    self.tracer.request = len(self.samples)
                t0 = time.perf_counter()
                try:
                    answer = request.call()
                    error = False
                except Exception as exc:  # a failed request is counted, not fatal
                    answer, error = None, True
                    print(f"request {base + i} ({request.kind}) raised {exc!r}", file=sys.stderr)
                self.latencies.append(time.perf_counter() - t0)
                if passes == 0:
                    self.first[base + i] = answer
                    self.samples.append((base + i, not error))
                else:
                    self.samples.append((base + i, not error and _same(answer, self.first[base + i])))
            passes += 1
        self.seconds += time.perf_counter() - start
        self.passes = passes

    def _another(self, passes: int, start: float) -> bool:
        if self.passes:  # fixed by the first set-up
            return passes < self.passes
        return passes == 0 or time.perf_counter() - start < self.part_seconds


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


def git_commit():
    """The checked-out commit, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
