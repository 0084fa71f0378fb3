"""Paired A/B timing of two steppath trees on the perfbench workloads and ``p2p-grid``.

Run from the repository root:

    python3 benchmarks/ab.py BASE [HEAD] [--workload W] [--blocks N] [--parts K] [--seed S]

BASE and HEAD are git revisions.  Each one's ``src/steppath`` is exported
with ``git archive`` into a temporary directory; without HEAD the working
tree's ``src/steppath`` is the head side.  Both trees are imported in this
one process under distinct package names, so the two sides share the
interpreter, the numpy build and the state of the host.

The workloads are perfbench's three (``perfbench/cases.py``) and
``p2p-grid`` (``benchmarks/p2p_grid.py``), a high-diameter grid.  For each
workload (default: all four), each side builds its own graphs from the
same inputs and set-ups 0..K-1, and gets the same requests.  An untimed
check pass runs every request on both sides and compares the answers and
the work counters of every ``run_search`` inside it (steps, relaxations,
settled copies, and the A* memo's requests and computations); it also
checks the answers with the workload's ``wrong``, which reads scipy's
Dijkstra.  Then come the timed blocks: a block
is one pass over the requests, each request run four times in the order
base, head, head, base or head, base, base, head, alternating from one
request to the next and from one block to the next.  Either order cancels
a linear drift of the host within it, and alternating them gives each
side as many runs right after its own run of the same request, whose
data the caches still hold.  Every timed answer must repeat the check
pass's.

Output, one line per workload: the head/base ratio of the total times,
the median and quartiles of the per-block ratios, the number of blocks in
which the head was faster, and the ratio per request kind.  The exit
status is 1 on any mismatch of answers or counters, 0 otherwise.

An A/A run (``ab.py HEAD`` on a clean tree) shows the tool's own noise.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import pkgutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import cases  # noqa: E402  (perfbench's workloads, read and never changed)
import p2p_grid  # noqa: E402  (beside this file, which is on the path when run as a script)

CASES = {**cases.CASES, p2p_grid.P2PGrid.name: p2p_grid.P2PGrid}


class Side:
    """One steppath tree, imported as package ``name``."""

    def __init__(self, label: str, package_dir: Path, name: str):
        self.label = label
        spec = importlib.util.spec_from_file_location(
            name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
        )
        package = importlib.util.module_from_spec(spec)
        sys.modules[name] = package
        spec.loader.exec_module(package)
        self.modules = {"steppath": package}
        for info in pkgutil.iter_modules([str(package_dir)]):
            self.modules[f"steppath.{info.name}"] = importlib.import_module(f"{name}.{info.name}")
        self.log: list | None = None  # counters of each run_search while counting

    def activate(self) -> None:
        """Make ``steppath`` and its submodules name this tree, as cases.py looks them up."""
        sys.modules.update(self.modules)

    def count_runs(self):
        """Rebind this tree's run_search to one that logs each run's counters; returns the undo."""
        engine = self.modules["steppath.engine"]
        original = engine.run_search
        side = self

        def run_search(graph, search, *args, **kwargs):
            stats = original(graph, search, *args, **kwargs)
            memo = getattr(search, "memo", None)
            memo_counts = None if memo is None else (memo.requests, memo.computations)
            side.log.append((stats.steps, stats.relaxations, stats.settled_copies, memo_counts))
            return stats

        bound = [m for m in self.modules.values() if vars(m).get("run_search") is original]
        for module in bound:
            module.run_search = run_search
        return lambda: [setattr(module, "run_search", original) for module in bound]


def export(rev: str, into: Path) -> Path:
    """``src/steppath`` of git revision ``rev``, extracted under ``into``."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src/steppath"], cwd=ROOT, check=True, capture_output=True
    ).stdout
    into.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=tar, check=True)
    return into / "src" / "steppath"


def same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


def build(case, side: Side, parts: int, workdir: Path) -> tuple[list, list]:
    """The side's requests of set-ups 0..parts-1, each on that side's graphs, and their queries."""
    side.activate()
    requests, queries = [], []
    for part in range(parts):
        setup = case.setup(workdir, part)
        requests += case.requests(setup, setup.queries)
        queries += setup.queries
    return requests, queries


def check(base: Side, head: Side, base_reqs, head_reqs) -> tuple[list, list[str]]:
    """Each request once per side with its runs counted; the answers and the mismatches."""
    answers, problems = [], []
    undo = [base.count_runs(), head.count_runs()]
    try:
        for i, (a, b) in enumerate(zip(base_reqs, head_reqs)):
            got = []
            for side, request in ((base, a), (head, b)):
                side.activate()
                side.log = []
                got.append(request.call())
            answers.append(got[0])
            if not same(*got):
                problems.append(f"request {i} ({a.kind}): answers differ")
            if base.log != head.log:
                problems.append(f"request {i} ({a.kind}): counters {base.log} (base) != {head.log} (head)")
    finally:
        for restore in undo:
            restore()
    return answers, problems


def timed_block(base: Side, head: Side, base_reqs, head_reqs, answers, block: int) -> tuple[dict, list[str]]:
    """One pass, in ABBA or BAAB order per request; seconds per side and kind."""
    spent = defaultdict(lambda: [0.0, 0.0])
    problems = []
    gc.collect()
    for i, (a, b) in enumerate(zip(base_reqs, head_reqs)):
        outer, inner = ((0, base, a), (1, head, b))[:: 1 if (i + block) % 2 == 0 else -1]
        for k, side, request in (outer, inner, inner, outer):
            side.activate()
            t0 = time.perf_counter()
            answer = request.call()
            spent[a.kind][k] += time.perf_counter() - t0
            if not same(answer, answers[i]):
                problems.append(f"request {i} ({a.kind}): {side.label} answer changed between runs")
    return spent, problems


def run_workload(name: str, base: Side, head: Side, args, workdir: Path) -> list[str]:
    case = CASES[name](args.seed)
    base_reqs, queries = build(case, base, args.parts, workdir)
    head_reqs, _ = build(case, head, args.parts, workdir)
    if [r.kind for r in base_reqs] != [r.kind for r in head_reqs]:
        return [f"{name}: the two sides made different requests"]
    answers, problems = check(base, head, base_reqs, head_reqs)
    problems += [f"request {i} ({base_reqs[i].kind}): wrong answer" for i in sorted(case.wrong(queries, answers))]
    ratios, totals = [], defaultdict(lambda: [0.0, 0.0])
    for block in range(args.blocks):
        spent, wrong = timed_block(base, head, base_reqs, head_reqs, answers, block)
        problems += wrong
        for kind, (a, b) in spent.items():
            totals[kind][0] += a
            totals[kind][1] += b
        ratios.append(sum(b for _, b in spent.values()) / sum(a for a, _ in spent.values()))
    base_s = sum(a for a, _ in totals.values())
    head_s = sum(b for _, b in totals.values())
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    kinds = " ".join(f"{kind} {b / a:.3f}" for kind, (a, b) in totals.items())
    print(
        f"{name}: {len(base_reqs)} requests x {args.blocks} blocks, head/base {head_s / base_s:.3f} "
        f"(base {base_s:.2f} s, head {head_s:.2f} s); block median {median:.3f} "
        f"[{q1:.3f}, {q3:.3f}]; head faster in {sum(r < 1 for r in ratios)}/{len(ratios)}; {kinds}",
        flush=True,
    )
    return [f"{name}: {p}" for p in problems]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="git revision of the base side")
    parser.add_argument("head", nargs="?", help="git revision of the head side (default: the working tree)")
    parser.add_argument("--workload", action="append", choices=sorted(CASES), help="repeatable; default all")
    parser.add_argument("--blocks", type=int, default=10, help="timed passes over the requests")
    parser.add_argument("--parts", type=int, default=1, help=f"set-ups to draw requests from (at most {cases.SETUPS})")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if not 1 <= args.parts <= cases.SETUPS or args.blocks < 1:
        parser.error(f"--parts must lie in 1..{cases.SETUPS} and --blocks be at least 1")

    problems = []
    with tempfile.TemporaryDirectory(prefix="steppath-ab-") as tmp:
        tmp = Path(tmp)
        base = Side("base", export(args.base, tmp / "base"), "steppath_ab_base")
        head_dir = export(args.head, tmp / "head") if args.head else ROOT / "src" / "steppath"
        head = Side("head", head_dir, "steppath_ab_head")
        head_name = args.head or "working tree"
        print(f"base {args.base}, head {head_name}, seed {args.seed}, set-ups {args.parts}", flush=True)
        for name in args.workload or list(CASES):
            workdir = tmp / name
            workdir.mkdir()
            problems += run_workload(name, base, head, args, workdir)
    for line in problems[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
