"""Command-line front end.

Every subcommand prints line-delimited ``key=value`` records so output
is grep- and script-friendly; ``--csv`` exports the same records as CSV.
Randomized commands take explicit seeds.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import io as gio
from .batch import BATCH_ALGOS, _run_batch, build_query_graph
from .bench import DEFAULT_ROUNDS, DEFAULT_WARMUP, BenchConfig, _counters, run_bench, step_policy
from .graph import generate_uniform_weights, largest_component
from .ppsp import STRATEGIES, ppsp
from .workloads import PATTERNS, pattern_pairs, percentile_pairs


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (list, tuple, np.ndarray)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def emit(record: dict, out=None) -> None:
    line = " ".join(f"{k}={_fmt(v)}" for k, v in record.items())
    print(line, file=out or sys.stdout)


def write_csv(records: list[dict], path: str) -> None:
    keys = []
    for rec in records:
        for k in rec:
            if k not in keys:
                keys.append(k)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        for rec in records:
            writer.writerow({k: _fmt(v) for k, v in rec.items()})


def _load(args):
    graph = gio.load_graph(args.graph)
    if args.coords:
        coords, kind = gio.load_coords(args.coords)
        graph = graph.with_coords(coords, kind)
    return graph


def _delta_arg(raw: str):
    if raw == "auto":
        return raw
    try:
        return float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'auto', got {raw!r}") from None


def _out_pairs(pairs, args):
    if args.out:
        gio.save_pairs(pairs, args.out)
    else:
        for s, t in pairs:
            print(f"{s} {t}")


def cmd_convert(args):
    graph = gio.load_graph(args.graph)
    gio.save_graph(graph, args.out)
    emit({"record": "convert", "n": graph.n, "m": graph.m, "out": args.out})
    return 0


def cmd_gen_weights(args):
    graph = gio.load_graph(args.graph)
    fresh = generate_uniform_weights(graph, seed=args.seed, lo=args.lo, hi=args.hi)
    gio.save_graph(fresh, args.out)
    emit({"record": "gen-weights", "seed": args.seed, "lo": args.lo, "hi": args.hi, "out": args.out})
    return 0


def cmd_components(args):
    graph = gio.load_graph(args.graph)
    info = largest_component(graph)
    record = {
        "record": "components",
        "n": graph.n,
        "m": graph.m,
        "components": info.count,
        "largest": info.largest,
        "largest_size": info.largest_size,
    }
    emit(record)
    if args.csv:
        write_csv([record], args.csv)
    return 0


def cmd_gen_queries(args):
    graph = gio.load_graph(args.graph)
    pairs = percentile_pairs(graph, count=args.count, percentile=args.percentile, seed=args.seed)
    _out_pairs(pairs, args)
    return 0


def cmd_gen_batch(args):
    graph = gio.load_graph(args.graph)
    pairs = pattern_pairs(graph, pattern=args.pattern, size=args.size, seed=args.seed)
    _out_pairs(pairs, args)
    return 0


def cmd_query(args):
    graph = _load(args)
    policy = step_policy(graph, args.delta)
    answer = ppsp(graph, args.source, args.target, args.strategy, policy=policy)
    record = {
        "record": "query",
        "strategy": args.strategy,
        "source": args.source,
        "target": args.target,
        "delta": policy.delta,
        "min_copies": policy.min_copies,
        "distance": answer.distance,
        **_counters(answer),
    }
    if args.strategy in ("astar", "bidastar"):
        # 0 means the heuristic fell to zero and the search ran unguided
        record["coord_scale"] = graph.coord_scale
    emit(record)
    return 0


def cmd_batch(args):
    graph = gio.load_graph(args.graph)
    pairs = gio.load_pairs(args.queries)
    qg = build_query_graph(pairs, graph.n)
    policy = step_policy(graph, args.delta)
    ans = _run_batch(graph, qg, args.algo, policy)
    records = []
    for (s, t), d in zip(pairs, ans.distances):
        records.append(
            {
                "record": "batch-pair",
                "algo": args.algo,
                "source": int(s),
                "target": int(t),
                "distance": float(d),
            }
        )
    records.append(
        {
            "record": "batch",
            "algo": args.algo,
            "pairs": len(pairs),
            "delta": policy.delta,
            "min_copies": policy.min_copies,
            "runs": ans.runs,
            **_counters(ans),
        }
    )
    for rec in records:
        emit(rec)
    if args.csv:
        write_csv(records, args.csv)
    return 0


def cmd_bench(args):
    graph = _load(args)
    if args.queries:
        pairs = gio.load_pairs(args.queries)
    elif args.pattern:
        pairs = pattern_pairs(graph, args.pattern, args.size, args.seed)
    elif args.percentile is not None:
        pairs = percentile_pairs(graph, args.count, args.percentile, args.seed)
    elif args.source is not None and args.target is not None:
        pairs = np.asarray([[args.source, args.target]], dtype=np.int64)
    else:
        raise ValueError("give --queries, --pattern, --percentile, or --source/--target")
    cfg = BenchConfig(
        mode=args.mode,
        pairs=pairs,
        strategy=args.strategy,
        algo=args.algo,
        delta=args.delta,
        warmup=args.warmup,
        rounds=args.rounds,
        seed=args.seed,
    )
    report = run_bench(graph, cfg)
    for rec in report.records:
        emit(rec)
    if args.csv:
        write_csv(report.records, args.csv)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="steppath", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_arg(p):
        p.add_argument("--graph", "-g", required=True, help="graph file (text edge list or binary CSR)")

    p = sub.add_parser("convert", help="convert between the text and binary graph formats")
    graph_arg(p)
    p.add_argument("--out", "-o", required=True, help="a .txt path gets a text edge list, any other binary CSR")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("gen-weights", help="redraw uniform edge weights")
    graph_arg(p)
    p.add_argument("--out", "-o", required=True, help="a .txt path gets a text edge list, any other binary CSR")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--lo", type=float, default=1.0)
    p.add_argument("--hi", type=float, default=float(2**18))
    p.set_defaults(fn=cmd_gen_weights)

    p = sub.add_parser("components", help="connected component stats")
    graph_arg(p)
    p.add_argument("--csv")
    p.set_defaults(fn=cmd_components)

    p = sub.add_parser("gen-queries", help="sample percentile-ranked query pairs")
    graph_arg(p)
    p.add_argument("--percentile", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", "-o")
    p.set_defaults(fn=cmd_gen_queries)

    p = sub.add_parser("gen-batch", help="sample a patterned batch of query pairs")
    graph_arg(p)
    p.add_argument("--pattern", choices=PATTERNS, required=True)
    p.add_argument("--size", type=int, required=True, help="number of query endpoints")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", "-o")
    p.set_defaults(fn=cmd_gen_batch)

    p = sub.add_parser("query", help="answer one point-to-point query")
    graph_arg(p)
    p.add_argument("--strategy", choices=STRATEGIES, default="bids")
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument(
        "--delta",
        type=_delta_arg,
        default="auto",
        help="step width (no copy floor), or 'auto' for the default policy: max arc weight / 16, "
        "at least rho copies per step, rho starting at 128 and adapted to re-expansions (64-256)",
    )
    p.add_argument("--coords", help="coordinates file (for the A* strategies)")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("batch", help="answer a batch of queries")
    graph_arg(p)
    p.add_argument("--algo", choices=BATCH_ALGOS, default="multi")
    p.add_argument("--queries", required=True, help="file of 's t' lines")
    p.add_argument("--delta", type=_delta_arg, default="auto")
    p.add_argument("--csv")
    p.set_defaults(fn=cmd_batch)

    p = sub.add_parser("bench", help="time a workload under the warmup+rounds protocol")
    graph_arg(p)
    p.add_argument("--mode", choices=("query", "batch"), default="query")
    p.add_argument("--strategy", choices=STRATEGIES, default="bids")
    p.add_argument("--algo", choices=BATCH_ALGOS, default="multi")
    p.add_argument("--queries")
    p.add_argument("--pattern", choices=PATTERNS)
    p.add_argument("--size", type=int, default=6)
    p.add_argument("--percentile", type=float)
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--source", type=int)
    p.add_argument("--target", type=int)
    p.add_argument("--delta", type=_delta_arg, default="auto")
    p.add_argument("--warmup", type=int, default=DEFAULT_WARMUP)
    p.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coords")
    p.add_argument("--csv")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; a refused input is one error line and exit status 2.

    ``ValueError`` and ``OSError`` are refused inputs (a bad value, a
    missing or malformed file) and are reported in argparse's format; any
    other exception, such as ``BenchError``, is a fault and propagates.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
