"""Command-line front door for every capability, with scriptable outputs.

Exit status: 0 success/verified, 1 checks failed or an expectation flag was
contradicted, 2 usage error, 3 budget exhausted. Exit 3 wins: a result that
a budget stopped judges no expectation, since a partial result cannot
contradict one. Every exit 1 names what failed in ``FAILED:`` lines on
stderr. All JSON documents carry a top-level ``schemaVersion`` and never
include wall-clock times, so identical invocations produce byte-identical
output at any worker count.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Sequence
from itertools import combinations
from pathlib import Path

from . import witnesses
from .bounds import defect as defect_record
from .bounds import max_m_upper_bound, moore_bound
from .caseanalysis import nonexistence_case_audit
from .circulant import build_phi_spec, format_spec, parse_spec
from .graphs import (
    BipartiteGraph,
    check_graph,
    parse_adjacency,
    parse_edge_list,
    regularity_check,
    write_adjacency,
)
from .search import SearchTask, max_m, search_offsets
from .structure import (
    BudgetError,
    check_isomorphism,
    check_observations,
    classify_and_decompose,
)

SCHEMA_VERSION = 1
MAX_DEGREE = 64
MAX_DIAMETER = 16

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _finish(
    args: argparse.Namespace, payload: Callable[[], dict], text: Callable[[], str],
    failures: Sequence[str] = (), budget: bool = False,
) -> int:
    """Print the result as JSON or text and return the exit status."""
    if args.json:
        print(json.dumps({"schemaVersion": SCHEMA_VERSION, **payload()}, indent=2))
    else:
        print(text())
    if budget:
        return EXIT_BUDGET
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _read_graph_file(path: str | Path) -> BipartiteGraph:
    """Accept either supported file format, trying the adjacency list first."""
    text = Path(path).read_text(encoding="ascii")
    try:
        return parse_adjacency(text)
    except ValueError as adjacency_error:
        try:
            return parse_edge_list(text)
        except ValueError as edge_error:
            raise ValueError(
                f"{path}: not an adjacency list ({adjacency_error})"
                f" nor an edge list ({edge_error})"
            ) from None


def _load_graph(args: argparse.Namespace) -> BipartiteGraph:
    if getattr(args, "spec", None):
        return build_phi_spec(parse_spec(args.spec))
    return _read_graph_file(args.infile)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_bound(args: argparse.Namespace) -> int:
    bound = moore_bound(args.d, args.diameter)
    payload = {"d": args.d, "diameter": args.diameter, "mooreBound": bound}
    lines = [f"Moore bound M^b({args.d},{args.diameter}) = {bound}"]
    if args.order is not None:
        record = defect_record(args.d, args.diameter, args.order)
        payload.update(order=record.order, defect=record.defect)
        lines.append(f"order {record.order} has defect {record.defect}")
    return _finish(args, lambda: payload, lambda: "\n".join(lines))


def cmd_build(args: argparse.Namespace) -> int:
    spec = parse_spec(args.spec)
    g = build_phi_spec(spec)
    degree = regularity_check(g).degree
    text = f"{format_spec(spec)} -> {g.order} vertices, {degree}-regular"
    if args.out:
        write_adjacency(g, args.out)
        text += f"\nadjacency written to {args.out}"
    payload = {
        "spec": format_spec(spec),
        "nLeft": g.n_left,
        "nRight": g.n_right,
        "order": g.order,
        "degree": degree,
        "written": args.out,
    }
    return _finish(args, lambda: payload, lambda: text)


def cmd_check(args: argparse.Namespace) -> int:
    result = check_graph(_load_graph(args))
    failures = result.failures(
        diameter=args.expect_diameter,
        girth=args.expect_girth,
        degree=args.expect_degree,
        defect=args.expect_defect,
    )
    return _finish(args, result.to_json_dict, result.to_text, failures)


def cmd_search(args: argparse.Namespace) -> int:
    mode = "find-first" if args.first else "find-all"
    prefix = tuple(int(tok) for tok in args.prefix.split(",")) if args.prefix else ()
    task = SearchTask(d=args.d, m=args.m, mode=mode, prefix=prefix, node_budget=args.budget)
    report = search_offsets(task, workers=args.workers)
    failures = []
    if args.expect_none and report.solutions:
        failures.append("expected no solutions")
    if args.expect_some and not report.solutions:
        failures.append("expected at least one solution")
    budget = report.counters.budget_stops > 0
    return _finish(args, report.to_json_dict, report.to_text, failures, budget=budget)


def cmd_max_m(args: argparse.Namespace) -> int:
    low = args.low if args.low is not None else 5
    high = args.high if args.high is not None else max_m_upper_bound(args.d)
    result = max_m(args.d, low, high, node_budget=args.budget, workers=args.workers)
    return _finish(args, result.to_json_dict, result.to_text, budget=not result.conclusive)


def cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    dec = classify_and_decompose(g)
    report = check_observations(g, dec, args.d)

    def text() -> str:
        lines = [
            f"cycles: {len(dec.labels)} total; labels 2-path={len(dec.s2)}"
            f" 1-path={len(dec.s1)} 0-path={len(dec.s0)}"
        ]
        for comp in dec.gamma2:
            tag = "theta" if comp.recognized else "unclassified"
            lines.append(f"  2-path component ({len(comp.vertices)} vertices): {tag}")
        for comp in dec.gamma1:
            tag = f"circulant m'={comp.m_prime}" if comp.recognized else "unclassified"
            lines.append(f"  1-path component ({len(comp.vertices)} vertices): {tag}")
        if dec.v0:
            lines.append(f"  0-path union: {len(dec.v0)} vertices")
        if dec.residue:
            lines.append(f"  off-cycle vertices: {len(dec.residue)}")
        for entry in report.entries:
            witness = f"  witness={entry.witness}" if entry.status == "fail" else ""
            lines.append(f"  [{entry.status}] {entry.name}{witness}")
        return "\n".join(lines)

    failures = [entry.name for entry in report.failures]
    return _finish(args, lambda: {**dec.to_dict(), **report.to_dict()}, text, failures)


def cmd_iso(args: argparse.Namespace) -> int:
    result = check_isomorphism(_read_graph_file(args.a), _read_graph_file(args.b))
    failures = result.failures(isomorphic=args.expect_isomorphic, non_isomorphic=args.expect_non_isomorphic)
    return _finish(args, result.to_json_dict, result.to_text, failures)


def cmd_audit(args: argparse.Namespace) -> int:
    report = nonexistence_case_audit(args.d, node_budget=args.budget, workers=args.workers)
    failures = [] if report.verdict == "nonexistence-confirmed" else [f"verdict {report.verdict}"]
    return _finish(args, report.to_dict, report.to_text, failures, budget=not report.exhausted)


def cmd_verify_known(args: argparse.Namespace) -> int:
    texts = witnesses.KNOWN_DEGREE11_SPECS
    graphs = [build_phi_spec(parse_spec(text)) for text in texts]
    expected = dict(diameter=3, girth=4, degree=witnesses.DEGREE11_DEGREE, defect=witnesses.DEGREE11_DEFECT)
    lines, failures = [], []
    for text, g in zip(texts, graphs):
        result = check_graph(g)
        lines += [text, *(f"  {line}" for line in result.to_text().splitlines())]
        failures += [f"{text}: {failure}" for failure in result.failures(**expected)]
    for (a, g1), (b, g2) in combinations(enumerate(graphs, 1), 2):
        result = check_isomorphism(g1, g2)
        lines.append(f"pair ({a}, {b}): {result.to_text()}")
        failures += [f"pair ({a}, {b}): {failure}" for failure in result.failures(non_isomorphic=True)]
    if args.export is not None:
        out_dir = Path(args.export)
        out_dir.mkdir(parents=True, exist_ok=True)
        for text, g in zip(texts, graphs):
            spec = parse_spec(text)
            name = f"phi{spec.m}_" + "_".join(str(a) for a in spec.offsets) + ".adj"
            write_adjacency(g, out_dir / name)
            lines.append(f"exported {out_dir / name}")
    return _finish(args, dict, lambda: "\n".join(lines), failures)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _degree(value: str) -> int:
    d = int(value)
    if not 2 <= d <= MAX_DEGREE:
        raise argparse.ArgumentTypeError(f"degree must lie in [2, {MAX_DEGREE}]")
    return d


def _workers(value: str) -> int:
    workers = int(value)
    if workers < 1:
        raise argparse.ArgumentTypeError("workers must be a positive integer")
    return workers


def _diam(value: str) -> int:
    diam = int(value)
    if not 2 <= diam <= MAX_DIAMETER:
        raise argparse.ArgumentTypeError(f"diameter must lie in [2, {MAX_DIAMETER}]")
    return diam


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipmoore",
        description="Bipartite diameter-3 graphs near the Moore bound:"
        " build, search, certify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true")
    workers_flag = argparse.ArgumentParser(add_help=False)
    workers_flag.add_argument("--workers", type=_workers, default=1)

    p = sub.add_parser("bound", parents=[json_flag], help="bipartite Moore bound and defect arithmetic")
    p.add_argument("d", type=_degree)
    p.add_argument("diameter", type=_diam)
    p.add_argument("--order", type=int, help="also report the defect of this order")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("build", parents=[json_flag], help="build a graph from a spec string")
    p.add_argument("--spec", required=True, help='e.g. "phi 95: 4,7,16,27,38,52,62,81"')
    p.add_argument("--out", help="write the adjacency-list file here")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("check", parents=[json_flag], help="diameter, girth, regularity, defect of a graph")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", help="spec string to build and check")
    src.add_argument("--in", dest="infile", help="adjacency-list or edge-list file")
    p.add_argument("--expect-diameter", type=int)
    p.add_argument("--expect-girth", type=int)
    p.add_argument("--expect-degree", type=int)
    p.add_argument("--expect-defect", type=int)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("search", parents=[json_flag, workers_flag], help="enumerate full-coverage offset tuples")
    p.add_argument("--d", type=_degree, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--first", action="store_true", help="stop at the first solution in shard order")
    p.add_argument("--budget", type=int, help="node budget, split across shards")
    p.add_argument("--prefix", help="comma-separated fixed leading offsets")
    p.add_argument("--expect-none", action="store_true")
    p.add_argument("--expect-some", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("max-m", parents=[json_flag, workers_flag], help="largest modulus admitting a witness")
    p.add_argument("--d", type=_degree, required=True)
    p.add_argument("--from", dest="low", type=int)
    p.add_argument("--to", dest="high", type=int)
    p.add_argument("--budget", type=int, help="node budget per modulus, split across shards")
    p.set_defaults(func=cmd_max_m)

    p = sub.add_parser("analyze", parents=[json_flag], help="cycle decomposition and structural observations")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--d", type=_degree, required=True, help="claimed regular degree")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("iso", parents=[json_flag], help="exact isomorphism test with witness mapping")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--expect-isomorphic", action="store_true")
    p.add_argument("--expect-non-isomorphic", action="store_true")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("audit", parents=[json_flag, workers_flag], help="defect-4 nonexistence case audit")
    p.add_argument("--d", type=_degree, default=7)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("verify-known", help="verify the embedded witness fixtures")
    p.add_argument(
        "--export", nargs="?", const=".", metavar="DIR",
        help="write adjacency-list files to DIR (default: .)",
    )
    p.set_defaults(func=cmd_verify_known, json=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
