"""Command-line front door for every capability, with scriptable outputs.

Exit status: 0 success/verified, 1 checks failed or an expectation flag was
contradicted, 2 usage error, 3 budget exhausted. All JSON documents carry a
top-level ``schemaVersion`` and never include wall-clock times, so identical
invocations produce byte-identical output at any worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
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


def _emit_json(payload: dict) -> None:
    print(json.dumps({"schemaVersion": SCHEMA_VERSION, **payload}, indent=2))


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
    if args.order is not None:
        record = defect_record(args.d, args.diameter, args.order)
        if args.json:
            _emit_json(
                {
                    "d": record.d,
                    "diameter": record.diam,
                    "mooreBound": record.moore_bound,
                    "order": record.order,
                    "defect": record.defect,
                }
            )
        else:
            print(f"Moore bound M^b({args.d},{args.diameter}) = {bound}")
            print(f"order {record.order} has defect {record.defect}")
    else:
        if args.json:
            _emit_json({"d": args.d, "diameter": args.diameter, "mooreBound": bound})
        else:
            print(f"Moore bound M^b({args.d},{args.diameter}) = {bound}")
    return EXIT_OK


def cmd_build(args: argparse.Namespace) -> int:
    spec = parse_spec(args.spec)
    g = build_phi_spec(spec)
    verdict = regularity_check(g)
    if args.out:
        write_adjacency(g, args.out)
    if args.json:
        _emit_json(
            {
                "spec": format_spec(spec),
                "nLeft": g.n_left,
                "nRight": g.n_right,
                "order": g.order,
                "degree": verdict.degree,
                "written": args.out,
            }
        )
    else:
        print(f"{format_spec(spec)} -> {g.order} vertices, {verdict.degree}-regular")
        if args.out:
            print(f"adjacency written to {args.out}")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    result = check_graph(_load_graph(args))
    if args.json:
        _emit_json(result.to_json_dict())
    else:
        print(result.to_text())
    failures = result.failures(
        diameter=args.expect_diameter,
        girth=args.expect_girth,
        degree=args.expect_degree,
        defect=args.expect_defect,
    )
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    mode = "find-first" if args.first else "find-all"
    prefix = tuple(int(tok) for tok in args.prefix.split(",")) if args.prefix else ()
    task = SearchTask(d=args.d, m=args.m, mode=mode, prefix=prefix, node_budget=args.budget)
    report = search_offsets(task, workers=args.workers)
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        print(report.to_text())
    if report.counters.budget_stops:
        return EXIT_BUDGET
    if args.expect_none and report.solutions:
        print("FAILED: expected no solutions", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if args.expect_some and not report.solutions:
        print("FAILED: expected at least one solution", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_max_m(args: argparse.Namespace) -> int:
    low = args.low if args.low is not None else 5
    high = args.high if args.high is not None else max_m_upper_bound(args.d)
    result = max_m(args.d, low, high, node_budget=args.budget, workers=args.workers)
    if args.json:
        _emit_json(result.to_json_dict())
    else:
        print(result.to_text())
    return EXIT_OK if result.conclusive else EXIT_BUDGET


def cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    dec = classify_and_decompose(g)
    report = check_observations(g, dec, args.d)
    if args.json:
        _emit_json({**dec.to_dict(), **report.to_dict()})
    else:
        print(
            f"cycles: {len(dec.labels)} total; labels 2-path={len(dec.s2)}"
            f" 1-path={len(dec.s1)} 0-path={len(dec.s0)}"
        )
        for comp in dec.gamma2:
            tag = "theta" if comp.recognized else "unclassified"
            print(f"  2-path component ({len(comp.vertices)} vertices): {tag}")
        for comp in dec.gamma1:
            tag = f"circulant m'={comp.m_prime}" if comp.recognized else "unclassified"
            print(f"  1-path component ({len(comp.vertices)} vertices): {tag}")
        if dec.gamma0_vertices:
            print(f"  0-path union: {len(dec.gamma0_vertices)} vertices")
        if dec.residue:
            print(f"  off-cycle vertices: {len(dec.residue)}")
        for entry in report.entries:
            line = f"  [{entry.status}] {entry.name}"
            if entry.status == "fail":
                line += f"  witness={entry.witness}"
            print(line)
    return EXIT_CHECK_FAILED if report.failures else EXIT_OK


def cmd_iso(args: argparse.Namespace) -> int:
    result = check_isomorphism(_read_graph_file(args.a), _read_graph_file(args.b))
    if args.json:
        _emit_json(result.to_json_dict())
    else:
        print(result.to_text())
    failures = result.failures(isomorphic=args.expect_isomorphic, non_isomorphic=args.expect_non_isomorphic)
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    report = nonexistence_case_audit(args.d, node_budget=args.budget, workers=args.workers)
    if args.json:
        _emit_json(report.to_dict())
    else:
        print(report.to_text())
    return EXIT_OK if report.verdict == "nonexistence-confirmed" else EXIT_CHECK_FAILED


def cmd_verify_known(args: argparse.Namespace) -> int:
    failures: list[str] = []
    graphs = []
    for text in witnesses.KNOWN_DEGREE11_SPECS:
        spec = parse_spec(text)
        g = build_phi_spec(spec)
        graphs.append((text, g))
        result = check_graph(g)
        checks = [
            ("order", result.order == witnesses.DEGREE11_ORDER),
            ("regularity", result.regularity.degree == witnesses.DEGREE11_DEGREE),
            ("diameter", result.diameter == 3),
            (
                "defect",
                result.defect is not None and result.defect.defect == witnesses.DEGREE11_DEFECT,
            ),
            ("girth", result.girth == 4),
        ]
        for name, ok in checks:
            status = "ok" if ok else "FAILED"
            print(f"{text}: {name} {status}")
            if not ok:
                failures.append(f"{text}: {name}")
    for a in range(len(graphs)):
        for b in range(a + 1, len(graphs)):
            ok = not check_isomorphism(graphs[a][1], graphs[b][1]).isomorphic
            status = "ok" if ok else "FAILED"
            print(f"pair ({a + 1}, {b + 1}): non-isomorphism {status}")
            if not ok:
                failures.append(f"pair ({a + 1}, {b + 1}): graphs are isomorphic")
    if args.export:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for text, g in graphs:
            spec = parse_spec(text)
            name = f"phi{spec.m}_" + "_".join(str(a) for a in spec.offsets) + ".adj"
            write_adjacency(g, out_dir / name)
            print(f"exported {out_dir / name}")
    if failures:
        print("verification FAILED:", "; ".join(failures), file=sys.stderr)
        return EXIT_CHECK_FAILED
    print("all witness checks passed")
    return EXIT_OK


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

    p = sub.add_parser("bound", help="bipartite Moore bound and defect arithmetic")
    p.add_argument("d", type=_degree)
    p.add_argument("diameter", type=_diam)
    p.add_argument("--order", type=int, help="also report the defect of this order")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("build", help="build a graph from a spec string")
    p.add_argument("--spec", required=True, help='e.g. "phi 95: 4,7,16,27,38,52,62,81"')
    p.add_argument("--out", help="write the adjacency-list file here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("check", help="diameter, girth, regularity, defect of a graph")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", help="spec string to build and check")
    src.add_argument("--in", dest="infile", help="adjacency-list or edge-list file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--expect-diameter", type=int)
    p.add_argument("--expect-girth", type=int)
    p.add_argument("--expect-degree", type=int)
    p.add_argument("--expect-defect", type=int)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("search", help="enumerate full-coverage offset tuples")
    p.add_argument("--d", type=_degree, required=True)
    p.add_argument("--m", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="find all solutions (default)")
    mode.add_argument("--first", action="store_true", help="stop at the first solution in shard order")
    p.add_argument("--workers", type=_workers, default=os.environ.get("BIPMOORE_WORKERS", "1"))
    p.add_argument("--budget", type=int, help="node budget, split across shards")
    p.add_argument("--prefix", help="comma-separated fixed leading offsets")
    p.add_argument("--json", action="store_true")
    p.add_argument("--expect-none", action="store_true")
    p.add_argument("--expect-some", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("max-m", help="largest modulus admitting a witness")
    p.add_argument("--d", type=_degree, required=True)
    p.add_argument("--from", dest="low", type=int)
    p.add_argument("--to", dest="high", type=int)
    p.add_argument("--budget", type=int, help="node budget per modulus, split across shards")
    p.add_argument("--workers", type=_workers, default=os.environ.get("BIPMOORE_WORKERS", "1"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_max_m)

    p = sub.add_parser("analyze", help="cycle decomposition and structural observations")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--d", type=_degree, required=True, help="claimed regular degree")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("iso", help="exact isomorphism test with witness mapping")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--expect-isomorphic", action="store_true")
    p.add_argument("--expect-non-isomorphic", action="store_true")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("audit", help="defect-4 nonexistence case audit")
    p.add_argument("--d", type=_degree, default=7)
    p.add_argument("--budget", type=int)
    p.add_argument("--workers", type=_workers, default=os.environ.get("BIPMOORE_WORKERS", "1"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("verify-known", help="verify the embedded witness fixtures")
    p.add_argument("--export", action="store_true", help="write adjacency-list files")
    p.add_argument("--out-dir", default=".", help="directory for --export (default: .)")
    p.set_defaults(func=cmd_verify_known)

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
