"""Batch front end: decompose, verify, oracle queries, fixture generation.

Exit codes: 0 success, 1 generic failure (including verify/batch failures
and usage errors), 2 exception graph, 3 parity mismatch, 4 parse error,
5 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import gen, oracle
from .connected import Statement
from .errors import (
    DegbalError,
    ExceptionGraph,
    InternalStuck,
    ParityMismatch,
    ParseError,
)
from .formats import (
    ResultDocument,
    encode_graph6,
    format_rational,
    parse_edge_list,
    parse_graph6,
    parse_result_json,
    render_result,
)
from .general import (
    DecompositionResult,
    decompose_balanced,
    decompose_result,
    decompose_two_regular,
)
from .graphs import (
    DegreeProfile,
    EdgeSubset,
    Graph,
    connected_components,
    inferred_degree,
    profile_of,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_EXCEPTION = 2
EXIT_PARITY = 3
EXIT_PARSE = 4
EXIT_INTERNAL = 5


def _statement_arg(value: str):
    """'i'..'iv' | 'balanced' | 'two-regular' -> dispatch key."""
    key = value.strip().lower().replace("_", "-")
    romans = {"i": Statement.I, "ii": Statement.II, "iii": Statement.III, "iv": Statement.IV}
    if key in romans:
        return romans[key]
    if key in ("balanced", "two-regular"):
        return key
    raise argparse.ArgumentTypeError(
        f"statement must be i/ii/iii/iv/balanced/two-regular, got {value!r}"
    )


def _read_text(path: str) -> str:
    """Text of a file or stdin, read as UTF-8; an undecodable byte becomes
    U+FFFD, which no graph format accepts.  An in-memory stdin is text."""
    if path == "-":
        if hasattr(sys.stdin, "buffer"):
            return sys.stdin.buffer.read().decode("utf-8", errors="replace")
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return fh.read()


def _load_graphs(args) -> list[tuple[str, Graph]]:
    """(display name, graph) pairs from --named, a file, or stdin."""
    if args.named:
        return [(args.named.lower(), gen.named(args.named))]
    if not args.input:
        raise ParseError("no input: pass --named NAME or --input PATH (or '-')")
    text = _read_text(args.input)
    stripped = text.lstrip()
    if not stripped:
        raise ParseError("empty input")
    source = "stdin" if args.input == "-" else args.input
    if stripped[0].isdigit():
        try:
            return [(source, parse_edge_list(text))]
        except DegbalError as exc:
            raise ParseError(f"{source}: {exc}") from None
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append((f"{source}:{lineno}", parse_graph6(line)))
        except DegbalError as exc:
            raise ParseError(f"{source}:{lineno}: {exc}") from None
    return out


def _one_graph(args) -> tuple[str, Graph]:
    graphs = _load_graphs(args)
    if len(graphs) != 1:
        raise DegbalError(f"{args.command} expects exactly one graph")
    return graphs[0]


def _run_statement(g: Graph, statement) -> DecompositionResult:
    if statement == "balanced":
        return decompose_balanced(g)
    if statement == "two-regular":
        return decompose_two_regular(g)
    return decompose_result(g, statement)


def _document(name: str, g: Graph, res: DecompositionResult) -> ResultDocument:
    return ResultDocument(
        input_name=name,
        n=g.n,
        statement=res.statement,
        target_profile=res.target,
        achieved_profile=res.achieved,
        subgraph_edges=tuple(res.subset.edges(g)),
        max_deviation=res.max_deviation,
        branch_trace=res.branch_trace,
        fallback_used=res.fallback_used,
    )


def cmd_decompose(args) -> int:
    graphs = _load_graphs(args)
    first = True
    for name, g in graphs:
        res = _run_statement(g, args.statement)
        doc = _document(name, g, res)
        text = render_result(doc, args.format)
        if args.format == "tsv" and not first:
            text = text.split("\n", 1)[1]  # keep one header per stream
        print(text)
        first = False
    return EXIT_OK


def _profile_diffs(claimed: DegreeProfile, actual: DegreeProfile) -> list[str]:
    """Per-degree count differences; a degree beyond a profile counts 0."""

    def count(p: DegreeProfile, k: int) -> int:
        return p.count(k) if k <= p.degree else 0

    return [
        f"degree {k}: document {count(claimed, k)}, recomputed {count(actual, k)}"
        for k in range(max(claimed.degree, actual.degree), -1, -1)
        if count(claimed, k) != count(actual, k)
    ]


def cmd_verify(args) -> int:
    name, g = _one_graph(args)
    doc = parse_result_json(_read_text(args.result))
    problems = []
    if doc.n != g.n:
        problems.append(f"order mismatch: document n={doc.n}, graph n={g.n}")
    try:
        indices = [g.edge_index(u, v) for u, v in doc.subgraph_edges]
    except KeyError:
        problems.append("subgraph edge not present in host graph (SizeMismatch)")
    else:
        if len(set(indices)) != len(indices):
            problems.append("subgraph edge listed more than once")
    if not problems:
        achieved = profile_of(g, EdgeSubset.from_edges(g, doc.subgraph_edges))
        diffs = _profile_diffs(doc.achieved_profile, achieved)
        if diffs:
            problems.append("achieved profile mismatch: " + "; ".join(diffs))
        if _profile_diffs(doc.target_profile, achieved):
            problems.append(
                f"recomputed profile {achieved.counts} != target {doc.target_profile.counts}"
            )
        true_dev = achieved.max_deviation() if g.n else Fraction(0)
        if true_dev != doc.max_deviation:
            problems.append(
                f"deviation mismatch: document {format_rational(doc.max_deviation)},"
                f" recomputed {format_rational(true_dev)}"
            )
    if problems:
        for p in problems:
            print(f"FAIL: {p}")
        return EXIT_FAIL
    print(f"PASS: {name} n={g.n} statement={doc.statement}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    name, g = _one_graph(args)
    if args.profile:
        fields, size = args.profile.split(","), inferred_degree(g) + 1
        if len(fields) != size or not all(x.strip().isdecimal() for x in fields):
            raise ParseError(f"--profile needs {size} non-negative integers, got {args.profile!r}")
        counts = tuple(map(int, fields))
        witness = oracle.find_witness(g, DegreeProfile(counts), args.edge_cap)
        doc = {
            "input_name": name,
            "n": g.n,
            "profile": list(counts),
            "achievable": witness is not None,
            "witness": [list(e) for e in witness.edges(g)] if witness else None,
        }
    elif args.min_deviation:
        doc = {
            "input_name": name,
            "n": g.n,
            "min_max_deviation": format_rational(oracle.min_max_deviation(g, args.edge_cap)),
        }
    else:
        report = oracle.achievable_profiles(g, args.edge_cap)
        doc = {
            "input_name": name,
            "n": report.graph_order,
            "degree": report.degree,
            "edge_count": report.edge_count,
            "achievable_count": len(report.achievable),
            "achievable": [list(p.counts) for p in report.achievable],
            "min_max_deviation": format_rational(report.min_max_deviation),
            "witnesses": {
                ",".join(map(str, p.counts)): [list(e) for e in report.witness[p].edges(g)]
                for p in report.achievable
            },
        }
    print(json.dumps(doc, separators=(",", ":")))
    return EXIT_OK


def cmd_gen(args) -> int:
    graphs: list[Graph] = []
    if args.named:
        graphs.append(gen.named(args.named))
    elif args.cycles:
        graphs.append(gen.cycles([int(x) for x in args.cycles.split(",")]))
    elif args.union:
        graphs.append(gen.disjoint_union([gen.named(p) for p in args.union.split(",")]))
    elif args.random is not None:
        seed = args.seed
        produced = 0
        attempt = 0
        while produced < args.count:
            g = gen.random_cubic(args.random, seed + attempt)
            attempt += 1
            if args.connected and len(connected_components(g)) != 1:
                continue
            graphs.append(g)
            produced += 1
    else:
        print("gen needs one of --named/--random/--cycles/--union", file=sys.stderr)
        return EXIT_FAIL
    for g in graphs:
        print(encode_graph6(g))
    return EXIT_OK


def _batch_worker(task: tuple[str, Graph, Statement | str]) -> tuple[str, int, str, str, str, int]:
    name, g, statement = task
    start = time.perf_counter()
    try:
        res = _run_statement(g, statement)
    except ExceptionGraph as exc:
        status, dev, fallback = f"exception:{exc.kind.value}", "-", "-"
    except ParityMismatch:
        status, dev, fallback = "parity-mismatch", "-", "-"
    except DegbalError as exc:
        status, dev, fallback = f"failed:{type(exc).__name__}", "-", "-"
    else:
        status, dev = "ok", format_rational(res.max_deviation)
        fallback = "true" if res.fallback_used else "false"
    ms = int((time.perf_counter() - start) * 1000)
    return name, g.n, status, dev, fallback, ms


def cmd_batch(args) -> int:
    if args.jobs < 1:
        print("error: jobs must be >= 1", file=sys.stderr)
        return EXIT_FAIL
    try:
        statement = _statement_arg(args.statement_raw)
    except argparse.ArgumentTypeError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_FAIL
    tasks = [(name, g, statement) for name, g in _load_graphs(args)]
    if args.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_batch_worker, tasks, chunksize=8))
    else:
        rows = [_batch_worker(t) for t in tasks]

    print("name\tn\tstatement\tstatus\tdeviation\tfallback_used\tms")
    ok = exceptions = skipped = failures = 0
    for name, n, status, dev, fb, ms in rows:
        if status == "ok":
            ok += 1
        elif status.startswith("exception:"):
            exceptions += 1
        elif status == "parity-mismatch":
            skipped += 1
        else:
            failures += 1
        ms_text = "-" if args.no_timing else str(ms)
        print(f"{name}\t{n}\t{args.statement_raw}\t{status}\t{dev}\t{fb}\t{ms_text}")
    print(
        f"# total={len(rows)} ok={ok} exceptions={exceptions}"
        f" parity-skipped={skipped} failures={failures}"
    )
    return EXIT_FAIL if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degbal",
        description="Degree-balanced spanning subgraphs of cubic graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", "-i", help="graph6 lines or edge-list file; '-' for stdin")
        p.add_argument("--named", help="catalog graph name (k4, k33, prism, petersen, ...)")

    p = sub.add_parser("decompose", help="decompose graphs and emit result documents")
    add_input(p)
    p.add_argument("--statement", "-s", type=_statement_arg, default="balanced")
    p.add_argument("--format", "-f", choices=("json", "tsv"), default="json")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="check a result document against its graph")
    add_input(p)
    p.add_argument("--result", "-r", required=True, help="result JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive achievability report")
    add_input(p)
    p.add_argument("--profile", help="single profile query, e.g. 1,2,1,2")
    p.add_argument("--min-deviation", action="store_true")
    p.add_argument("--edge-cap", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="emit graph6 fixtures")
    p.add_argument("--named")
    p.add_argument("--random", type=int, metavar="N")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--cycles", help="comma-separated cycle lengths")
    p.add_argument("--union", help="comma-separated catalog names")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("batch", help="decompose graphs, one TSV summary row each")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--statement", "-s", dest="statement_raw", default="balanced")
    p.add_argument("--jobs", "-j", type=int, default=1)
    p.add_argument(
        "--no-timing",
        action="store_true",
        help="emit '-' in the ms column for byte-stable output",
    )
    p.set_defaults(func=cmd_batch, named=None)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_FAIL
    try:
        return args.func(args)
    except ExceptionGraph as exc:
        print(f"exception graph: {exc.kind.value}", file=sys.stderr)
        return EXIT_EXCEPTION
    except ParityMismatch as exc:
        print(f"parity mismatch: {exc}", file=sys.stderr)
        return EXIT_PARITY
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InternalStuck, AssertionError) as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, DegbalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
