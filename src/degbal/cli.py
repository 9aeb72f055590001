"""Batch front end: decompose, verify, oracle queries, fixture generation.

Exit codes: 0 success, 1 generic failure (including verify/batch failures
and usage errors), 2 exception graph, 3 parity mismatch, 4 parse error,
5 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter

from . import gen, oracle
from .errors import (
    DegbalError,
    ExceptionGraph,
    InternalStuck,
    ParityMismatch,
    ParseError,
)
from .formats import (
    STATEMENTS,
    ResultDocument,
    encode_graph6,
    parse_edge_list,
    parse_graph6,
    parse_result_json,
    render_result,
)
from .general import DecompositionResult, decompose, statement_target
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


def _statement_arg(value: str) -> str:
    """'i'..'iv' | 'balanced' | 'two-regular' (any case, '-' or '_') -> its document name."""
    name = value.strip().upper().replace("-", "_")
    if name in STATEMENTS:
        return name
    choices = "/".join(s.lower().replace("_", "-") for s in STATEMENTS)
    raise argparse.ArgumentTypeError(f"statement must be {choices}, got {value!r}")


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
    sign = stripped[0] in "+-"
    if stripped[sign:sign + 1].isdigit():  # an edge list opens with an optionally signed n
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
    for i, (name, g) in enumerate(_load_graphs(args)):
        doc = _document(name, g, decompose(g, args.statement))
        text = render_result(doc, args.format)
        if args.format == "tsv" and i:
            text = text.split("\n", 1)[1]  # keep one header per stream
        print(text)
    return EXIT_OK


def _profile_diffs(claimed: DegreeProfile, actual: DegreeProfile) -> list[str]:
    """Per-degree count differences; a degree beyond a profile counts 0."""
    return [
        f"degree {k}: document {claimed.count(k)}, recomputed {actual.count(k)}"
        for k in range(max(claimed.degree, actual.degree), -1, -1)
        if claimed.count(k) != actual.count(k)
    ]


def cmd_verify(args) -> int:
    name, g = _one_graph(args)
    doc = parse_result_json(_read_text(args.result))
    problems = []
    if doc.n != g.n:
        problems.append(f"order mismatch: document n={doc.n}, graph n={g.n}")
    try:
        subset = EdgeSubset.from_edges(g, doc.subgraph_edges)
    except KeyError:
        problems.append("subgraph edge not present in host graph (SizeMismatch)")
    else:
        if len(subset) != len(doc.subgraph_edges):
            problems.append("subgraph edge listed more than once")
    if not problems:
        achieved = profile_of(g, subset)
        diffs = _profile_diffs(doc.achieved_profile, achieved)
        if diffs:
            problems.append("achieved profile mismatch: " + "; ".join(diffs))
        if _profile_diffs(doc.target_profile, achieved):
            problems.append(
                f"recomputed profile {achieved.counts} != target {doc.target_profile.counts}"
            )
        true_dev = achieved.max_deviation()
        if true_dev != doc.max_deviation:
            problems.append(
                f"deviation mismatch: document {doc.max_deviation}, recomputed {true_dev}"
            )
        if not problems:
            expected = statement_target(g, doc.statement)  # refuses where decompose would
            if expected != doc.target_profile:
                problems.append(f"target is not statement {doc.statement}'s {expected.counts}")
    if problems:
        for p in problems:
            print(f"FAIL: {p}")
        return EXIT_FAIL
    print(f"PASS: {name} n={g.n} statement={doc.statement}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    name, g = _one_graph(args)
    doc = {"input_name": name, "n": g.n}
    if args.profile is not None:
        fields, size = args.profile.split(","), inferred_degree(g) + 1
        if len(fields) != size or not all(x.strip().isdecimal() for x in fields):
            raise ParseError(f"--profile needs {size} non-negative integers, got {args.profile!r}")
        counts = tuple(map(int, fields))
        witness = oracle.find_witness(g, DegreeProfile(counts), args.edge_cap)
        doc |= {
            "profile": list(counts),
            "achievable": witness is not None,
            "witness": [list(e) for e in witness.edges(g)] if witness is not None else None,
        }
    elif args.min_deviation:
        doc["min_max_deviation"] = str(oracle.min_max_deviation(g, args.edge_cap))
    else:
        report = oracle.achievable_profiles(g, args.edge_cap)
        doc |= {
            "degree": report.degree,
            "edge_count": report.edge_count,
            "achievable_count": len(report.achievable),
            "achievable": [list(p.counts) for p in report.achievable],
            "min_max_deviation": str(report.min_max_deviation),
            "witnesses": {
                ",".join(map(str, p.counts)): [list(e) for e in report.witness[p].edges(g)]
                for p in report.achievable
            },
        }
    print(json.dumps(doc, separators=(",", ":")))
    return EXIT_OK


def cmd_gen(args) -> int:
    graphs: list[Graph] = []
    if args.named is not None:
        graphs.append(gen.named(args.named))
    elif args.cycles is not None:
        lengths = []
        for field in args.cycles.split(","):
            try:
                lengths.append(int(field))
            except ValueError:
                raise ParseError(f"--cycles needs integer lengths, got field {field!r}") from None
        graphs.append(gen.cycles(lengths))
    elif args.union is not None:
        graphs.append(gen.disjoint_union([gen.named(p) for p in args.union.split(",")]))
    else:
        if args.count < 1:
            raise DegbalError("count must be >= 1")
        seed = args.seed
        while len(graphs) < args.count:
            g = gen.random_cubic(args.random, seed)
            seed += 1
            if not args.connected or len(connected_components(g)) == 1:
                graphs.append(g)
    for g in graphs:
        print(encode_graph6(g))
    return EXIT_OK


def _batch_worker(task: tuple[str, Graph, str]) -> tuple[str, int, str, str, str, str, int]:
    """One batch row; its status is a kind and a detail, '' where it has none."""
    name, g, statement = task
    start = time.perf_counter()
    detail, dev, fallback = "", "-", "-"
    try:
        res = decompose(g, statement)
    except ExceptionGraph as exc:
        kind, detail = "exception", exc.kind.value
    except ParityMismatch:
        kind = "parity-mismatch"
    except DegbalError as exc:
        kind, detail = "failed", type(exc).__name__
    else:
        kind, dev = "ok", str(res.max_deviation)
        fallback = "true" if res.fallback_used else "false"
    ms = int((time.perf_counter() - start) * 1000)
    return name, g.n, kind, detail, dev, fallback, ms


def cmd_batch(args) -> int:
    if args.jobs < 1:
        raise DegbalError("jobs must be >= 1")
    statement = _statement_arg(args.statement_raw)
    tasks = [(name, g, statement) for name, g in _load_graphs(args)]
    # The pool may start every worker at once, so ask for no idle ones.
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_batch_worker, tasks, chunksize=8))
    else:
        rows = [_batch_worker(t) for t in tasks]

    print("name\tn\tstatement\tstatus\tdeviation\tfallback_used\tms")
    for name, n, kind, detail, dev, fb, ms in rows:
        status = f"{kind}:{detail}" if detail else kind
        ms_text = "-" if args.no_timing else str(ms)
        print(f"{name}\t{n}\t{args.statement_raw}\t{status}\t{dev}\t{fb}\t{ms_text}")
    kinds = Counter(kind for _, _, kind, *_ in rows)
    print(
        f"# total={len(rows)} ok={kinds['ok']} exceptions={kinds['exception']}"
        f" parity-skipped={kinds['parity-mismatch']} failures={kinds['failed']}"
    )
    return EXIT_FAIL if kinds["failed"] else EXIT_OK


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
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
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--profile", help="single profile query, e.g. 1,2,1,2")
    mode.add_argument("--min-deviation", action="store_true")
    p.add_argument("--edge-cap", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="emit graph6 fixtures")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--named")
    source.add_argument("--random", type=int, metavar="N")
    source.add_argument("--cycles", help="comma-separated cycle lengths")
    source.add_argument("--union", help="comma-separated catalog names")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--connected", action="store_true")
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
    return parser, sub.choices


_PARSER, _COMMANDS = build_parser()


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """What _PARSER.parse_args(argv) returns, in one pass when argv[0]'s subparser
    takes every other word; any other argv goes to _PARSER, for its exact text."""
    sub = _COMMANDS.get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
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
    except (ValueError, DegbalError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
