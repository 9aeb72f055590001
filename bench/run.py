"""degbal benchmark: seeded workloads, checked outputs, one JSON line of metrics.

    python3 bench/run.py --workload connected --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; degbal is imported from ``src/``.  A run
imports degbal and builds the workload's inputs (set-up, timed from process
start; the median over this process and SETUPS - 1 fresh ones is reported),
then executes its fixed operation list for a whole number of rounds, in this
one process, and checks every output with ``check.py``.
Times are in reference seconds (see ``clock.py``).  The last line of
standard output is the result: end-to-end metrics with ``--trace 0``,
per-layer metrics from spans around degbal's functions with ``--trace 1``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUPS = 3

# Reference seconds one round of each workload takes; a run does
# round(--seconds / this) rounds, at least one, whatever the machine's speed.
ROUND_SECONDS = {"connected": 9.5, "corpus": 2.4, "components": 5.4, "oracle": 11.5}


def parse_args():
    parser = argparse.ArgumentParser(description="degbal benchmark")
    parser.add_argument("--workload", choices=sorted(ROUND_SECONDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args()


def setup_in_child(args) -> float:
    """setup_s of a fresh process that imports degbal, builds the inputs and exits."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def execute(op, cli, general, oracle):
    """One operation, as a user of the library or the CLI would call it."""
    if op.kind == "balanced":
        return general.decompose_balanced(op.graph)
    if op.kind == "statement":
        return general.decompose_result(op.graph, op.arg)
    if op.kind == "two_regular":
        return general.decompose_two_regular(op.graph)
    if op.kind == "profiles":
        return oracle.achievable_profiles(op.graph)
    if op.kind == "witness":
        return oracle.find_witness(op.graph, op.arg)
    stdin, sys.stdin = sys.stdin, io.StringIO(op.arg + "\n")
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["decompose", "--input", "-"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def problems_of(op, out, reports, check) -> list[str]:
    """The checker's verdict on one operation's output."""
    if op.kind == "cli":
        code, text = out
        lines = text.splitlines()
        if code != 0 or len(lines) != 1:
            return [f"exit code {code} with {len(lines)} output lines"]
        return check.document_problems(op.arg, lines[0])
    host = sorted(op.graph.edges)
    if op.kind == "profiles":
        reports[id(op.graph)] = out
        if (out.graph_order, out.edge_count) != (op.n, len(host)):
            return ["report is about another graph"]
        return check.report_problems(
            op.n,
            host,
            [p.counts for p in out.achievable],
            {p.counts: w.bits for p, w in out.witness.items()},
            out.min_max_deviation,
        )
    if op.kind == "witness":
        report = reports.get(id(op.graph))
        if report is None:
            return ["no report of this graph to check the witness against"]
        if op.arg.counts not in {p.counts for p in report.achievable}:
            return [] if out is None else ["witness for an unachievable profile"]
        if out is None:
            return [f"no witness for achievable {op.arg.counts}"]
        if check.profile(op.n, 3, check.subset_edges(host, out.bits)) != op.arg.counts:
            return ["witness has another profile"]
        if out != report.witness[op.arg]:
            return ["witness is not the report's first one"]
        return []
    statement = {"balanced": "BALANCED", "two_regular": "TWO_REGULAR"}.get(op.kind)
    statement = statement or op.arg.value
    if out.statement != statement:
        return [f"result is for statement {out.statement}, asked for {statement}"]
    return check.decomposition_problems(
        op.n,
        host,
        check.subset_edges(host, out.subset.bits),
        statement,
        reported_achieved=out.achieved.counts,
        reported_target=out.target.counts,
        reported_deviation=out.max_deviation,
    )


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(1, min(99, int(100 - 1000 / samples)))


def layer_metrics(tracer) -> dict:
    run, setup = tracer.totals("bench.op"), tracer.totals("bench.setup")
    counts = tracer.counts

    def span(name, field="s", table=run):
        return table.get(name, {}).get(field, 0)

    exhaustive_s = counts["oracle.exhaustive_ns"] / 1e9
    values = {
        "formats.parse_graph6.s": (span("formats.parse_graph6"), "s"),
        "formats.encode_graph6.s": (span("formats.encode_graph6", table=setup), "s"),
        "formats.render_result.s": (span("formats.render_result"), "s"),
        "formats.input_bytes": (counts["formats.input_bytes"], "count"),
        "graphs.connected_components.calls": (span("graphs.connected_components", "calls"), "count"),
        "graphs.connected_components.s": (span("graphs.connected_components"), "s"),
        "graphs.classify_small.calls": (span("graphs.classify_small", "calls"), "count"),
        "general.detect_exception.calls": (span("general.detect_exception", "calls"), "count"),
        "graphs.shortest_cycle.s": (span("graphs.shortest_cycle"), "s"),
        "graphs.induced_on.calls": (span("graphs.induced_on", "calls"), "count"),
        "graphs.induced_on.s": (span("graphs.induced_on"), "s"),
        "graphs.profile_of.s": (span("graphs.profile_of"), "s"),
        "connected.stage1_grow_v3.s": (span("connected.stage1_grow_v3"), "s"),
        "connected.stage2_fill_v2.s": (span("connected.stage2_fill_v2"), "s"),
        "connected.stage3_fill_v1.s": (span("connected.stage3_fill_v1"), "s"),
        "connected.rules.R1": (counts["connected.rules.R1"], "count"),
        "connected.rules.R2": (counts["connected.rules.R2"], "count"),
        "connected.rules.R3": (counts["connected.rules.R3"], "count"),
        "connected.decompose_connected_traced.calls": (
            span("connected.decompose_connected_traced", "calls"),
            "count",
        ),
        "connected.decompose_connected_traced.s": (span("connected.decompose_connected_traced"), "s"),
        "connected.fallback_search.calls": (span("connected.fallback_search", "calls"), "count"),
        "connected.special_14_construction.calls": (
            span("connected.special_14_construction", "calls"),
            "count",
        ),
        "general.decompose_traced.calls": (span("general.decompose_traced", "calls"), "count"),
        "general.decompose_traced.self_s": (span("general.decompose_traced", "self_s"), "s"),
        "general.branch_trace_bytes": (counts["general.branch_trace_bytes"], "count"),
        "general.decompose_two_regular.s": (span("general.decompose_two_regular"), "s"),
        "oracle.achievable_profiles.s": (span("oracle.achievable_profiles"), "s"),
        "oracle.find_witness.s": (span("oracle.find_witness"), "s"),
        "oracle.subsets_per_s": (
            counts["oracle.exhaustive_subsets"] / exhaustive_s if exhaustive_s else 0,
            "1/s",
        ),
        "gen.random_cubic.s": (span("gen.random_cubic", table=setup), "s"),
        "cli.main.self_s": (span("cli.main", "self_s"), "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def process_age_s() -> float:
    """Wall seconds since this process started (since run.py began, without /proc)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, IndexError, ValueError):
        age = -1.0
    return age if 0 < age < 600 else time.perf_counter() - START


def main() -> int:
    args = parse_args()
    if not (SRC / "degbal" / "__init__.py").is_file():
        print(f"no degbal sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from degbal import cli, general, oracle

    from degbal.errors import InternalStuck

    import check
    import clock
    import inputs
    import spans

    # Set-up is timed from process start to the end of the input build.  This
    # process is one sample; SETUPS - 1 fresh processes that stop there give
    # the others, and setup_s is their median.  The oracle's time is spent in
    # NumPy, the other workloads' in pure Python (see clock.py).
    ref = clock.ReferenceClock(clock.NumpyKernel() if args.workload == "oracle" else None)
    tracer = spans.Tracer() if args.trace else None
    root = tracer.root if tracer else lambda name: contextlib.nullcontext()
    saved = spans.install(tracer) if tracer else []
    with root("bench.setup"):
        ops = inputs.build(args.workload, args.seed, OUT)
    setup_s = ref.scale(process_age_s())
    if args.setup_only:
        print(setup_s)
        return 0
    if not tracer:
        setup_s = statistics.median([setup_s] + [setup_in_child(args) for _ in range(SETUPS - 1)])
    setup_wall_s = ref.wall_s

    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    latencies_s: list[float] = []
    vertices = failed = 0
    timed_s = 0.0
    problems: list[str] = []
    first: dict[int, object] = {}
    for r in range(rounds):
        for i, op in enumerate(ops):
            started = time.perf_counter()
            try:
                with root("bench.op"):
                    out = execute(op, cli, general, oracle)
            except Exception as exc:  # the op boundary: count it, keep running
                timed_s += ref.scale(time.perf_counter() - started)
                failed += 1
                if not (op.expect_fail and isinstance(exc, InternalStuck)):
                    problems.append(f"{op.label} failed: {exc!r}")
                    traceback.print_exc(file=sys.stderr)
                continue
            elapsed = ref.scale(time.perf_counter() - started)
            timed_s += elapsed
            latencies_s.append(elapsed)
            vertices += op.n
            if r == 0:
                first[i] = out
            elif out != first.get(i):
                problems.append(f"{op.label}: round {r} output differs from round 0")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if saved:
        spans.uninstall(saved)

    reports: dict = {}
    for i, out in first.items():
        problems += [f"{ops[i].label}: {p}" for p in problems_of(ops[i], out, reports, check)]
    problems += [f"checker self-test: {p}" for p in check.self_test()]
    for line in problems[:20]:
        print(f"PROBLEM {line}", file=sys.stderr)

    attempted = rounds * len(ops)
    q = tail_percentile(len(latencies_s))
    print(
        f"workload={args.workload} seed={args.seed} rounds={rounds} ops={attempted}"
        f" failed={failed} timed_s={timed_s:.3f} setup_s={setup_s:.3f} tail=p{q}"
        f" timed_wall_s={ref.wall_s - setup_wall_s:.3f} kernel_wall_s={ref.kernel_s:.3f}"
        f" slowdown={ref.wall_s / ref.reference_s:.3f} trace={args.trace}"
    )
    if tracer:
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        metrics = layer_metrics(tracer)
    else:
        ms = [x * 1e3 for x in latencies_s]
        cuts = statistics.quantiles(ms, n=100, method="inclusive")
        metrics = {
            "vertices_per_s": {"value": vertices / timed_s, "unit": "1/s"},
            "latency_ms.p50": {"value": statistics.median(ms), "unit": "ms"},
            "latency_ms.tail": {"value": cuts[q - 1], "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
