#!/usr/bin/env python3
"""Time decompose at n = 10^3, 10^4 and 10^5 and record the rows in BENCH_ladder.json.

    python3 scripts/ladder.py --label change [--src DIR] [--out PATH]

The five families are tests/test_scaling.py's FAMILIES: connected
random_cubic(n, 1), GP(n/2, 7), Petersen unions, K4/K3,3 unions (all under
BALANCED) and C3/C5 unions (under TWO_REGULAR).  Each row records, apart
from the set-up that builds its graph:

- decompose_s: the best of three decompose calls in process, each on a
  fresh Graph of the same edges, in process CPU seconds;
- peak_bytes_per_vertex: tracemalloc's peak over one such call, per vertex;
- cli_decompose_s and cli_verify_s: the CPU seconds of one `degbal
  decompose` process on an edge-list file, and of one `degbal verify`
  process on that file and the document.

--src names the src/ directory to import degbal from (default: this
checkout's), so one machine can time two checkouts in alternation.  Each
run is appended to the output file under its label, and the file's summary,
the median of each column over a label's runs, is recomputed.  The summary
also gives each family's per-vertex decompose_s ratio from 10^4 to 10^5,
against the 1.37x gate (2.2x per doubling of n).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (1000, 10000, 100000)
REPEATS = 3
GATE = 1.37
CLI = "import sys; from degbal.cli import main; sys.exit(main(sys.argv[1:]))"
COLUMNS = ("setup_s", "decompose_s", "peak_bytes_per_vertex", "cli_decompose_s", "cli_verify_s")


def child_cpu_s(argv, src, stdout=None) -> float:
    """CPU seconds of one degbal CLI process, which must exit 0."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", CLI, *argv], env=env, stdout=stdout, check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def row(family, build, statement, n, src, tmp):
    from degbal.general import decompose
    from degbal.graphs import Graph, connected_components

    start = time.process_time()
    g = build(n)
    setup_s = time.process_time() - start
    if family == "random_cubic":
        assert len(connected_components(g)) == 1, "random_cubic(n, 1) must be connected"
    times = []
    for _ in range(REPEATS):
        fresh = Graph(g.n, g.tails, g.heads)  # no split kept from an earlier call
        start = time.process_time()
        decompose(fresh, statement)
        times.append(time.process_time() - start)
    fresh = Graph(g.n, g.tails, g.heads)
    tracemalloc.start()
    decompose(fresh, statement)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    graph, document = tmp / "graph.txt", tmp / "result.json"
    graph.write_text(f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in zip(g.tails, g.heads)))
    with open(document, "w") as out:
        argv = ["decompose", "-i", str(graph), "-s", statement.lower().replace("_", "-")]
        cli_decompose_s = child_cpu_s(argv, src, out)
    argv = ["verify", "-i", str(graph), "-r", str(document)]
    cli_verify_s = child_cpu_s(argv, src, subprocess.DEVNULL)
    return {"family": family, "n": g.n, "statement": statement, "setup_s": round(setup_s, 4),
            "decompose_s": round(min(times), 4), "peak_bytes_per_vertex": round(peak / g.n, 1),
            "cli_decompose_s": round(cli_decompose_s, 4), "cli_verify_s": round(cli_verify_s, 4)}


def summarize(runs):
    """Median of each column over each label's runs, and the 10^4 -> 10^5 per-vertex ratios."""
    summary = {}
    for label in dict.fromkeys(run["label"] for run in runs):
        cells = {}
        for run in (r for r in runs if r["label"] == label):
            for r in run["rows"]:
                cells.setdefault((r["family"], r["n"]), []).append(r)
        rows = [{"family": family, "n": n, "runs": len(rs),
                 **{c: round(statistics.median(r[c] for r in rs), 4) for c in COLUMNS}}
                for (family, n), rs in cells.items()]
        by = {(r["family"], r["n"]): r for r in rows}
        ratios = {}
        for family in dict.fromkeys(r["family"] for r in rows):
            if (family, 10**4) in by and (family, 10**5) in by:
                small, large = by[family, 10**4], by[family, 10**5]
                ratio = (large["decompose_s"] / 10**5) / (small["decompose_s"] / 10**4)
                ratios[family] = {"ratio": round(ratio, 3), "meets_gate": ratio <= GATE}
        summary[label] = {"rows": rows, "per_vertex_ratio_1e4_to_1e5": ratios}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of the code timed, e.g. change")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_ladder.json")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))  # before the first degbal import
    sys.path.insert(1, str(ROOT / "tests"))
    from test_scaling import FAMILIES

    rows, src = [], args.src.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        for family, (build, statement) in FAMILIES.items():
            for n in SIZES:
                rows.append(row(family, build, statement, n, src, Path(tmp)))
                print(json.dumps(rows[-1]), flush=True)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    doc["description"] = __doc__.split("\n\n")[0]
    doc["runs"].append({"label": args.label, "python": platform.python_version(),
                        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs", "rows": rows})
    doc["summary"] = summarize(doc["runs"])
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
