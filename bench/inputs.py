"""Seeded inputs of the four benchmark workloads, built through ``degbal.gen``.

Every choice a workload makes comes from ``random.Random(f"{workload}:{seed}")``
(string seeds hash portably), so the same seed gives the same graphs, in the
same order, on any machine.  A workload is a list of ``Op``; one run executes
that list once per round.

Run as a script to write a workload's inputs to files, so that no generated
input has to be committed:

    PYTHONPATH=src python3 bench/inputs.py --workload corpus --seed 1 --out bench/out/inputs
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass
from pathlib import Path

from degbal import formats, gen
from degbal.connected import Statement
from degbal.graphs import DegreeProfile, Graph, connected_components

# The other statement run on each graph besides the balanced one, by n mod 4.
OTHER_STATEMENT = {0: Statement.II, 2: Statement.IV}


@dataclass(frozen=True)
class Op:
    """One timed operation.

    kind        what run.py calls: "balanced", "statement", "two_regular",
                "cli", "profiles" or "witness"
    graph       host graph handed to the library (None for "cli")
    arg         Statement, DegreeProfile, or the graph6 record for "cli"
    expect_fail the operation fails on every run because of a known fault
    """

    label: str
    n: int
    kind: str
    graph: Graph | None = None
    arg: object = None
    expect_fail: bool = False


def _connected_cubic(n: int, rng: random.Random) -> Graph:
    """Seeded random cubic graph on n vertices, redrawn until connected."""
    while True:
        g = gen.random_cubic(n, rng.getrandbits(32))
        if len(connected_components(g)) == 1:
            return g


def _both_statements(label: str, g: Graph) -> list[Op]:
    """The balanced decomposition and the other statement for n's residue."""
    other = OTHER_STATEMENT[g.n % 4]
    return [
        Op(f"{label}/balanced", g.n, "balanced", g),
        Op(f"{label}/{other.value}", g.n, "statement", g, other),
    ]


def connected_ops(seed: int, out_dir: Path) -> list[Op]:
    """20 connected graphs on three rungs: 7 at n = 1002, 12 at 1400, 1 at 3002.

    A graph's shape moves its stage-2 time by up to a third, so the median
    (operation 20.5 of 40) and the p75 tail (30.25) both fall among the 24
    operations at n = 1400 rather than on one or two graphs.
    """
    rng = random.Random(f"connected:{seed}")
    ops: list[Op] = []
    for n, count in ((1002, 7), (1400, 12), (3002, 1)):
        for i in range(count):
            ops += _both_statements(f"ladder-{n}-{i}", _connected_cubic(n, rng))
    return ops


def corpus_records(seed: int) -> list[str]:
    """graph6 lines: 360 small random, the catalog, the exception unions, 30 medium."""
    rng = random.Random(f"corpus:{seed}")
    graphs = [gen.random_cubic(rng.randrange(8, 62, 2), rng.getrandbits(32)) for _ in range(360)]
    graphs += [gen.named(name) for name in gen.CATALOG_NAMES]
    k4, k33 = gen.named("K4"), gen.named("K33")
    for parts in ([k4], [k33], [k4] * 2, [k4] * 3, [k4, k33], [k33] * 3):
        graphs.append(gen.disjoint_union(parts))
    for i in range(30):
        graphs.append(gen.random_cubic(100 + 2 * round(150 * i / 29), rng.getrandbits(32)))
    return [formats.encode_graph6(g) for g in graphs]


def corpus_ops(seed: int, out_dir: Path) -> list[Op]:
    """One CLI call per record of the corpus file, which setup writes."""
    path = out_dir / f"corpus-{seed}.g6"
    path.write_text("".join(line + "\n" for line in corpus_records(seed)), encoding="ascii")
    ops = []
    for lineno, record in enumerate(path.read_text(encoding="ascii").splitlines(), start=1):
        ops.append(Op(f"corpus:{lineno}", _graph6_order(record), "cli", arg=record))
    return ops


def _graph6_order(record: str) -> int:
    """Vertex count from a graph6 order prefix (short or 3-byte form)."""
    vals = [ord(ch) - 63 for ch in record[:4]]
    if vals[0] < 63:
        return vals[0]
    return (vals[1] << 12) | (vals[2] << 6) | vals[3]


def components_ops(seed: int, out_dir: Path) -> list[Op]:
    """Many-component cubic unions, 2-regular unions and one over-cap union."""
    rng = random.Random(f"components:{seed}")
    petersen, prism = gen.named("PETERSEN"), gen.named("PRISM")
    k4, k33 = gen.named("K4"), gen.named("K33")
    ops: list[Op] = []
    for k in (50, 100):
        ops += _both_statements(f"{k}xPetersen", gen.disjoint_union([petersen] * k))
        ops += _both_statements(f"{k}xPrism", gen.disjoint_union([prism] * k))
    # Fixed component orders (three each of 8..24, one more 10 when i is odd,
    # so both residues occur); the seed picks the graphs and their order.
    for i in range(6):
        orders = list(range(8, 26, 2)) * 3 + [10] * (i % 2)
        parts = [_connected_cubic(n, rng) for n in orders]
        rng.shuffle(parts)
        ops += _both_statements(f"random-union-{i}", gen.disjoint_union(parts))
    for i in range(4):
        parts = [k4] * rng.randrange(2, 31) + [k33] * rng.randrange(2, 31)
        rng.shuffle(parts)
        ops += _both_statements(f"k4-k33-union-{i}", gen.disjoint_union(parts))
    for i in range(8):
        lengths = [rng.randrange(3, 13) for _ in range(rng.randrange(3, 21))]
        ops.append(Op(f"cycles-{i}", sum(lengths), "two_regular", gen.cycles(lengths)))
    # The 2-regular planner refuses more than 22 cycles on every valid input.
    over_cap = gen.cycles([5] * 23)
    ops.append(Op("23xC5", over_cap.n, "two_regular", over_cap, expect_fail=True))
    return ops


# Balanced target, then a profile no simple cubic graph has: its two
# 1-vertices would need two edges between them.
def _oracle_queries(label: str, g: Graph) -> list[Op]:
    t, r = divmod(g.n, 4)
    balanced = (t, t, t, t) if r == 0 else (t, t + 1, t, t + 1)
    return [
        Op(f"{label}/profiles", g.n, "profiles", g),
        Op(f"{label}/witness-balanced", g.n, "witness", g, DegreeProfile(balanced)),
        Op(f"{label}/witness-none", g.n, "witness", g, DegreeProfile((g.n - 2, 0, 2, 0))),
    ]


def oracle_ops(seed: int, out_dir: Path) -> list[Op]:
    """Exhaustive oracle on 14 connected cubic graphs, m = 15 to 24."""
    rng = random.Random(f"oracle:{seed}")
    graphs = [("petersen", gen.named("PETERSEN")), ("heawood", gen.named("HEAWOOD"))]
    for n, count in ((10, 1), (12, 4), (14, 6), (16, 1)):
        graphs += [(f"random-{n}-{i}", _connected_cubic(n, rng)) for i in range(count)]
    ops: list[Op] = []
    for label, g in graphs:
        ops += _oracle_queries(label, g)
    return ops


BUILDERS = {
    "connected": connected_ops,
    "corpus": corpus_ops,
    "components": components_ops,
    "oracle": oracle_ops,
}


def build(workload: str, seed: int, out_dir: Path) -> list[Op]:
    out_dir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](seed, out_dir)


def _edge_list_text(g: Graph) -> str:
    return f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    ops = build(args.workload, args.seed, args.out)
    if args.workload == "corpus":
        print(args.out / f"corpus-{args.seed}.g6")
        return
    written = set()
    for i, op in enumerate(ops):
        if id(op.graph) in written:
            continue
        written.add(id(op.graph))
        path = args.out / f"{args.workload}-{args.seed}-{i:03d}-{op.label.split('/')[0]}.txt"
        path.write_text(_edge_list_text(op.graph), encoding="ascii")
        print(path)


if __name__ == "__main__":
    main()
