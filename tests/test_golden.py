"""Golden digest of the result documents the library produces.

The staged construction is deterministic down to its tie-breaks, so any
change to how its rules are found must leave every document byte-identical.
This test pins a SHA-256 over the JSON documents for every fixture graph
(under ``balanced`` and each statement of matching parity) and for a few
seeded random cubic graphs of order 1002 and 1400.  Refusals are part of the
digest too, as the kind of exception raised.
"""

import hashlib
import itertools
import json
import random
import subprocess
import sys

from degbal.cli import _document
from degbal.connected import Statement, decompose_connected_traced, target_profile
from degbal.errors import ExceptionGraph
from degbal.formats import render_result
from degbal.gen import CATALOG_NAMES, cycles, disjoint_union, named, random_cubic
from degbal.general import decompose, realize_tuple_on
from degbal.graphs import (
    DegreeProfile,
    SmallClass,
    build_graph,
    classify_small,
    connected_components,
    inferred_degree,
    profile_of,
)
from degbal.oracle import achievable_profiles, find_witness

from conftest import FIXTURES, K4_TUPLES, K33_TUPLES, circulant, load_corpus_file
from test_cli import CLI_PINS, DECOMPOSE_ROWS, SAME_GRAPH

GOLDEN_SHA256 = "308bf5755056134772bd32c27615cf1778fa0cdd2d6dd896ad856f6afbcacf3e"

RANDOM_CASES = [(1002, 1), (1002, 2), (1400, 3), (1400, 4)]


def golden_inputs():
    for path in sorted(FIXTURES.glob("*.g6")):
        yield from load_corpus_file(path.name)
    for n, seed in RANDOM_CASES:
        yield f"random_cubic:{n}:{seed}", random_cubic(n, seed)


def result_lines():
    for name, g in golden_inputs():
        statements = (Statement.I, Statement.II) if g.n % 4 == 0 else (Statement.III, Statement.IV)
        runs = [("balanced", "BALANCED")] + [(s.value, s.value) for s in statements]
        for label, statement in runs:
            try:
                yield render_result(_document(name, g, decompose(g, statement)))
            except ExceptionGraph as exc:
                yield f"{name}\t{label}\texception:{exc.kind.value}"


def test_result_documents_match_golden_digest():
    digest = hashlib.sha256()
    count = 0
    for line in result_lines():
        digest.update(line.encode("ascii") + b"\n")
        count += 1
    assert count == 3 * (54 + len(RANDOM_CASES))
    assert digest.hexdigest() == GOLDEN_SHA256


# Seeded unions of 2-12 components deep enough for case 1 to peel several
# components in a row.  Their digest covers the subsets and fallback flags
# only: branch_trace is flat, so it reads differently from a nested one
# once more than one component is peeled.
DEEP_UNION_SHA256 = "8a4e6b9005b1f0af5d8df48a82af6cad1da5de0030143d5d2d1ea47aec5a8e78"

DEEP_UNION_CASES = [
    ("PRISM", "CUBE", "K4", "K4"),         # 2K4 tail after two peels
    ("K4", "PETERSEN", "K4", "K33", "PRISM"),
    ("HEAWOOD", "K4", "PRISM", "K4"),
    ("K33", "K33", "PETERSEN", "CUBE"),
]
DEEP_UNION_SEEDS = range(36)


def _connected_random(n, rng):
    while True:
        g = random_cubic(n, rng.getrandbits(32))
        if len(connected_components(g)) == 1:
            return g


def deep_unions():
    for names in DEEP_UNION_CASES:
        yield "+".join(names), disjoint_union([named(p) for p in names])
    for seed in DEEP_UNION_SEEDS:
        rng = random.Random(f"deep-union:{seed}")
        parts = []
        for _ in range(rng.randint(2, 12)):
            if rng.random() < 0.5:
                parts.append(named(rng.choice(CATALOG_NAMES)))
            else:
                parts.append(_connected_random(rng.randrange(8, 32, 2), rng))
        yield f"deep-union:{seed}", disjoint_union(parts)


def test_deep_union_subsets_match_golden_digest():
    digest = hashlib.sha256()
    traces = []
    for name, g in deep_unions():
        statements = (Statement.I, Statement.II) if g.n % 4 == 0 else (Statement.III, Statement.IV)
        for s in statements:
            try:
                res = decompose(g, s.value)
            except ExceptionGraph as exc:
                line = f"{name}\t{s.value}\texception:{exc.kind.value}"
            else:
                assert profile_of(g, res.subset) == target_profile(g.n, s), (name, s)
                line = f"{name}\t{s.value}\t{res.subset.edges(g)}\t{res.fallback_used}"
                traces.append(" ".join(res.branch_trace))
            digest.update(line.encode("ascii") + b"\n")
    assert any("2K4-balanced" in t for t in traces)
    assert any("|whole~c" in t for t in traces)
    assert digest.hexdigest() == DEEP_UNION_SHA256


# Seeded unions of 1-40 cycles under a random relabeling, so cycles do not
# sit on consecutive labels and each starts away from its first vertex.
# The digest covers the subset, the achieved profile and the trace.
TWO_REGULAR_SHA256 = "2cacf84290db1f8143356387b7a5fed5207a6001724e2ff1e927331e129e79d0"
TWO_REGULAR_SEEDS = range(400)


def relabeled_cycle_unions():
    for seed in TWO_REGULAR_SEEDS:
        rng = random.Random(f"two-regular:{seed}")
        while True:
            parts = [rng.randint(3, 12) for _ in range(rng.randint(1, 40))]
            if sorted(parts) not in ([3, 3], [4, 4]):
                break
        g = cycles(parts)
        perm = list(range(g.n))
        rng.shuffle(perm)
        yield f"two-regular:{seed}", build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_two_regular_subsets_match_golden_digest():
    digest = hashlib.sha256()
    for name, g in relabeled_cycle_unions():
        res = decompose(g, "TWO_REGULAR")
        line = f"{name}\t{res.achieved.counts}\t{res.subset.edges(g)}\t{res.branch_trace}"
        digest.update(line.encode("ascii") + b"\n")
    assert digest.hexdigest() == TWO_REGULAR_SHA256


# Every nonempty K4^k u K3,3^l with k, l <= 7, in both component orders,
# under each statement of matching parity: these reach all eleven case-2
# rows, which the fixture corpus does not.  The digest covers subsets and
# traces.
CASE2_SHA256 = "380a571a00c82453d102c54f5a963c9311c1a4feeb83bb281d2769cc986bf878"
CASE2_LABELS = {
    "case2(a):I:all-pairs",
    "case2(a):II:2xK33",
    "case2(a):II:4xK4",
    "case2(b):III",
    "case2(b):IV",
    "case2(c):III:3xK33",
    "case2(c):III:2xK4+K33",
    "case2(c):IV",
    "case2(d):I:5xK4",
    "case2(d):I:K4+2xK33",
    "case2(d):II",
}


def k4_k33_unions():
    for k in range(8):
        for ell in range(8):
            if k + ell == 0:
                continue
            counts = {"K4": k, "K33": ell}
            for first, second in [("K4", "K33"), ("K33", "K4")] if k and ell else [("K4", "K33")]:
                parts = [first] * counts[first] + [second] * counts[second]
                name = f"{first}^{counts[first]}+{second}^{counts[second]}"
                yield name, disjoint_union([named(p) for p in parts])


def test_case2_unions_match_golden_digest():
    digest = hashlib.sha256()
    labels = set()
    for name, g in k4_k33_unions():
        statements = (Statement.I, Statement.II) if g.n % 4 == 0 else (Statement.III, Statement.IV)
        for s in statements:
            try:
                res = decompose(g, s.value)
            except ExceptionGraph as exc:
                line = f"{name}\t{s.value}\texception:{exc.kind.value}"
            else:
                assert profile_of(g, res.subset) == target_profile(g.n, s), (name, s)
                trace = list(res.branch_trace)
                line = f"{name}\t{s.value}\t{res.subset.edges(g)}\t{trace}\t{res.fallback_used}"
                labels.update(t for t in trace if t.startswith("case2"))
            digest.update(line.encode("ascii") + b"\n")
    assert labels == CASE2_LABELS
    assert digest.hexdigest() == CASE2_SHA256


# Unions of k equal components, k = 2-60, of each of four catalog shapes and
# one seeded random shape, plus mixes and unions holding one relabeled copy,
# whose components are isomorphic but not equal.  Each graph runs under both
# statements of its parity; the digest covers subsets, traces and fallback
# flags.
REPEATED_UNION_SHA256 = "c6020f7356e19dab13f3a495bdcd2ea3cbeabebed3b5e127e8d4c4e531435d3c"
REPEATED_SHAPES = ("PETERSEN", "PRISM", "CUBE", "HEAWOOD", "random")


def _relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def repeated_unions():
    rng = random.Random("repeated-union")
    shapes = {p: named(p) for p in REPEATED_SHAPES[:-1]}
    shapes["random"] = _connected_random(20, rng)
    for p in REPEATED_SHAPES:
        for k in range(2, 61):
            yield f"{k}x{p}", disjoint_union([shapes[p]] * k)
    petersen, prism, cube = shapes["PETERSEN"], shapes["PRISM"], shapes["CUBE"]
    mixes = {
        "60xPETERSEN+40xPRISM": [petersen] * 60 + [prism] * 40,
        "(PETERSEN+PRISM)x30": [petersen, prism] * 30,
        "(CUBE+random)x17+2xK4": [cube, shapes["random"]] * 17 + [named("K4")] * 2,
        "12xHEAWOOD+3xK4+2xK33": [shapes["HEAWOOD"]] * 12 + [named("K4")] * 3 + [named("K33")] * 2,
        "9xPRISM+9xCUBE+K33": [prism] * 9 + [cube] * 9 + [named("K33")],
    }
    yield from ((name, disjoint_union(parts)) for name, parts in mixes.items())
    for p in REPEATED_SHAPES:
        for k in (2, 7, 30):
            parts = [shapes[p]] * k
            parts[k // 2] = _relabeled(shapes[p], rng)
            assert parts[k // 2] != shapes[p]
            yield f"{k}x{p}:relabeled-{k // 2}", disjoint_union(parts)


def test_repeated_unions_match_golden_digest():
    digest = hashlib.sha256()
    count = 0
    for name, g in repeated_unions():
        statements = (Statement.I, Statement.II) if g.n % 4 == 0 else (Statement.III, Statement.IV)
        for s in statements:
            res = decompose(g, s.value)
            count += 1
            trace = " ".join(res.branch_trace)
            line = f"{name}\t{s.value}\t{res.subset.bits:x}\t{trace}\t{res.fallback_used}"
            digest.update(line.encode("ascii") + b"\n")
    assert count == 2 * (5 * 59 + 5 + 5 * 3)
    assert digest.hexdigest() == REPEATED_UNION_SHA256


# Unions of 2-30 K4s and 2-30 K3,3s in a seeded order, where each K3,3 is one
# of three seeded relabelings: case 2 then realizes its tuples through
# different bipartitions of one shared shape.  Seeds cover both parities of
# n and each graph runs under both statements of its parity; the digest
# covers subsets, traces and fallback flags.
CASE2_RELABELED_SHA256 = "cab350d8544a038deb915dcbe3138d2892314a7c100ec042823b6c44d56b1b63"
CASE2_RELABELED_SEEDS = range(40)


def relabeled_case2_unions():
    for seed in CASE2_RELABELED_SEEDS:
        rng = random.Random(f"case2-relabeled:{seed}")
        k33s = [_relabeled(named("K33"), rng) for _ in range(3)]
        parts = [named("K4")] * rng.randint(2, 30)
        parts += [rng.choice(k33s) for _ in range(rng.randint(2, 30))]
        rng.shuffle(parts)
        yield f"case2-relabeled:{seed}", disjoint_union(parts)


def test_relabeled_case2_unions_match_golden_digest():
    digest = hashlib.sha256()
    parities, labels = set(), set()
    for name, g in relabeled_case2_unions():
        parities.add(g.n % 4)
        statements = (Statement.I, Statement.II) if g.n % 4 == 0 else (Statement.III, Statement.IV)
        for s in statements:
            res = decompose(g, s.value)
            assert profile_of(g, res.subset) == target_profile(g.n, s), (name, s)
            labels.update(res.branch_trace)
            trace = " ".join(res.branch_trace)
            line = f"{name}\t{s.value}\t{res.subset.bits:x}\t{trace}\t{res.fallback_used}"
            digest.update(line.encode("ascii") + b"\n")
    assert parities == {0, 2}
    # The other three rows need a single K3,3.
    single_k33 = {"case2(a):II:4xK4", "case2(c):III:2xK4+K33", "case2(d):I:5xK4"}
    assert labels == CASE2_LABELS - single_k33
    assert digest.hexdigest() == CASE2_RELABELED_SHA256


# Every labeled K4 (1), K3,3 (10) and prism (60) on vertices 0..n-1: its small
# class, its base-case subset and branch (or refusal) under each statement of
# its parity, and the realized bits of every K4 / K3,3 table tuple.  The
# digest fixes how each labeling is read, whatever the route to the answer.
SMALL_LABELINGS_SHA256 = "c7638e51f460c59802f19112590683ece4b756c902d7c08fa4886f249d173352"


def small_labelings():
    for name in ("K4", "K33", "PRISM"):
        g = named(name)
        seen = set()
        for perm in itertools.permutations(range(g.n)):
            h = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            if h.edges not in seen:
                seen.add(h.edges)
                yield name, h


def test_small_labelings_match_golden_digest():
    digest = hashlib.sha256()
    counts = {}
    for name, g in small_labelings():
        counts[name] = counts.get(name, 0) + 1
        cls = classify_small(g)
        lines = [f"{name}\t{g.edges}\t{cls.value}"]
        statements = (Statement.I, Statement.II) if g.n % 4 == 0 else (Statement.III, Statement.IV)
        for s in statements:
            try:
                sub, trace = decompose_connected_traced(g, s)
            except ExceptionGraph as exc:
                lines.append(f"{s.value}\texception:{exc.kind.value}")
            else:
                lines.append(f"{s.value}\t{sub.bits:x}\t{' '.join(trace.branch)}")
        tuples = {SmallClass.K4: K4_TUPLES, SmallClass.K33: K33_TUPLES}.get(cls, ())
        lines.extend(f"{t}\t{realize_tuple_on(g, cls, t).bits:x}" for t in tuples)
        for line in lines:
            digest.update(line.encode("ascii") + b"\n")
    assert counts == {"K4": 1, "K33": 10, "PRISM": 60}
    assert digest.hexdigest() == SMALL_LABELINGS_SHA256


# The oracle's full reports (achievable profiles with their first witness
# bits, and the exact min-max deviation) plus the single-profile search for
# a balanced profile and for (n-2, 0, 2, 0), over catalog graphs, seeded
# random cubic graphs and relabelings of them, unions, cycles and 4-regular
# graphs.  The digest fixes the rank-order witnesses, whatever order the
# report's dynamic program walks the edges in.
ORACLE_SHA256 = "90934f057d116ec2c76676098c2fc023d203ed422f80c6716b19ae43e6964481"


def oracle_inputs():
    for name in ("K4", "K33", "PRISM", "CUBE", "PETERSEN", "HEAWOOD", "MOEBIUS_KANTOR"):
        yield name, named(name)
    for n in range(8, 17, 2):
        for seed in (1, 2, 3):
            yield f"random_cubic:{n}:{seed}", random_cubic(n, seed)
    for name, g in (("HEAWOOD", named("HEAWOOD")), ("random_cubic:16:1", random_cubic(16, 1))):
        rng = random.Random(f"oracle-relabeled:{name}")
        for i in range(3):
            yield f"{name}:relabeled-{i}", _relabeled(g, rng)
    k4, k33 = named("K4"), named("K33")
    yield "2K4", disjoint_union([k4] * 2)
    yield "3K4", disjoint_union([k4] * 3)
    yield "K4+K33", disjoint_union([k4, k33])
    yield "C3+C4+C5", cycles([3, 4, 5])
    yield "K5", build_graph(5, list(itertools.combinations(range(5), 2)))
    yield "C11(1,2)", circulant(11, (1, 2))
    yield "C11(2,5)", circulant(11, (2, 5))


def _balanced(n, d):
    """Statement I or III's target for a cubic order, else the most even split."""
    if d == 3:
        return target_profile(n, Statement.I if n % 4 == 0 else Statement.III)
    return DegreeProfile(tuple(n // (d + 1) + (k < n % (d + 1)) for k in range(d + 1)))


def test_oracle_reports_match_golden_digest():
    digest = hashlib.sha256()
    count = 0
    for name, g in oracle_inputs():
        rep = achievable_profiles(g)
        d = inferred_degree(g)
        lines = [f"{name}\t{g.edges}\t{rep.degree}\t{rep.edge_count}\t{len(rep.achievable)}"]
        lines += [f"{p.counts}\t{rep.witness[p].bits:x}" for p in rep.achievable]
        lines.append(f"min_max_deviation\t{rep.min_max_deviation}")
        for p in (_balanced(g.n, d), DegreeProfile((g.n - 2, 0, 2, 0))):
            w = find_witness(g, p)
            lines.append(f"find_witness\t{p.counts}\t{'none' if w is None else f'{w.bits:x}'}")
        for line in lines:
            digest.update(line.encode("ascii") + b"\n")
        count += 1
    assert count == 7 + 15 + 6 + 4 + 3
    assert digest.hexdigest() == ORACLE_SHA256


# find_witness past the edge cap: the first witness, in rank order, of both
# statements' targets on the connected random_cubic(64, 1) and (64, 2), m = 96.
STATEMENT_WITNESS_64_SHA256 = "f10a678f34c0beec4c0792c792c45149f9ce1bace84dd216cbe499ea6cfd914d"


def test_statement_witnesses_at_64_match_golden_digest():
    digest = hashlib.sha256()
    for seed in (1, 2):
        g = random_cubic(64, seed)
        for s in (Statement.I, Statement.II):
            w = find_witness(g, target_profile(g.n, s), edge_cap=g.m)
            digest.update(f"{seed}\t{s.value}\t{'none' if w is None else f'{w.bits:x}'}\n".encode())
    assert digest.hexdigest() == STATEMENT_WITNESS_64_SHA256


# The edge lists random_cubic draws, seed for seed.  Every bench input and
# most test inputs come from it, so a faster key stream or pairing check
# must leave each (n, seed) on the same graph.  Seeds outside [0, 2^64)
# reduce modulo 2^64, so -1 and 2^64 - 1 draw the same graph.
RANDOM_CUBIC_SHA256 = "3913cfe11f54ed0f2d12bf9a99c7eee542809afe9eace99c60c0009261f92d7f"


def random_cubic_cases():
    for n in range(4, 41, 2):
        for seed in range(30):
            yield n, seed
    for n in (1002, 1400, 3002):
        for seed in (1, 2, 3):
            yield n, seed
    for seed in (-1, 2**64 - 1, 2**64 + 5, 2**80 + 3):
        yield 20, seed


def test_random_cubic_edges_match_golden_digest():
    digest = hashlib.sha256()
    count = 0
    for n, seed in random_cubic_cases():
        digest.update(f"{n}\t{seed}\t{random_cubic(n, seed).edges}\n".encode("ascii"))
        count += 1
    assert count == 19 * 30 + 9 + 4
    assert random_cubic(20, -1).edges == random_cubic(20, 2**64 - 1).edges
    assert digest.hexdigest() == RANDOM_CUBIC_SHA256


# The stages assert their size identities; python -O strips those asserts.
# Every document must come out byte-identical either way, so no assert may
# carry a side effect the construction relies on.  Each run also hashes the
# pinned decompose documents of tests/test_cli.py.
OPTIMIZED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_cli import decompose_digests
from degbal.cli import _document
from degbal.formats import parse_graph6, render_result
from degbal.gen import disjoint_union, named, random_cubic
from degbal.general import decompose

union = disjoint_union([random_cubic(102, seed) for seed in range(4)]
                       + [named(p) for p in ("PETERSEN", "HEAWOOD", "PRISM", "CUBE")])
inputs = [("R3_GRAPH6", parse_graph6("IQOGYeck?")), ("random_cubic:1002:1", random_cubic(1002, 1)),
          ("random_cubic:1400:2", random_cubic(1400, 2)), ("union", union)]
lines = []
for name, g in inputs:
    for statement in ("BALANCED",) + (("I", "II") if g.n % 4 == 0 else ("III", "IV")):
        lines.append(render_result(_document(name, g, decompose(g, statement))))
print(json.dumps([__debug__, lines, decompose_digests()]))
"""


def test_documents_are_byte_identical_under_python_O():
    runs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", OPTIMIZED_RUN, str(FIXTURES.parent)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    (debug, lines, digests), (optimized_debug, optimized_lines, optimized_digests) = map(json.loads, runs)
    assert (debug, optimized_debug) == (True, False)
    assert len(lines) == 12
    assert optimized_lines == lines
    pinned = [[row, CLI_PINS[row][2]] for row in itertools.chain(DECOMPOSE_ROWS, *SAME_GRAPH)]
    assert digests == pinned
    assert optimized_digests == pinned
