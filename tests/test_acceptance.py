"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from degbal.connected import (
    Statement,
    decompose_connected_traced,
    target_profile,
)
from degbal.errors import ExceptionGraph
from degbal.formats import encode_graph6, parse_graph6, render_result, ResultDocument
from degbal.gen import cycles, disjoint_union, named, random_cubic
from degbal.general import (
    CANONICAL_K33,
    CANONICAL_K4,
    decompose,
    realize_tuple_on,
)
from degbal.graphs import (
    SmallClass,
    classify_small,
    connected_components,
    profile_of,
)
from degbal.oracle import achievable_profiles, find_witness, min_max_deviation

from conftest import K4_TUPLES, K33_TUPLES, applicable_statements, corpus_lines
from test_connected import PATTERN_14


@contextmanager
def criterion(num: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num}: FAIL - {description}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {num}: PASS - {description} ({elapsed:.2f}s)", flush=True)


def test_criterion_1_base_case_realizations():
    with criterion(1, "base-case realizations match the stated tuples, < 1 ms each"):
        cases = [
            (named("K4"), Statement.II, (0, 0, 2, 2)),
            (named("PRISM"), Statement.III, (1, 2, 1, 2)),
            (named("K33"), Statement.IV, (0, 1, 2, 3)),
            (named("PRISM"), Statement.IV, (0, 1, 2, 3)),
        ]
        decompose_connected_traced(named("K4"), Statement.II)[0]  # warm-up
        for g, s, expected in cases:
            start = time.perf_counter()
            sub = decompose_connected_traced(g, s)[0]
            elapsed = time.perf_counter() - start
            assert profile_of(g, sub).counts == expected
            assert elapsed < 0.001, f"{s}: {elapsed * 1000:.3f} ms"


def test_criterion_2_exception_set(full_corpus):
    with criterion(2, "exception set is exactly {(K4,I),(K33,III),(2K4,II),(3K4,I)}, < 10 s"):
        start = time.perf_counter()
        raised = set()
        expected = set()
        for name, g in full_corpus:
            comps = connected_components(g)
            classes = [classify_small(c.graph) for c in comps]
            for s in applicable_statements(g.n):
                if classes == [SmallClass.K4] and s is Statement.I:
                    expected.add((name, s))
                if classes == [SmallClass.K4] * 3 and s is Statement.I:
                    expected.add((name, s))
                if classes == [SmallClass.K4] * 2 and s is Statement.II:
                    expected.add((name, s))
                if classes == [SmallClass.K33] and s is Statement.III:
                    expected.add((name, s))
                try:
                    decompose(g, s.value).subset
                except ExceptionGraph:
                    raised.add((name, s))
        assert raised == expected
        assert len(expected) == 4, "corpus must contain all four exception pairs"

        # independent confirmation: the four targets are unachievable (m <= 18)
        confirmations = [
            (named("K4"), Statement.I),
            (named("K33"), Statement.III),
            (disjoint_union([named("K4")] * 2), Statement.II),
            (disjoint_union([named("K4")] * 3), Statement.I),
        ]
        for g, s in confirmations:
            assert g.m <= 18
            assert find_witness(g, target_profile(g.n, s)) is None
        assert time.perf_counter() - start < 10


def test_criterion_3_oracle_equivalence(connected_corpus):
    with criterion(3, "decompose succeeds iff the oracle achieves the target, < 5 min"):
        start = time.perf_counter()
        checked = 0
        for name, g in connected_corpus:
            assert g.n <= 12
            for s in applicable_statements(g.n):
                try:
                    sub = decompose(g, s.value).subset
                    succeeded = True
                    assert profile_of(g, sub) == target_profile(g.n, s)
                except ExceptionGraph:
                    succeeded = False
                assert succeeded == (find_witness(g, target_profile(g.n, s)) is not None), (name, s)
                checked += 1
        assert checked >= 54  # full catalogs n in {4,6,8,10} give 27 graphs x 2
        assert time.perf_counter() - start < 300


def test_criterion_4_balanced_bound():
    with criterion(4, "balanced profiles hit {floor(n/4), ceil(n/4)} (500 seeds x n in [8,60]), < 60 s"):
        start = time.perf_counter()
        half = Fraction(1, 2)
        for n in range(8, 62, 2):
            lo, hi = n // 4, -(-n // 4)
            for seed in range(500):
                g = random_cubic(n, seed)
                res = decompose(g, "BALANCED")
                assert all(c in (lo, hi) for c in res.achieved.counts), (n, seed)
                assert res.max_deviation <= half
        for name in ("K4", "K33", "PRISM", "CUBE", "PETERSEN", "HEAWOOD",
                     "PAPPUS", "DESARGUES", "MOEBIUS_KANTOR"):
            g = named(name)
            res = decompose(g, "BALANCED")
            if name == "K4":
                assert res.max_deviation == 1
            elif name == "K33":
                assert res.max_deviation == Fraction(3, 2)
            else:
                lo, hi = g.n // 4, -(-g.n // 4)
                assert all(c in (lo, hi) for c in res.achieved.counts)
                assert res.max_deviation <= half
        res = decompose(disjoint_union([named("K4")] * 3), "BALANCED")
        assert res.max_deviation == 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"{elapsed:.1f}s"


def test_criterion_5_tuple_tables():
    with criterion(5, "every listed tuple and reversal has a verified stored witness, < 1 s"):
        start = time.perf_counter()
        k4_achievable = {p.counts for p in achievable_profiles(CANONICAL_K4).achievable}
        for counts in K4_TUPLES:
            sub = realize_tuple_on(CANONICAL_K4, SmallClass.K4, counts)
            assert profile_of(CANONICAL_K4, sub).counts == counts
            assert counts in k4_achievable
        k33_achievable = {p.counts for p in achievable_profiles(CANONICAL_K33).achievable}
        for counts in K33_TUPLES:
            sub = realize_tuple_on(CANONICAL_K33, SmallClass.K33, counts)
            assert profile_of(CANONICAL_K33, sub).counts == counts
            assert counts in k33_achievable
        assert len(K4_TUPLES) == 11 and len(K33_TUPLES) == 24
        assert time.perf_counter() - start < 1


def test_criterion_6_stage_invariants(connected_corpus):
    with criterion(6, "stage-1 bookkeeping identities hold; no fallback, the 14-vertex pattern included"):
        instances = list(connected_corpus) + [("pattern14", PATTERN_14)]
        for name, g in instances:
            if g.n < 8:
                continue
            for s in applicable_statements(g.n):
                trace = decompose_connected_traced(g, s)[1]
                st1 = trace.stage1
                n3 = target_profile(g.n, s).counts[0]
                assert st1.out_v3 == 3 * n3 - 2 * st1.e_v3, (name, s)
                assert st1.out_v3 <= n3 + 2, (name, s)
                assert 2 * st1.v2_size + st1.v1_size == st1.out_v3, (name, s)
                assert st1.e_v3 >= n3 - 1, (name, s)
                if st1.cycle_length <= n3:
                    assert st1.e_v3 >= n3, (name, s)
                assert st1.cycle_length <= g.n / 2, (name, s)
                # |V1| = |V3| parity is asserted after every vertex stage 1
                # adds and after every later recoloring, in color_edge
                assert not trace.fallback_used, (name, s)


def partitions_min3(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield []
        return
    for part in range(min(n, largest), 2, -1):
        if n - part == 0 or n - part >= 3:
            for rest in partitions_min3(n - part, part):
                yield [part] + rest


def test_criterion_7_two_regular():
    with criterion(7, "2-regular bound over all cycle partitions n <= 24, oracle-checked to 15, < 30 s"):
        start = time.perf_counter()
        rejected = []
        for n in range(3, 25):
            third = Fraction(n, 3)
            odd_integer = third.denominator == 1 and third.numerator % 2 == 1
            bound = Fraction(1) if odd_integer else Fraction(2, 3)
            for parts in partitions_min3(n):
                g = cycles(parts)
                try:
                    res = decompose(g, "TWO_REGULAR")
                except ExceptionGraph as exc:
                    rejected.append((tuple(parts), exc.kind.value))
                    continue
                assert res.max_deviation <= bound, parts
                assert res.achieved.count(1) % 2 == 0, parts
                assert profile_of(g, res.subset) == res.achieved
                if n <= 15:
                    assert find_witness(g, res.achieved) is not None, parts
                    oracle_best = min_max_deviation(g)
                    if odd_integer:
                        assert oracle_best == 1, parts  # handshake forces >= 1
                    else:
                        assert oracle_best <= Fraction(2, 3), parts
        assert sorted(rejected) == [((3, 3), "TWO_C3"), ((4, 4), "TWO_C4")]
        elapsed = time.perf_counter() - start
        assert elapsed < 30, f"{elapsed:.1f}s"


def test_criterion_8_graph6_round_trip():
    with criterion(8, "graph6 byte round trip (corpus + 10,000 random) and padding rejection, < 10 s"):
        start = time.perf_counter()
        lines = corpus_lines()
        for line in lines:
            assert encode_graph6(parse_graph6(line)) == line
        sizes = list(range(8, 28, 2))
        for seed in range(10_000):
            g = random_cubic(sizes[seed % len(sizes)], seed)
            assert parse_graph6(encode_graph6(g)).edges == g.edges
        from degbal.errors import ParseError

        mutations = 0
        for line in lines:
            g = parse_graph6(line)
            pad = (-(g.n * (g.n - 1) // 2)) % 6
            group = ord(line[-1]) - 63
            for bit in range(pad):
                mutated = line[:-1] + chr((group | (1 << bit)) + 63)
                with pytest.raises(ParseError):
                    parse_graph6(mutated)
                mutations += 1
        assert mutations > 0
        elapsed = time.perf_counter() - start
        assert elapsed < 10, f"{elapsed:.1f}s"


def test_criterion_9_determinism(full_corpus, tmp_path):
    with criterion(9, "corpus outputs are byte-identical across runs and worker counts"):
        import subprocess
        import sys

        corpus_path = tmp_path / "corpus.g6"
        corpus_path.write_text("\n".join(corpus_lines()) + "\n")

        # fresh interpreters: distinct hash seeds must not leak into output
        outputs = []
        for jobs in ("1", "4", "1"):
            proc = subprocess.run(
                [
                    sys.executable, "-m", "degbal.cli", "batch",
                    "--input", str(corpus_path), "--statement", "balanced",
                    "--jobs", jobs, "--no-timing",
                ],
                capture_output=True,
            )
            assert proc.returncode == 0
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]

        def render_all() -> str:
            chunks = []
            for name, g in full_corpus:
                res = decompose(g, "BALANCED")
                doc = ResultDocument(
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
                chunks.append(render_result(doc, "json"))
                chunks.append(render_result(doc, "tsv"))
            return "\n".join(chunks)

        assert render_all() == render_all()

        # seeded generation reproduces byte-for-byte as well
        lines1 = [encode_graph6(random_cubic(16, seed)) for seed in range(50)]
        lines2 = [encode_graph6(random_cubic(16, seed)) for seed in range(50)]
        assert lines1 == lines2
