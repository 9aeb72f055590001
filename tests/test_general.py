import math
import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degbal.connected as connected_mod
import degbal.general as general_mod
import degbal.graphs as graphs_mod
from degbal.connected import (
    ExceptionKind,
    Statement,
    decompose_connected_traced,
    target_profile,
)
from degbal.errors import (
    DegbalError,
    ExceptionGraph,
    InternalStuck,
    NotRegular,
    ParityMismatch,
)
from degbal.cli import _document
from degbal.formats import parse_graph6, render_result
from degbal.gen import CATALOG_NAMES, cycles, disjoint_union, named, random_cubic
from degbal.general import (
    CANONICAL_K33,
    CANONICAL_K4,
    DecompositionResult,
    decompose,
    decompose_balanced,
    decompose_result,
    decompose_traced,
    decompose_two_regular,
    detect_exception,
    realize_tuple_on,
    statement_target,
)
from degbal.graphs import (
    DegreeProfile,
    EdgeSubset,
    Graph,
    SmallClass,
    build_graph,
    connected_components,
    profile_of,
)
from degbal.oracle import achievable_profiles, find_witness, min_max_deviation

from conftest import K4_TUPLES, K33_TUPLES, applicable_statements, corpus_lines
from test_acceptance import partitions_min3
from test_connected import PATTERN_14
from test_oracle import K33_BASE_TUPLES, K4_BASE_TUPLES


def two_regular_bound(n):
    third = Fraction(n, 3)
    return Fraction(1) if third.denominator == 1 and third.numerator % 2 else Fraction(2, 3)


def first_balanced_triple(n):
    """The reference search: the best (n2, n1, n0) with n1 even and each count
    within two_regular_bound(n) of n/3, by (deviation, counts)."""
    third, bound = Fraction(n, 3), two_regular_bound(n)
    lo, hi = max(0, math.ceil(third - bound)), math.floor(third + bound)
    cands = []
    for n2 in range(lo, hi + 1):
        for n1 in range(lo + lo % 2, hi + 1, 2):
            counts = (n2, n1, n - n2 - n1)
            dev = max(abs(c - third) for c in counts)
            if lo <= counts[2] <= hi and dev <= bound:
                cands.append((dev, counts))
    return sorted(cands)[0][1]


def assert_two_regular_within_bound(parts):
    g = cycles(parts)
    res = decompose(g, "TWO_REGULAR")
    assert res.max_deviation <= two_regular_bound(g.n), parts
    assert res.achieved.count(1) % 2 == 0, parts
    assert profile_of(g, res.subset) == res.achieved, parts


class TestDetectException:
    def test_table(self):
        k4, k33, prism = named("K4"), named("K33"), named("PRISM")
        assert detect_exception(k4, Statement.I) is ExceptionKind.K4_I
        assert detect_exception(k4, Statement.II) is None
        assert detect_exception(disjoint_union([k4] * 3), Statement.I) is ExceptionKind.THREE_K4_I
        assert detect_exception(disjoint_union([k4] * 2), Statement.II) is ExceptionKind.TWO_K4_II
        assert detect_exception(disjoint_union([k4] * 2), Statement.I) is None
        assert detect_exception(k33, Statement.III) is ExceptionKind.K33_III
        assert detect_exception(k33, Statement.IV) is None
        assert detect_exception(prism, Statement.III) is None
        assert detect_exception(disjoint_union([k33, k33]), Statement.I) is None

    def test_not_regular(self):
        with pytest.raises(NotRegular):
            detect_exception(cycles([4]), Statement.I)

    def test_canonical_graphs(self):
        assert CANONICAL_K4 == build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert CANONICAL_K33 == build_graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])

    @pytest.mark.parametrize("kind", ExceptionKind)
    def test_exception_graph_pickles(self, kind):
        exc = ExceptionGraph(kind)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is ExceptionGraph and back.kind is kind and str(back) == str(exc)

    def test_exception_graph_crosses_a_process_pool(self):
        with ProcessPoolExecutor(max_workers=1) as pool:
            with pytest.raises(ExceptionGraph) as raised:
                list(pool.map(decompose, [named("K4")], ["I"]))
        assert raised.value.kind is ExceptionKind.K4_I
        assert str(raised.value) == "exception graph: K4_I"


class TestTupleTables:
    def test_every_entry_reproduces_its_key(self):
        for counts in K4_TUPLES:
            sub = realize_tuple_on(CANONICAL_K4, SmallClass.K4, counts)
            assert profile_of(CANONICAL_K4, sub).counts == counts
        for counts in K33_TUPLES:
            sub = realize_tuple_on(CANONICAL_K33, SmallClass.K33, counts)
            assert profile_of(CANONICAL_K33, sub).counts == counts

    def test_tables_cover_base_lists_and_reversals(self):
        for t in K4_BASE_TUPLES:
            assert t in K4_TUPLES
            assert tuple(reversed(t)) in K4_TUPLES
        for t in K33_BASE_TUPLES:
            assert t in K33_TUPLES
            assert tuple(reversed(t)) in K33_TUPLES

    def test_tables_match_plain_enumeration(self):
        # each base tuple's entry is its first witness in rank order, found by
        # the plain loop; every other entry is a base tuple's reversal,
        # realized as the complement of that tuple's entry
        from test_oracle import reference_first_witnesses

        for cls, base in ((SmallClass.K4, K4_BASE_TUPLES), (SmallClass.K33, K33_BASE_TUPLES)):
            canon, table = general_mod._TABLES[cls]
            ref, full = reference_first_witnesses(canon), (1 << canon.m) - 1
            for counts in base:
                assert table[counts] == ref[counts], counts
            for counts, bits in table.items():
                if counts not in base:
                    assert counts[::-1] in base, counts
                    assert bits == table[counts[::-1]] ^ full, counts

    def test_oracle_achieves_all_table_entries(self):
        ach4 = {p.counts for p in achievable_profiles(CANONICAL_K4).achievable}
        assert set(K4_TUPLES) <= ach4
        ach33 = {p.counts for p in achievable_profiles(CANONICAL_K33).achievable}
        assert set(K33_TUPLES) <= ach33

    def test_examples(self):
        assert len(realize_tuple_on(CANONICAL_K4, SmallClass.K4, (0, 0, 0, 4))) == 0
        tri = realize_tuple_on(CANONICAL_K4, SmallClass.K4, (0, 3, 0, 1))
        assert profile_of(CANONICAL_K4, tri).counts == (0, 3, 0, 1)
        star = realize_tuple_on(CANONICAL_K4, SmallClass.K4, (1, 0, 3, 0))
        assert profile_of(CANONICAL_K4, star).counts == (1, 0, 3, 0)
        assert len(realize_tuple_on(CANONICAL_K33, SmallClass.K33, (0, 0, 0, 6))) == 0
        p3 = realize_tuple_on(CANONICAL_K33, SmallClass.K33, (0, 1, 2, 3))
        assert profile_of(CANONICAL_K33, p3).counts == (0, 1, 2, 3)
        assert profile_of(
            CANONICAL_K33, realize_tuple_on(CANONICAL_K33, SmallClass.K33, (1, 1, 3, 1))
        ).counts == (1, 1, 3, 1)

    def test_no_such_tuple(self):
        with pytest.raises(DegbalError, match=r"^K4 table has no entry for \(1, 1, 1, 1\)$"):
            realize_tuple_on(CANONICAL_K4, SmallClass.K4, (1, 1, 1, 1))
        with pytest.raises(DegbalError, match=r"^K3,3 table has no entry for \(1, 2, 1, 2\)$"):
            realize_tuple_on(CANONICAL_K33, SmallClass.K33, (1, 2, 1, 2))

    def test_realize_on_relabeled_k33(self):
        # parts {0,2,4} / {1,3,5} instead of the canonical split
        g = build_graph(6, [(i, j) for i in (0, 2, 4) for j in (1, 3, 5)])
        for counts in K33_TUPLES:
            sub = realize_tuple_on(g, SmallClass.K33, counts)
            assert profile_of(g, sub).counts == counts


class TestDecompose:
    def test_2k4_statement_i(self):
        g = disjoint_union([named("K4")] * 2)
        assert profile_of(g, decompose(g, Statement.I.value).subset).counts == (2, 2, 2, 2)

    def test_k4_k33_statement_iii(self):
        g = disjoint_union([named("K4"), named("K33")])
        assert profile_of(g, decompose(g, Statement.III.value).subset).counts == (2, 3, 2, 3)

    def test_3k4_statement_i_exception(self):
        g = disjoint_union([named("K4")] * 3)
        with pytest.raises(ExceptionGraph) as exc:
            decompose(g, Statement.I.value).subset
        assert exc.value.kind is ExceptionKind.THREE_K4_I

    def test_4k4_statement_ii(self):
        g = disjoint_union([named("K4")] * 4)
        assert profile_of(g, decompose(g, Statement.II.value).subset).counts == (3, 3, 5, 5)

    def test_parity(self):
        with pytest.raises(ParityMismatch):
            decompose(disjoint_union([named("K4"), named("K33")]), Statement.I.value).subset

    def test_empty_graph(self):
        g = build_graph(0, [])
        assert len(decompose(g, Statement.I.value).subset) == 0
        with pytest.raises(ParityMismatch):
            decompose(g, Statement.II.value).subset

    def test_all_small_unions(self):
        """Every multiset of {K4, K33, prism, cube} up to 4 parts, n <= 20."""
        parts_pool = {
            "k4": named("K4"),
            "k33": named("K33"),
            "prism": named("PRISM"),
            "cube": named("CUBE"),
        }
        exceptions = set()
        for count in (2, 3, 4):
            for combo in combinations_with_replacement(sorted(parts_pool), count):
                g = disjoint_union([parts_pool[c] for c in combo])
                if g.n > 20:
                    continue
                for s in applicable_statements(g.n):
                    try:
                        sub = decompose(g, s.value).subset
                    except ExceptionGraph as exc:
                        exceptions.add((combo, s.value, exc.kind.value))
                        continue
                    assert profile_of(g, sub) == target_profile(g.n, s), (combo, s)
        assert exceptions == {
            (("k4", "k4"), "II", "TWO_K4_II"),
            (("k4", "k4", "k4"), "I", "THREE_K4_I"),
        }

    def test_case1_2k4_rest(self):
        # G - H isomorphic to 2K4 takes the perfectly-balanced override, and
        # H keeps the statement it was handed.
        for h, n, statements in (("CUBE", 16, (Statement.I, Statement.II)),
                                 ("PRISM", 14, (Statement.III, Statement.IV))):
            g = disjoint_union([named("K4"), named("K4"), named(h)])
            for s in statements:
                res = decompose(g, s.value)
                assert profile_of(g, res.subset) == target_profile(n, s)
                assert f"case1:rest=2K4-balanced,H={s.value}" in res.branch_trace, (h, s)

    def test_unions_corpus(self, full_corpus):
        for name, g in full_corpus:
            for s in applicable_statements(g.n):
                try:
                    sub = decompose(g, s.value).subset
                except ExceptionGraph:
                    continue
                assert profile_of(g, sub) == target_profile(g.n, s), (name, s)

    def test_deterministic(self):
        g = disjoint_union([named("PRISM"), named("CUBE"), named("K4")])
        assert decompose(g, Statement.III.value).subset.bits == decompose(g, Statement.III.value).subset.bits


class TestEmptyGraph:
    """The graph with no vertices: the empty subset reaches every target that
    fits n = 0, and II-IV, which need n >= 4 or n = 4t+2, refuse it."""

    @pytest.mark.parametrize("statement, trace, k", [
        ("I", ("empty",), 4),
        ("BALANCED", ("balanced:I", "empty"), 4),
        ("TWO_REGULAR", ("empty",), 3),
    ])
    def test_whole_result(self, statement, trace, k):
        g = build_graph(0, [])
        zero = DegreeProfile((0,) * k)
        assert decompose(g, statement) == DecompositionResult(
            statement, EdgeSubset(0), zero, zero, Fraction(0), trace, False
        )
        assert statement_target(g, statement) == zero

    @pytest.mark.parametrize("statement", ["II", "III", "IV"])
    def test_parity_refusals(self, statement):
        g = build_graph(0, [])
        with pytest.raises(ParityMismatch):
            decompose(g, statement)
        with pytest.raises(ParityMismatch):
            statement_target(g, statement)

    def test_balanced_document_bytes(self):
        g = build_graph(0, [])
        assert render_result(_document("empty", g, decompose(g, "BALANCED"))) == (
            '{"input_name":"empty","n":0,"statement":"BALANCED","target_profile":[0,0,0,0],'
            '"achieved_profile":[0,0,0,0],"subgraph_edges":[],"max_deviation":"0",'
            '"branch_trace":["balanced:I","empty"],"fallback_used":false}'
        )


class TestDecomposeBalanced:
    def test_petersen(self):
        res = decompose(named("PETERSEN"), "BALANCED")
        assert res.max_deviation == Fraction(1, 2)
        assert res.statement == "BALANCED"

    def test_k33_exception(self):
        res = decompose(named("K33"), "BALANCED")
        assert res.max_deviation == Fraction(3, 2)
        assert any("K33_III" in t for t in res.branch_trace)

    def test_k4_exception(self):
        res = decompose(named("K4"), "BALANCED")
        assert res.max_deviation == 1
        assert res.achieved.counts in ((0, 0, 2, 2), (2, 2, 0, 0))

    def test_3k4_exception(self):
        res = decompose(disjoint_union([named("K4")] * 3), "BALANCED")
        assert res.max_deviation == 1
        assert res.achieved.counts == (2, 2, 4, 4)

    def test_2k4_not_exception(self):
        res = decompose(disjoint_union([named("K4")] * 2), "BALANCED")
        assert res.max_deviation == 0

    def test_floor_ceil_membership(self, full_corpus):
        for name, g in full_corpus:
            res = decompose(g, "BALANCED")
            if any(t.startswith("exception:") for t in res.branch_trace):
                continue
            lo, hi = g.n // 4, -(-g.n // 4)
            assert all(c in (lo, hi) for c in res.achieved.counts), name

    def test_achieved_matches_subset(self, full_corpus):
        for name, g in full_corpus:
            res = decompose(g, "BALANCED")
            assert profile_of(g, res.subset) == res.achieved, name

    def test_600_prisms_no_recursion_limit(self):
        # Case 1 peels 599 prisms; a recursion per peel overflowed the stack.
        k = 600
        res = decompose(disjoint_union([named("PRISM")] * k), "BALANCED")
        assert res.max_deviation == 0
        assert len(res.branch_trace) <= 3 * k


class TestOneRunPerShape:
    """Within one call, case 1 decomposes each (shape, statement) pair once
    and case 2 realizes each (shape, tuple) pair once; nothing carries over
    to the next call."""

    def runs(self, monkeypatch):
        calls = []

        def counted(h, s):
            calls.append((h, s))
            return decompose_connected_traced(h, s)

        monkeypatch.setattr(general_mod, "decompose_connected_traced", counted)
        return calls

    @pytest.mark.parametrize("s", [Statement.I, Statement.II])
    def test_50_petersen(self, monkeypatch, s):
        calls = self.runs(monkeypatch)
        g = disjoint_union([named("PETERSEN")] * 50)
        first = decompose(g, s.value)
        statements = {t for _, t in calls}
        assert len(calls) == len(statements) >= 2
        assert len({id(h) for h, _ in calls}) == 1
        assert decompose(g, s.value) == first
        assert len(calls) == 2 * len(statements)

    def test_relabeled_copy_runs_apart(self, monkeypatch):
        calls = self.runs(monkeypatch)
        p = named("PETERSEN")
        copy = build_graph(10, [(9 - u, 9 - v) for u, v in p.edges])
        assert copy != p
        decompose(disjoint_union([p, p, copy, p]), "I")
        assert len({(h.edges, t) for h, t in calls}) == len(calls)
        assert {h.edges for h, _ in calls} == {p.edges, copy.edges}

    def test_case2_realizes_each_shape_and_tuple_once(self, monkeypatch):
        calls = []

        def counted(h, cls, counts):
            calls.append((h.edges, counts))
            return realize_tuple_on(h, cls, counts)

        monkeypatch.setattr(general_mod, "realize_tuple_on", counted)
        k4, k33 = named("K4"), named("K33")
        copy = build_graph(6, [(i, j) for i in (0, 2, 4) for j in (1, 3, 5)])
        assert copy != k33
        g = disjoint_union([k4] * 30 + [k33] * 30 + [copy, k33, copy])
        for s in (Statement.III, Statement.IV):
            del calls[:]
            first = decompose(g, s.value)
            distinct = set(calls)
            assert len(calls) == len(distinct) < 8
            assert {h for h, _ in calls} == {k4.edges, k33.edges, copy.edges}
            assert decompose(g, s.value) == first
            assert sorted(calls) == sorted(2 * list(distinct))

    def test_forced_block_warns_once_per_shape(self, monkeypatch, caplog):
        monkeypatch.setattr(connected_mod, "stage2_fill_v2", lambda state: False)
        calls = self.runs(monkeypatch)
        g = disjoint_union([named("CUBE")] * 6)
        res = decompose(g, "I")
        assert res.fallback_used and profile_of(g, res.subset) == target_profile(g.n, Statement.I)
        warned = [r for r in caplog.records if r.getMessage().startswith("fallback used")]
        assert len(warned) == len(calls) < 6

    @pytest.mark.parametrize("parts, cubes", [
        (("CUBE", "PETERSEN", "PETERSEN"), 1),  # the cube is peeled
        (("PETERSEN", "PETERSEN", "CUBE"), 1),  # the cube is the tail
        (("CUBE", "CUBE", "PETERSEN", "PETERSEN"), 2),
        (("PETERSEN",) * 4, 0),
    ])
    def test_fallback_flag_follows_the_blocked_component(self, monkeypatch, parts, cubes):
        # Only the cubes block, so the flag is set by their runs and no other.
        stage2 = connected_mod.stage2_fill_v2

        def block_cubes(state):
            return state.host.n != 8 and stage2(state)

        monkeypatch.setattr(connected_mod, "stage2_fill_v2", block_cubes)
        g = disjoint_union([named(p) for p in parts])
        for s in applicable_statements(g.n):
            res = decompose(g, s.value)
            assert res.fallback_used is (cubes > 0), (parts, s)
            assert sum(t.endswith("staged:blocked->fallback") for t in res.branch_trace) == cubes
            assert res.achieved == profile_of(g, res.subset) == target_profile(g.n, s)


class TestOneSplit:
    """decompose(g, "BALANCED") splits g into components exactly once, and
    decompose_connected_traced, given a connected graph, not at all."""

    def splits(self, monkeypatch, g, run=lambda h: decompose(h, "BALANCED")):
        calls = []

        def counted(h):
            calls.append(h.n)
            return connected_components(h)

        for module in (graphs_mod, connected_mod, general_mod):
            monkeypatch.setattr(module, "connected_components", counted, raising=False)
        run(g)
        return len(calls)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_connected(self, monkeypatch, seed):
        g = random_cubic(1000, seed)
        assert len(connected_components(g)) == 1
        assert self.splits(monkeypatch, g) == 1

    def test_50_petersen(self, monkeypatch):
        assert self.splits(monkeypatch, disjoint_union([named("PETERSEN")] * 50)) == 1

    @pytest.mark.parametrize("name, label", [
        ("K4", "exception:K4_I:best-effort:II"),
        ("K33", "exception:K33_III:best-effort:IV"),
        ("3K4", "exception:THREE_K4_I:best-effort:II"),
        ("PETERSEN", "balanced:III"),
    ])
    def test_exception_retry_reuses_the_split(self, monkeypatch, name, label):
        # The refused statement and the best-effort one share one split.
        g = disjoint_union([named("K4")] * 3) if name == "3K4" else named(name)
        results = []
        assert self.splits(monkeypatch, g, lambda h: results.append(decompose(h, "BALANCED"))) == 1
        assert results[0].branch_trace[0] == label

    def test_special_14_block(self, monkeypatch):
        monkeypatch.setattr(connected_mod, "stage2_fill_v2", lambda state: False)
        traces = []

        def run(g):
            traces.append(decompose_connected_traced(g, Statement.III)[1])

        assert self.splits(monkeypatch, PATTERN_14, run) == 0
        assert traces[0].fallback_used


def outcome(call, g, statement):
    """call(g, statement), or the class and message of what it raised."""
    try:
        return call(g, statement)
    except DegbalError as exc:
        return type(exc), str(exc)


class TestKeptAnalyses:
    """A Graph keeps its component split once found, so a later decompose or
    statement_target on the same object does not search again; no cycle is
    searched for or kept.  What each call returns must not depend on what
    ran before it."""

    @staticmethod
    def graphs():
        k4 = named("K4")
        yield from (parse_graph6(line) for line in corpus_lines())
        yield from (k4, disjoint_union([k4] * 3), build_graph(0, []), random_cubic(202, 5),
                    disjoint_union([named("PETERSEN"), k4, named("PETERSEN"), named("K33"),
                                    random_cubic(40, 1), named("PRISM")]))

    def test_results_match_a_fresh_copy_in_any_order(self):
        kinds = set()
        for g in self.graphs():
            statements = [s.value for s in applicable_statements(g.n)] + ["BALANCED"]
            order = statements + statements[::-1]
            for s, after in zip(order, order[1:] + order[:1]):
                got = outcome(decompose, g, s)
                assert got == outcome(decompose, Graph(g.n, g.tails, g.heads), s), (g, s)
                kinds.add(type(got))
                # statement_target in between: it reads the same kept split.
                assert (outcome(statement_target, g, after)
                        == outcome(statement_target, Graph(g.n, g.tails, g.heads), after))
            assert connected_components(g) == connected_components(Graph(g.n, g.tails, g.heads))
        assert kinds == {tuple, general_mod.DecompositionResult}  # refusals were met too

    @pytest.mark.parametrize("build", [
        lambda: random_cubic(400, 2), lambda: random_cubic(402, 2),
        lambda: disjoint_union([named("PETERSEN")] * 3 + [random_cubic(30, 4)]),
    ], ids=["n=400", "n=402", "union"])
    def test_each_search_runs_once_per_graph(self, monkeypatch, build):
        g, searched = build(), []
        search = graphs_mod._find_components

        def counted(h):
            searched.append(id(h))
            return search(h)

        def refused(h):
            raise AssertionError("decompose searched for a shortest cycle")

        monkeypatch.setattr(graphs_mod, "_find_components", counted)
        # Every degbal module that bound shortest_cycle by name.
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "degbal"]:
            for attr, value in list(vars(module).items()):
                if value is graphs_mod.shortest_cycle:
                    monkeypatch.setattr(module, attr, refused)
        for s in [s.value for s in applicable_statements(g.n)] * 2 + ["BALANCED"]:
            statement_target(g, s)
            decompose(g, s)
        assert searched == [id(g)]  # the host's split, once
        kept = {"n", "tails", "heads", "adjacency", "_degrees", "_parts"}
        for h in {g} | {c.graph for c in connected_components(g)}:
            assert set(vars(h)) <= kept


class TestDecomposeTwoRegular:
    def test_c6(self):
        res = decompose(cycles([6]), "TWO_REGULAR")
        assert res.achieved.counts == (2, 2, 2)

    def test_exceptions(self):
        with pytest.raises(ExceptionGraph) as exc:
            decompose(cycles([3, 3]), "TWO_REGULAR")
        assert exc.value.kind is ExceptionKind.TWO_C3
        with pytest.raises(ExceptionGraph) as exc:
            decompose(cycles([4, 4]), "TWO_REGULAR")
        assert exc.value.kind is ExceptionKind.TWO_C4

    def test_c9(self):
        res = decompose(cycles([9]), "TWO_REGULAR")
        assert res.achieved.count(1) % 2 == 0
        assert res.max_deviation <= 1
        assert find_witness(cycles([9]), res.achieved) is not None

    def test_single_small_cycles(self):
        for a in (3, 4, 5, 6, 7, 8):
            g = cycles([a])
            res = decompose(g, "TWO_REGULAR")
            third = Fraction(a, 3)
            bound = 1 if third.denominator == 1 and third.numerator % 2 else Fraction(2, 3)
            assert res.max_deviation <= bound, a

    def test_even_ones_always(self):
        for parts in ([3, 4], [5, 7], [3, 3, 3], [6, 6], [4, 5, 6]):
            res = decompose(cycles(parts), "TWO_REGULAR")
            assert res.achieved.count(1) % 2 == 0, parts

    def test_not_two_regular(self):
        with pytest.raises(NotRegular):
            decompose(named("K4"), "TWO_REGULAR")

    def test_empty(self):
        res = decompose(build_graph(0, []), "TWO_REGULAR")
        assert res.achieved.counts == (0, 0, 0)

    def test_23_c5_past_the_old_cap(self):
        assert_two_regular_within_bound([5] * 23)

    def test_2000_c3(self):
        assert_two_regular_within_bound([3] * 2000)

    def test_c3001_one_host_many_paths(self):
        assert_two_regular_within_bound([3001])

    def test_21_c5_under_a_second(self):
        start = time.perf_counter()
        assert_two_regular_within_bound([5] * 21)
        assert time.perf_counter() - start < 1

    @settings(max_examples=60, deadline=None)
    @given(
        parts=st.lists(st.integers(3, 12), min_size=1, max_size=300).filter(
            lambda parts: sorted(parts) not in ([3, 3], [4, 4])
        )
    )
    def test_random_unions_within_bound(self, parts):
        assert_two_regular_within_bound(parts)

    def test_counts_are_the_reference_search_first(self):
        for n in range(3, 20_000):
            assert general_mod._two_regular_plan([n], n)[0] == first_balanced_triple(n), n

    def test_every_partition_25_to_36(self):
        # Extends acceptance criterion 7 (n <= 24); no exception graph here.
        graphs = 0
        for n in range(25, 37):
            for parts in partitions_min3(n):
                assert_two_regular_within_bound(parts)
                graphs += 1
        assert graphs == 5094

    def test_deviation_is_the_exact_minimum_to_26(self):
        # Criterion 7 checks the bound; here no spanning subgraph of any union does better.
        compared, refused = 0, []
        for n in range(3, 27):
            for parts in partitions_min3(n):
                g = cycles(parts)
                try:
                    res = decompose(g, "TWO_REGULAR")
                except ExceptionGraph as exc:
                    refused.append((parts, exc.kind))
                    continue
                assert res.max_deviation == min_max_deviation(g), parts
                compared += 1
        assert compared == 858
        assert refused == [([3, 3], ExceptionKind.TWO_C3), ([4, 4], ExceptionKind.TWO_C4)]


class TestFlatTrace:
    """Peel labels, then the "rest:" entries, then the "H:" entries."""

    def test_two_peels_then_2k4_tail(self):
        g = disjoint_union([named("PRISM"), named("CUBE"), named("K4"), named("K4")])
        assert list(decompose(g, "III").branch_trace) == [
            "case1:rest=II,H=IV~c|whole~c",
            "case1:rest=2K4-balanced,H=II",
            "H:base:PRISM:P3",
            "H:staged:II:cycle=4",
        ]

    def test_one_peel_connected_rest(self):
        g = disjoint_union([named("PETERSEN"), named("K4")])
        assert list(decompose(g, "III").branch_trace) == [
            "case1:rest=II,H=IV~c|whole~c",
            "rest:base:K4:single-edge",
            "H:staged:IV:cycle=5",
        ]


class TestOneProfileCount:
    """decompose counts the achieved profile of its subset once, and refuses
    a subset whose count misses the target."""

    @staticmethod
    def flip_bit_0(sub):
        return EdgeSubset(sub.m, sub.bits ^ 1)

    @pytest.mark.parametrize("graph, statement", [
        (named("PETERSEN"), "BALANCED"),
        (named("CUBE"), "I"),
        (disjoint_union([named("PETERSEN")] * 2), "II"),
    ])
    def test_flipped_subset_is_stuck(self, monkeypatch, graph, statement):
        def flipped(*args):
            sub, trace, fallback = decompose_traced(*args)
            return self.flip_bit_0(sub), trace, fallback

        monkeypatch.setattr(general_mod, "decompose_traced", flipped)
        with pytest.raises(InternalStuck):
            decompose(graph, statement)

    def test_flipped_two_regular_subset_is_stuck(self, monkeypatch):
        build = general_mod._build_two_regular
        monkeypatch.setattr(
            general_mod, "_build_two_regular", lambda *args: self.flip_bit_0(build(*args))
        )
        with pytest.raises(InternalStuck):
            decompose(cycles([3, 4, 5]), "TWO_REGULAR")

    def test_50_petersen_counts_once(self, monkeypatch):
        calls = []

        def counted(g, sub):
            calls.append(g.n)
            return profile_of(g, sub)

        for module in (general_mod, connected_mod):
            monkeypatch.setattr(module, "profile_of", counted, raising=False)
        g = disjoint_union([named("PETERSEN")] * 50)
        res = decompose(g, "I")
        assert calls == [500]
        assert res.achieved == profile_of(g, res.subset) == target_profile(500, Statement.I)


class TestDecomposeResult:
    def test_statement_runs_carry_trace(self):
        g = disjoint_union([named("K4"), named("K33")])
        res = decompose(g, "III")
        assert res.statement == "III"
        assert res.achieved.counts == (2, 3, 2, 3)
        assert res.branch_trace and not res.fallback_used

    def test_benchmark_entries_are_decompose(self):
        # bench/run.py calls these three by name.
        g = disjoint_union([named("K4"), named("PETERSEN"), named("CUBE"), named("K33")])
        c = cycles([3, 4, 5, 7])
        assert g.n % 4 == 0
        assert decompose_result(g, Statement.II) == decompose(g, "II")
        assert decompose_balanced(g) == decompose(g, "BALANCED")
        assert decompose_two_regular(c) == decompose(c, "TWO_REGULAR")


def _outcome(fn, g, name):
    """fn(g, name), or the class of the refusal it raises."""
    try:
        return fn(g, name)
    except (ExceptionGraph, NotRegular, ParityMismatch) as exc:
        return type(exc)


CUBIC_STATEMENTS = ("I", "II", "III", "IV", "BALANCED")


class TestStatementTarget:
    """statement_target, which verify reads, is the target decompose reaches."""

    def assert_agrees(self, g, name, label):
        result = _outcome(decompose, g, name)
        target = _outcome(statement_target, g, name)
        if result is ExceptionGraph and name in Statement.__members__:
            # I-IV keep their formula on an exception graph: the target
            # exists, and no subgraph reaches it.
            assert target == target_profile(g.n, Statement[name]), (label, name)
        elif isinstance(result, type):
            assert target is result, (label, name)
        else:
            assert target == result.target, (label, name)

    def test_fixture_graphs_and_named_catalog(self):
        graphs = [(line, parse_graph6(line)) for line in corpus_lines()]
        graphs += [(name, named(name)) for name in CATALOG_NAMES]
        for label, g in graphs:
            for name in CUBIC_STATEMENTS + ("TWO_REGULAR",):
                self.assert_agrees(g, name, label)

    def test_cycle_unions_under_two_regular(self):
        for n in range(16):
            for parts in partitions_min3(n):
                self.assert_agrees(cycles(parts), "TWO_REGULAR", parts)

    def test_graphs_of_other_degrees_under_the_cubic_statements(self):
        # Cycle unions and K4,4 are not 3-regular, bar the empty union: both
        # refuse them under every cubic statement, whatever n mod 4 is.
        graphs = [(parts, cycles(parts)) for n in range(16) for parts in partitions_min3(n)]
        graphs.append(("K4,4", build_graph(8, [(u, v) for u in range(4) for v in range(4, 8)])))
        for label, g in graphs:
            for name in CUBIC_STATEMENTS:
                self.assert_agrees(g, name, label)
