import itertools
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import degbal.oracle as oracle_mod
from degbal.connected import target_profile
from degbal.errors import CapExceeded, NotRegular
from degbal.gen import cycles, disjoint_union, named, random_cubic
from degbal.graphs import (
    DegreeProfile,
    EdgeSubset,
    build_graph,
    connected_components,
    inferred_degree,
    profile_of,
)
from degbal.oracle import (
    achievable_profiles,
    find_witness,
    min_max_deviation,
)

from conftest import applicable_statements, circulant

K4_BASE_TUPLES = [
    (0, 0, 0, 4), (0, 0, 2, 2), (0, 0, 4, 0),
    (0, 1, 2, 1), (0, 2, 2, 0), (0, 3, 0, 1),
]
K33_BASE_TUPLES = [
    (0, 0, 0, 6), (0, 0, 2, 4), (0, 0, 4, 2), (0, 0, 6, 0),
    (0, 1, 2, 3), (0, 1, 4, 1), (0, 2, 2, 2), (0, 3, 2, 1),
    (0, 4, 0, 2), (0, 4, 2, 0), (1, 0, 3, 2), (1, 1, 3, 1),
]


def reference_first_witnesses(g):
    """Plain-loop rank-order enumeration, independent of the dynamic program."""
    first = {}
    for mask in range(1 << g.m):
        counts = profile_of(g, EdgeSubset(g.m, mask)).counts
        if counts not in first:
            first[counts] = mask
    return first


def numpy_first_witnesses(g):
    """Rank-order enumeration of all 2^m masks with numpy, in chunks of 2^20.

    Each mask's profile is coded base n+1; np.unique gives each code's first
    mask in a chunk, and earlier chunks win.
    """
    np = pytest.importorskip("numpy")
    d = inferred_degree(g)
    base = g.n + 1
    inc = [0] * g.n
    for i, (u, v) in enumerate(g.edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    first = {}
    total = 1 << g.m
    for lo in range(0, total, 1 << 20):
        masks = np.arange(lo, min(lo + (1 << 20), total), dtype=np.uint64)
        counts = np.zeros((d + 1, len(masks)), dtype=np.int64)
        for v in range(g.n):
            deg = np.bitwise_count(masks & np.uint64(inc[v]))
            for k in range(d + 1):
                counts[k] += deg == k
        codes = np.zeros(len(masks), dtype=np.int64)
        for k in range(d, -1, -1):
            codes = codes * base + counts[k]
        uniq, idx = np.unique(codes, return_index=True)
        for code, i in zip(uniq.tolist(), idx.tolist()):
            first.setdefault(code, lo + i)
    report = {}
    for code, mask in first.items():
        counts = []
        for _ in range(d + 1):
            code, count = divmod(code, base)
            counts.append(count)
        report[tuple(reversed(counts))] = mask  # (n_d, ..., n_0)
    return report


def _complete(n):
    return build_graph(n, list(itertools.combinations(range(n), 2)))


# Every graph with m <= 21 the dynamic program is checked on against numpy.
NUMPY_CHECKED = {
    **{name: (lambda name=name: named(name))
       for name in ["K4", "K33", "PRISM", "CUBE", "PETERSEN", "HEAWOOD"]},
    **{f"random{n}:{s}": (lambda n=n, s=s: random_cubic(n, s))
       for n in range(8, 15, 2) for s in (1, 2)},
    "2K4": lambda: disjoint_union([named("K4")] * 2),
    "3K4": lambda: disjoint_union([named("K4")] * 3),
    "K4+K33": lambda: disjoint_union([named("K4"), named("K33")]),
    "C6": lambda: cycles([6]),
    "C3+C4+C5": lambda: cycles([3, 4, 5]),
    "2K2": lambda: build_graph(4, [(0, 1), (2, 3)]),
    "K5": lambda: _complete(5),
    "K6": lambda: _complete(6),
    "K7": lambda: _complete(7),
}


def flat_report(g):
    """The report's DP with each layer one flat {state: smallest mask} dict.

    The reference for achievable_profiles, which groups each layer by open
    degrees over the same states, edge order and smallest-mask rule.
    Returns ({counts: first mask}, largest layer).
    """
    d = inferred_degree(g)
    n = g.n
    if g.m == 0:
        return {profile_of(g, EdgeSubset(0)).counts: 0}, 1
    b = d.bit_length()
    c = n.bit_length()
    low = (1 << b) - 1
    base = (d + 1) * c
    order = oracle_mod._frontier_order(g)
    last = {v: k for k, i in enumerate(order) for v in g.edges[i]}  # final at step k
    above = 1 << g.m  # larger than every mask
    states = {0: 0}  # state -> smallest mask of the decided edges reaching it
    largest = 1
    for k, i in enumerate(order):
        u, v = g.edges[i]
        ou, ov = base + u * b, base + v * b
        step, bit = (1 << ou) + (1 << ov), 1 << i
        # The degrees of u and v index the change that moves those of them
        # whose last edge this is into the counts.
        end_u, end_v = last[u] == k, last[v] == k
        change = [
            end_u * ((1 << (x & low) * c) - ((x & low) << ou))
            + end_v * ((1 << (x >> b) * c) - ((x >> b) << ov))
            for x in range(1 << 2 * b)
        ]
        layer = {}
        get = layer.get
        for s, mask in states.items():
            t = s + change[s >> ou & low | (s >> ov & low) << b]
            if mask < get(t, above):
                layer[t] = mask
            t = s + step
            t += change[t >> ou & low | (t >> ov & low) << b]
            mask |= bit
            if mask < get(t, above):
                layer[t] = mask
        largest = max(largest, len(layer))
        states = layer

    # Every vertex is final: a state is its counts alone.
    top = (1 << c) - 1
    report = {tuple(s >> k * c & top for k in range(d, -1, -1)): mask for s, mask in states.items()}
    return report, largest


# Graphs the grouped DP is checked on against the flat one, with edge caps.
# The 4-regular C12(1,5) and C13(1,5) and the 5-regular C10(2,4,5) merge
# groups whose frames differ by negative offsets, and into dicts that both
# branches of one group still share.
FLAT_CHECKED = {
    **{f"random{n}:{s}": (lambda n=n, s=s: random_cubic(n, s), None)
       for n in range(8, 17, 2) for s in (1, 2, 3)},
    **{f"C{n}{jumps}": (lambda n=n, jumps=jumps: circulant(n, jumps), None)
       for n, jumps in ((11, (1, 2)), (11, (2, 5)), (13, (3, 5)), (12, (1, 5)), (13, (1, 5)),
                        (10, (2, 4, 5)))},
    **{f"K{n}": (lambda n=n: _complete(n), None) for n in (5, 6, 7)},
    "C6": (lambda: cycles([6]), None),
    "C3+C4+C5": (lambda: cycles([3, 4, 5]), None),
    "2C3+C7": (lambda: cycles([3, 3, 7]), None),
    "2K4": (lambda: disjoint_union([named("K4")] * 2), None),
    "3K4": (lambda: disjoint_union([named("K4")] * 3), None),
    "K4+K33": (lambda: disjoint_union([named("K4"), named("K33")]), None),
    "5K1": (lambda: build_graph(5, []), None),
    "random20:0": (lambda: random_cubic(20, 0), 30),
}


@pytest.mark.parametrize("name", sorted(FLAT_CHECKED))
def test_grouped_layers_match_the_flat_dp(monkeypatch, name):
    """Same profiles, witness bits, deviation and largest layer as one flat dict."""
    build, edge_cap = FLAT_CHECKED[name]
    g = build()
    ref, largest = flat_report(g)
    rep = achievable_profiles(g, edge_cap)
    assert [p.counts for p in rep.achievable] == sorted(ref)
    assert list(rep.witness) == list(rep.achievable)
    assert {p.counts: w.bits for p, w in rep.witness.items()} == ref
    assert rep.min_max_deviation == min(DegreeProfile(c).max_deviation() for c in ref)
    if g.m:
        monkeypatch.setattr(oracle_mod, "STATE_CAP", largest)
        assert achievable_profiles(g, edge_cap) == rep
        monkeypatch.setattr(oracle_mod, "STATE_CAP", largest - 1)
        with pytest.raises(CapExceeded, match=f"^{largest} states exceed"):
            achievable_profiles(g, edge_cap)


def test_reports_in_a_row_share_no_state():
    g = circulant(12, (1, 5))
    first = achievable_profiles(g)
    second = achievable_profiles(g)
    assert first == second and first.witness is not second.witness
    first.witness.clear()
    assert achievable_profiles(g) == second


class TestAgainstNumpy:
    """The dynamic program's report equals the numpy scan's, witness for witness."""

    @pytest.mark.parametrize("name", sorted(NUMPY_CHECKED))
    def test_same_report(self, name):
        g = NUMPY_CHECKED[name]()
        if name.startswith("random"):
            assert len(connected_components(g)) == 1
        assert g.m <= 21
        ref = numpy_first_witnesses(g)
        rep = achievable_profiles(g)
        assert (rep.graph_order, rep.degree, rep.edge_count) == (g.n, inferred_degree(g), g.m)
        assert [p.counts for p in rep.achievable] == sorted(ref)
        assert {p.counts: w.bits for p, w in rep.witness.items()} == ref
        assert rep.min_max_deviation == min(DegreeProfile(c).max_deviation() for c in ref)


def test_runtime_does_not_import_numpy():
    code = (
        "import sys, degbal\n"
        "from degbal.gen import named\n"
        "degbal.achievable_profiles(named('PETERSEN'))\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestK4:
    def test_achievable_set(self):
        rep = achievable_profiles(named("K4"))
        ach = {p.counts for p in rep.achievable}
        for t in K4_BASE_TUPLES:
            assert t in ach
            assert tuple(reversed(t)) in ach
        # the six base tuples and their reversals, one self-reversal among
        # them, are exactly what enumeration finds: 11 distinct profiles
        expected = set(K4_BASE_TUPLES) | {tuple(reversed(t)) for t in K4_BASE_TUPLES}
        assert ach == expected
        assert len(ach) == 11

    def test_1111_not_achievable(self):
        assert find_witness(named("K4"), DegreeProfile((1, 1, 1, 1))) is None

    def test_min_deviation_one(self):
        assert min_max_deviation(named("K4")) == 1

    def test_matches_reference_loop(self):
        g = named("K4")
        rep = achievable_profiles(g)
        ref = reference_first_witnesses(g)
        assert {p.counts for p in rep.achievable} == set(ref)
        for p in rep.achievable:
            assert rep.witness[p].bits == ref[p.counts]


class TestK33:
    def test_achievable_is_exactly_base_list_closed_under_reversal(self):
        rep = achievable_profiles(named("K33"))
        ach = {p.counts for p in rep.achievable}
        expected = set(K33_BASE_TUPLES) | {
            tuple(reversed(t)) for t in K33_BASE_TUPLES
        }
        assert ach == expected
        assert len(ach) == 24

    def test_iii_target_not_achievable(self):
        assert find_witness(named("K33"), DegreeProfile((1, 2, 1, 2))) is None

    def test_min_deviation(self):
        assert min_max_deviation(named("K33")) == Fraction(3, 2)


class TestUnions:
    def test_2k4_ii_target_not_achievable(self):
        g = disjoint_union([named("K4")] * 2)
        assert find_witness(g, DegreeProfile((1, 1, 3, 3))) is None

    def test_3k4(self):
        g = disjoint_union([named("K4")] * 3)
        assert find_witness(g, DegreeProfile((3, 3, 3, 3))) is None
        assert find_witness(g, DegreeProfile((2, 2, 4, 4))) is not None
        assert min_max_deviation(g) == 1


class TestWitnesses:
    @pytest.mark.parametrize("name", ["K4", "K33", "PRISM", "CUBE"])
    def test_witnesses_reproduce_profiles(self, name):
        g = named(name)
        rep = achievable_profiles(g)
        for p in rep.achievable:
            assert profile_of(g, rep.witness[p]) == p

    def test_prism_witness_matches_reference(self):
        g = named("PRISM")
        rep = achievable_profiles(g)
        ref = reference_first_witnesses(g)
        for p in rep.achievable:
            assert rep.witness[p].bits == ref[p.counts]

    def test_prism_iii_target_achievable(self):
        assert find_witness(named("PRISM"), DegreeProfile((1, 2, 1, 2))) is not None

    def test_find_witness_none_for_wrong_shape(self):
        assert find_witness(named("K4"), DegreeProfile((4,))) is None
        assert find_witness(named("K4"), DegreeProfile((1, 1, 1, 2))) is None


def _witness_graph(name):
    if name == "C10(1,3)":
        return circulant(10, (1, 3))
    g = NUMPY_CHECKED[name]()
    assert not name.startswith("random") or len(connected_components(g)) == 1
    return g


class TestFindWitnessAgainstReport:
    """The single-profile search agrees with the full enumeration.

    Every profile of order n with d + 1 classes is asked, so the search's
    per-class bounds are checked at d = 2, 3, 4 (C10(1,3), m = 20) and 5,
    and on unions, whose components' vertices finish interleaved.  Whole
    subsets are compared, edge count included.
    """

    @pytest.mark.parametrize(
        "name", ["K4", "K33", "PRISM", "CUBE", "PETERSEN", "random10:1", "random10:2",
                 "random14:1", "random14:2", "C3+C4+C5", "C10(1,3)", "K6",
                 "2K4", "3K4", "K4+K33"]
    )
    def test_every_profile(self, name):
        g = _witness_graph(name)
        rep = achievable_profiles(g)
        for counts in itertools.product(range(g.n + 1), repeat=rep.degree + 1):
            if sum(counts) != g.n:
                continue
            p = DegreeProfile(counts)
            found = find_witness(g, p)
            if p in rep.witness:
                assert found == rep.witness[p], counts
            else:
                assert found is None, counts


class TestProperties:
    @pytest.mark.parametrize("name", ["K4", "K33", "PRISM", "CUBE"])
    def test_closed_under_reversal(self, name):
        rep = achievable_profiles(named(name))
        ach = {p.counts for p in rep.achievable}
        assert all(tuple(reversed(t)) in ach for t in ach)

    @pytest.mark.parametrize("name", ["K4", "K33", "PRISM", "CUBE"])
    def test_handshake_parity(self, name):
        rep = achievable_profiles(named(name))
        # counts[::2] are the vertices of odd degree, 3 and 1: an even number
        assert all(sum(p.counts[::2]) % 2 == 0 for p in rep.achievable)


class TestGenericDegree:
    def test_two_regular(self):
        rep = achievable_profiles(cycles([6]))
        assert rep.degree == 2
        assert DegreeProfile((2, 2, 2)) in rep.witness
        assert rep.min_max_deviation == 0

    def test_four_regular_k5(self):
        k5 = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        rep = achievable_profiles(k5)
        assert rep.degree == 4
        assert all(p.order == 5 for p in rep.achievable)

    def test_not_regular(self):
        with pytest.raises(NotRegular):
            achievable_profiles(build_graph(3, [(0, 1)]))


class TestLargestCubic:
    def test_random_16_report_in_two_seconds(self):
        g = random_cubic(16, 1)  # m = 24; the numpy scan took about 4 s
        start = time.perf_counter()
        rep = achievable_profiles(g)
        assert time.perf_counter() - start < 2
        for counts in ((4, 4, 4, 4), (g.n - 2, 0, 2, 0)):
            p = DegreeProfile(counts)
            assert rep.witness.get(p) == find_witness(g, p), counts


@pytest.mark.slow
@pytest.mark.parametrize("n", range(18, 33, 2))
def test_find_witness_matches_the_report_past_the_cap(monkeypatch, n):
    """Both statements' targets and (n-2, 0, 2, 0) on random_cubic(n, 1) and
    (n, 2), m = 27 to 48, with the edge cap raised to m.  The report on
    random_cubic(30, 2) holds 1,117,728 states in one layer, so the state
    cap is doubled here: the report is the reference, not the subject."""
    monkeypatch.setattr(oracle_mod, "STATE_CAP", 1 << 21)
    for seed in (1, 2):
        g = random_cubic(n, seed)
        rep = achievable_profiles(g, edge_cap=g.m)
        for p in (*(target_profile(n, s) for s in applicable_statements(n)),
                  DegreeProfile((n - 2, 0, 2, 0))):
            assert find_witness(g, p, edge_cap=g.m) == rep.witness.get(p), (seed, p.counts)


class TestCap:
    def test_cap_exceeded(self):
        g = random_cubic(20, 0)  # 30 edges
        with pytest.raises(CapExceeded):
            achievable_profiles(g)

    def test_cap_override(self):
        g = named("K4")
        with pytest.raises(CapExceeded):
            achievable_profiles(g, edge_cap=5)
        assert achievable_profiles(g, edge_cap=6).edge_count == 6

    def test_state_cap(self, monkeypatch):
        # Petersen's largest DP layer holds 698 states.
        g = named("PETERSEN")
        report = achievable_profiles(g)
        monkeypatch.setattr(oracle_mod, "STATE_CAP", 698)
        assert achievable_profiles(g) == report
        monkeypatch.setattr(oracle_mod, "STATE_CAP", 697)
        with pytest.raises(CapExceeded, match="state cap 697"):
            achievable_profiles(g)

    # Walking the edges in canonical order, the largest layers held 48,218
    # states on random_cubic(16, 1) and 151,304 on C13(3,5); the small-frontier
    # order needs 6,494 and 28,940.
    @pytest.mark.parametrize("name, cap", [("random16:1", 12_000), ("C13(3,5)", 100_000)])
    def test_frontier_order_fits_a_smaller_state_cap(self, monkeypatch, name, cap):
        g = random_cubic(16, 1) if name == "random16:1" else circulant(13, (3, 5))
        report = achievable_profiles(g)
        monkeypatch.setattr(oracle_mod, "STATE_CAP", cap)
        assert achievable_profiles(g) == report

    @pytest.mark.parametrize("name, largest", [("random16:1", 6_494), ("C13(3,5)", 28_940)])
    def test_largest_layer_at_the_state_cap(self, monkeypatch, name, largest):
        g = random_cubic(16, 1) if name == "random16:1" else circulant(13, (3, 5))
        report = achievable_profiles(g)
        monkeypatch.setattr(oracle_mod, "STATE_CAP", largest)
        assert achievable_profiles(g) == report
        monkeypatch.setattr(oracle_mod, "STATE_CAP", largest - 1)
        with pytest.raises(CapExceeded, match=f"^{largest} states exceed .* cap {largest - 1}$"):
            achievable_profiles(g)

    def test_raised_cap_no_recursion_limit(self):
        g = random_cubic(2000, 1)  # m = 3000 edges, deeper than the recursion limit
        empty = find_witness(g, DegreeProfile((0, 0, 0, g.n)), edge_cap=g.m)
        assert empty.bits == 0
        full = find_witness(g, DegreeProfile((g.n, 0, 0, 0)), edge_cap=g.m)
        assert full.bits == (1 << g.m) - 1

    def test_empty_graph(self):
        rep = achievable_profiles(build_graph(0, []))
        assert rep.edge_count == 0 and len(rep.achievable) == 1

    def test_large_edgeless_report_is_immediate(self):
        # Placing each vertex by a scan of all n took about 75 s at n = 30,000.
        code = (
            "from degbal.graphs import DegreeProfile, build_graph\n"
            "from degbal.oracle import achievable_profiles, find_witness, min_max_deviation\n"
            "g = build_graph(30000, [])\n"
            "p = DegreeProfile((30000,))\n"
            "assert achievable_profiles(g).achievable == (p,)\n"
            "assert min_max_deviation(g) == 0\n"
            "assert find_witness(g, p).bits == 0\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=20)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("n", [0, 3])
    def test_edgeless_find_witness_agrees_with_report(self, n):
        # The graph with no vertices is edgeless like any other: profile (n,).
        g = build_graph(n, [])
        rep = achievable_profiles(g)
        assert rep.achievable == (DegreeProfile((n,)),)
        found = find_witness(g, DegreeProfile((n,)))
        assert found is not None and found.bits == rep.witness[DegreeProfile((n,))].bits == 0
