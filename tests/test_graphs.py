import gc
import hashlib
import inspect
import pickle
import random
import weakref
from dataclasses import fields
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degbal.errors import DegbalError, NotRegular, SizeMismatch
from degbal.formats import encode_graph6
from degbal.gen import CATALOG_NAMES, cycles, disjoint_union, named, random_cubic
from degbal.general import decompose
from degbal.graphs import (
    DegreeProfile,
    EdgeSubset,
    Graph,
    SmallClass,
    build_graph,
    classify_small,
    complement_within,
    connected_components,
    inferred_degree,
    profile_of,
    require_regular,
    shortest_cycle,
    triangle_at_zero,
    _path_to_root,
)

from conftest import FIXTURES, generalized_petersen, load_corpus_file

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def brute_shortest_cycle_length(g, cap=8):
    """Independent girth oracle: test every vertex subset for being a cycle.

    A subset S carries a cycle of length |S| iff every vertex of S has
    exactly two S-neighbors and S is connected.
    """
    for k in range(3, min(cap, g.n) + 1):
        for sub in combinations(range(g.n), k):
            inside = set(sub)
            if any(sum(w in inside for w in g.adjacency[v]) != 2 for v in sub):
                continue
            seen = {sub[0]}
            stack = [sub[0]]
            while stack:
                u = stack.pop()
                for w in g.adjacency[u]:
                    if w in inside and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == k:
                return k
    return None


class TestBuildGraph:
    def test_k4(self):
        g = build_graph(4, K4_EDGES)
        assert g.n == 4 and g.m == 6
        require_regular(g, 3)

    def test_duplicate_edge(self):
        with pytest.raises(DegbalError, match=r"^edge \(0, 1\) listed twice$"):
            build_graph(3, [(0, 1), (0, 1)])

    def test_duplicate_reversed(self):
        with pytest.raises(DegbalError, match=r"^edge \(0, 1\) listed twice$"):
            build_graph(3, [(0, 1), (1, 0)])

    def test_vertex_out_of_range(self):
        with pytest.raises(DegbalError, match=r"^edge \(0,2\) outside \[0,2\)$"):
            build_graph(2, [(0, 2)])

    def test_loop(self):
        with pytest.raises(DegbalError, match="^loop at vertex 0$"):
            build_graph(2, [(0, 0)])

    def test_canonical_order(self):
        g = build_graph(4, [(3, 2), (1, 0), (2, 0)])
        assert g.edges == ((0, 1), (0, 2), (2, 3))
        assert (g.tails, g.heads) == ((0, 0, 2), (1, 2, 3))

    @pytest.mark.parametrize("g", [build_graph(0, []), named("PETERSEN"), random_cubic(300, 4),
                                   cycles([3, 4, 5])], ids=["empty", "petersen", "random", "cycles"])
    def test_edges_view_is_the_zipped_endpoints(self, g):
        assert g.edges == tuple(zip(g.tails, g.heads))
        assert g.m == len(g.tails) == len(g.heads)

    # default_bytes: the size of the default dataclass pickle, which also
    # carried the adjacency rows and the degree set (Python 3.11).
    @pytest.mark.parametrize("g, default_bytes", [
        (build_graph(0, []), 97), (named("PETERSEN"), 245), (random_cubic(300, 4), 4570),
        (random_cubic(3000, 1), 58_570),
    ], ids=["empty", "petersen", "random", "random-3000"])
    def test_pickle_round_trip(self, g, default_bytes):
        # batch -j sends graphs to its workers by pickle.
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and hash(copy) == hash(g)
        assert (copy.edges, copy.adjacency) == (g.edges, g.adjacency)
        assert copy != random_cubic(300, 5)
        # A pickle holds the edges alone, so what decomposing keeps on g stays out.
        fresh = pickle.dumps(Graph(g.n, g.tails, g.heads))
        decompose(g, "BALANCED")
        assert pickle.dumps(g) == fresh
        assert 2 * len(fresh) < default_bytes


def assert_rows_ascending(g):
    """Each adjacency row lists the vertex's neighbours once each, ascending."""
    for row in g.adjacency:
        assert row == tuple(sorted(row))
        assert all(a < b for a, b in zip(row, row[1:]))


class TestAdjacencyRows:
    """Rows are read off the canonical edge order, which lists them ascending."""

    @settings(max_examples=80)
    @given(n=st.integers(0, 16), data=st.data())
    def test_build_graph_on_shuffled_edges(self, n, data):
        pairs = list(combinations(range(n), 2))
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        chosen = data.draw(st.permutations([p for p, k in zip(pairs, keep) if k]))
        flips = data.draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
        g = build_graph(n, [(v, u) if f else (u, v) for (u, v), f in zip(chosen, flips)])
        assert_rows_ascending(g)
        for x in range(n):
            assert set(g.adjacency[x]) == {w for p in chosen if x in p for w in p if w != x}

    @pytest.mark.parametrize("seed", range(5))
    def test_components_of_relabeled_unions(self, seed):
        rng = random.Random(seed)
        parts = [named(rng.choice(CATALOG_NAMES)) for _ in range(rng.randrange(2, 7))]
        parts.append(cycles([3, 5, 4]))
        union = disjoint_union(parts)
        perm = list(range(union.n))
        rng.shuffle(perm)
        g = build_graph(union.n, [(perm[u], perm[v]) for u, v in union.edges])
        assert_rows_ascending(g)
        comps = connected_components(g)
        assert len(comps) == len(parts) + 2
        for c in comps:
            assert_rows_ascending(c.graph)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_named(self, name):
        assert_rows_ascending(named(name))


class TestEdgeLookup:
    """edge_index and has_edge against the sorted edge list, over every pair."""

    def _graphs(self, catalog_graphs):
        regular = list(catalog_graphs)
        regular += [(name, named(name)) for name in CATALOG_NAMES]
        regular += [(f"random_cubic:60:{s}", random_cubic(60, s)) for s in (1, 2, 3)]
        regular += [("cycles:3,4,5", cycles([3, 4, 5]))]
        star = ("star:5", build_graph(5, [(0, i) for i in range(1, 5)]))
        return regular, star

    def test_every_pair_in_and_out_of_range(self, catalog_graphs):
        regular, star = self._graphs(catalog_graphs)
        for name, g in regular + [star]:
            edges = set(g.edges)
            for u in range(-2, g.n + 2):
                for v in range(-2, g.n + 2):
                    pair = (min(u, v), max(u, v))
                    assert g.has_edge(u, v) == (pair in edges), (name, u, v)
                    if pair in edges:
                        i = g.edges.index(pair)
                        assert g.edge_index(u, v) == g.edge_index(v, u) == i, (name, u, v)
                    else:
                        for a, b in ((u, v), (v, u)):
                            with pytest.raises(KeyError):
                                g.edge_index(a, b)

    def test_lowest_neighbour_gives_lowest_edge(self, catalog_graphs):
        regular, _ = self._graphs(catalog_graphs)
        for name, g in regular:
            for v in range(g.n):
                lowest = min(g.edge_index(v, w) for w in g.adjacency[v])
                assert g.edge_index(v, g.adjacency[v][0]) == lowest, (name, v)


class TestValidateRegular:
    def test_k4_cubic(self):
        require_regular(build_graph(4, K4_EDGES), 3)

    def test_path_not_2_regular(self):
        with pytest.raises(NotRegular, match="^graph is not 2-regular$"):
            require_regular(build_graph(3, [(0, 1), (1, 2)]), 2)

    def test_c6_2_regular(self):
        require_regular(cycles([6]), 2)

    def test_empty_regular_of_every_degree(self):
        g = build_graph(0, [])
        for d in range(4):
            require_regular(g, d)
        assert inferred_degree(g) == 0

    def test_irregular_has_no_degree(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(NotRegular):
            inferred_degree(g)


class TestConnectedComponents:
    def test_2k4(self):
        comps = connected_components(disjoint_union([named("K4"), named("K4")]))
        assert len(comps) == 2
        assert all(classify_small(c.graph) is SmallClass.K4 for c in comps)
        assert comps[0].vertices == (0, 1, 2, 3)
        assert comps[1].vertices == (4, 5, 6, 7)

    def test_petersen_single(self):
        g = named("PETERSEN")
        comps = connected_components(g)
        assert len(comps) == 1 and comps[0].graph.n == 10
        # A connected host is its own component, labels unchanged.
        assert comps[0].graph is g
        assert tuple(comps[0].vertices) == tuple(range(10))
        assert comps[0].edges == range(g.m)

    def test_empty(self):
        assert connected_components(build_graph(0, [])) == []

    def test_equal_shapes_share_one_graph(self):
        p = named("PETERSEN")
        comps = connected_components(disjoint_union([p] * 3))
        assert comps[0].graph is comps[1].graph is comps[2].graph
        assert comps[0].graph == p
        assert [c.vertices[0] for c in comps] == [0, 10, 20]

    def test_relabeled_copy_has_its_own_graph(self):
        p = named("PETERSEN")
        copy = build_graph(10, [(9 - u, 9 - v) for u, v in p.edges])
        comps = connected_components(disjoint_union([p, copy, p]))
        assert comps[0].graph is comps[2].graph
        assert comps[1].graph is not comps[0].graph
        assert comps[1].graph == copy != p

    def test_partition(self, full_corpus):
        for _, g in full_corpus:
            comps = connected_components(g)
            seen = sorted(v for c in comps for v in c.vertices)
            assert seen == list(range(g.n))

    def test_edge_maps_cover_the_host(self, full_corpus):
        p = named("PETERSEN")
        copy = build_graph(10, [(9 - u, 9 - v) for u, v in p.edges])
        mix = disjoint_union([named("K33"), p, named("K4"), copy, named("PRISM")] * 3)
        perm = list(range(mix.n))
        random.Random(7).shuffle(perm)
        unions = [
            disjoint_union([p, copy, named("K4"), p]),
            mix,
            build_graph(mix.n, [(perm[u], perm[v]) for u, v in mix.edges]),
            cycles([3, 5, 4, 7]),
        ]
        for g in [g for _, g in full_corpus] + unions:
            comps = connected_components(g)
            for c in comps:
                assert len(c.edges) == c.graph.m
                for i, (u, v) in enumerate(c.graph.edges):
                    assert g.edges[c.edges[i]] == (c.vertices[u], c.vertices[v])
            assert sorted(i for c in comps for i in c.edges) == list(range(g.m))


class TestShortestCycle:
    def test_k4_triangle(self):
        cyc = shortest_cycle(build_graph(4, K4_EDGES))
        assert len(cyc) == 3

    def test_k33_length_4(self):
        assert len(shortest_cycle(named("K33"))) == 4

    def test_petersen_length_5_vs_brute_force(self):
        pet = named("PETERSEN")
        assert brute_shortest_cycle_length(pet) == 5
        assert len(shortest_cycle(pet)) == 5

    def test_forest_none(self):
        assert shortest_cycle(build_graph(4, [(0, 1), (1, 2), (2, 3)])) is None
        assert shortest_cycle(build_graph(3, [])) is None

    def test_matches_brute_force_on_catalogs(self, catalog_graphs):
        for name, g in catalog_graphs:
            assert len(shortest_cycle(g)) == brute_shortest_cycle_length(g), name

    def test_girth_at_most_half_order(self, connected_corpus):
        # holds for connected cubic graphs on at least 8 vertices
        for name, g in connected_corpus:
            if g.n >= 8:
                assert len(shortest_cycle(g)) <= g.n / 2, name

    def test_cycle_is_closed_walk(self, connected_corpus):
        for _, g in connected_corpus:
            cyc = shortest_cycle(g)
            assert len(set(cyc)) == len(cyc)
            for i, u in enumerate(cyc):
                assert g.has_edge(u, cyc[(i + 1) % len(cyc)])

    def test_deterministic(self):
        g = named("DESARGUES")
        assert shortest_cycle(g) == shortest_cycle(g)


# Cubic graphs of each kind the kept analyses serve: connected, staged at
# two residues of n mod 4, a multi-component union with two equal shapes, and empty.
KEPT_CASES = {
    "random-200": lambda: random_cubic(200, 3),
    "random-202": lambda: random_cubic(202, 3),
    "union": lambda: disjoint_union([named("PETERSEN"), named("K4"), named("PETERSEN"),
                                     random_cubic(30, 2), named("PRISM")]),
    "empty": lambda: build_graph(0, []),
}


def analyse(g):
    """Run everything that keeps an analysis on g."""
    shortest_cycle(g)
    connected_components(g)
    decompose(g, "BALANCED")


class TestKeptAnalyses:
    """connected_components searches once per Graph object and keeps the
    answer; shortest_cycle searches at each call and keeps nothing.  Every
    call still hands out a list of its own."""

    @pytest.mark.parametrize("case", KEPT_CASES)
    def test_returned_lists_are_fresh(self, case):
        g, fresh = KEPT_CASES[case](), KEPT_CASES[case]()
        statements = ["BALANCED", "I" if g.n % 4 == 0 else "III"]
        expected = (shortest_cycle(fresh), connected_components(fresh),
                    [decompose(fresh, s) for s in statements])
        for mutate in (lambda xs: xs.append(xs[0] if xs else 0), list.clear):
            for found in (shortest_cycle(g), connected_components(g)):
                if found is not None:
                    mutate(found)
            assert shortest_cycle(g) == expected[0]
            assert connected_components(g) == expected[1]
            assert connected_components(g) is not connected_components(g)
            assert [decompose(g, s) for s in statements] == expected[2]

    @pytest.mark.parametrize("case", KEPT_CASES)
    def test_kept_analyses_hold_no_reference_cycle(self, case):
        # Freed by reference counting alone once the caller drops it.
        g = KEPT_CASES[case]()
        analyse(g)
        ref = weakref.ref(g)
        gc.disable()
        try:
            del g
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("case", KEPT_CASES)
    def test_nothing_is_kept_until_asked(self, case):
        g = KEPT_CASES[case]()
        built = {"n", "tails", "heads", "adjacency", "_degrees"}
        assert set(vars(g)) == built
        encode_graph6(g)
        assert set(vars(g)) == built
        shortest_cycle(g)
        assert set(vars(g)) == built
        connected_components(g)
        assert set(vars(g)) == built | {"_parts"}
        decompose(g, "BALANCED")
        assert set(vars(g)) == built | {"_parts"}

    def test_graph_interface_is_unchanged(self):
        assert list(inspect.signature(Graph).parameters) == ["n", "tails", "heads"]
        assert [f.name for f in fields(Graph) if f.compare or f.repr] == ["n", "tails", "heads"]
        k4 = Graph(4, (0, 0, 0, 1, 1, 2), (1, 2, 3, 2, 3, 3))
        assert repr(k4) == "Graph(n=4, tails=(0, 0, 0, 1, 1, 2), heads=(1, 2, 3, 2, 3, 3))"
        for case in KEPT_CASES:
            g, fresh = KEPT_CASES[case](), KEPT_CASES[case]()
            before = hash(g), repr(g)
            analyse(g)
            assert (hash(g), repr(g)) == before == (hash(fresh), repr(fresh))
            assert g == fresh and fresh == g and len({g, fresh}) == 1


class TestComplement:
    def test_empty_to_full(self):
        g = build_graph(4, K4_EDGES)
        assert complement_within(g, EdgeSubset(6)) == EdgeSubset(6, (1 << 6) - 1)

    def test_involution(self):
        g = named("PETERSEN")
        s = EdgeSubset(g.m, 0b101010101010101)
        assert complement_within(g, complement_within(g, s)) == s

    def test_profile_reversal_k4_single_edge(self):
        g = build_graph(4, K4_EDGES)
        s = EdgeSubset(6, 1)
        assert profile_of(g, s).counts == (0, 0, 2, 2)
        assert profile_of(g, complement_within(g, s)).counts == (2, 2, 0, 0)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            complement_within(build_graph(4, K4_EDGES), EdgeSubset(5))
        for bits in (8, -1):  # a bit beyond the 3 edges, and a negative bitset
            with pytest.raises(SizeMismatch):
                EdgeSubset(3, bits)

    @settings(max_examples=50)
    @given(seed=st.integers(0, 10_000), bits=st.integers(0, (1 << 15) - 1))
    def test_profile_reversal_property(self, seed, bits):
        g = random_cubic(10, seed)
        s = EdgeSubset(g.m, bits)
        assert profile_of(g, complement_within(g, s)).counts == profile_of(g, s).counts[::-1]


class TestFromMember:
    @pytest.mark.parametrize("m", [0, 1, 64, 1000])
    def test_round_trip_with_indices(self, m):
        rng = random.Random(m)
        for _ in range(5):
            member = bytearray(rng.getrandbits(1) for _ in range(m))
            sub = EdgeSubset.from_member(member)
            assert sub.m == m
            assert sub.indices() == [i for i in range(m) if member[i]]
            again = bytearray(m)
            for i in sub.indices():
                again[i] = 1
            assert again == member
        assert EdgeSubset.from_member(bytearray(m)) == EdgeSubset(m)
        assert EdgeSubset.from_member(bytearray([1]) * m) == EdgeSubset(m, (1 << m) - 1)


class TestEdgeSubsetContains:
    def test_members_only(self):
        assert [i for i in range(-3, 6) if i in EdgeSubset(3, 5)] == [0, 2]


class TestProfileOf:
    def test_k4_single_edge(self):
        assert profile_of(build_graph(4, K4_EDGES), EdgeSubset(6, 1)).counts == (0, 0, 2, 2)

    def test_petersen_full(self):
        g = named("PETERSEN")
        assert profile_of(g, EdgeSubset(g.m, (1 << g.m) - 1)).counts == (10, 0, 0, 0)

    def test_prism_triangle_plus_pendant(self):
        g = named("PRISM")  # triangles {0,1,2} and {3,4,5}, matching i-(i+3)
        s = EdgeSubset.from_edges(g, [(0, 1), (0, 2), (1, 2), (0, 3)])
        assert profile_of(g, s).counts == (1, 2, 1, 2)

    @pytest.mark.parametrize("n", [0, 3])
    def test_edgeless(self, n):
        # Degree 0 and n vertices of it, the graph with no vertices included.
        p = profile_of(build_graph(n, []), EdgeSubset(0))
        assert p.counts == (n,) and p.max_deviation() == 0

    def test_not_regular(self):
        with pytest.raises(NotRegular):
            profile_of(build_graph(3, [(0, 1), (1, 2)]), EdgeSubset(2))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            profile_of(build_graph(4, K4_EDGES), EdgeSubset(3))

    def test_handshake_parity(self, connected_corpus):
        for _, g in connected_corpus:
            n3, _, n1, _ = profile_of(g, EdgeSubset(g.m, (1 << g.m) // 3)).counts
            assert (n3 + n1) % 2 == 0  # an even number of odd-degree vertices


class TestDegreeProfile:
    def test_max_deviation(self):
        from fractions import Fraction

        assert DegreeProfile((0, 1, 2, 3)).max_deviation() == Fraction(3, 2)
        assert DegreeProfile((2, 3, 2, 3)).max_deviation() == Fraction(1, 2)
        assert DegreeProfile((2, 2, 2, 2)).max_deviation() == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DegreeProfile((1, -1, 1, 1))

    def test_count_is_zero_outside_the_degrees(self):
        p = DegreeProfile((1, 2, 1, 2))
        assert [p.count(k) for k in range(-2, 6)] == [0, 0, 2, 1, 2, 1, 0, 0]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_max_deviation_matches_fraction_formula(self, d):
        """max_deviation equals max_k |n_k - n/(d+1)| in Fractions on every
        profile with n <= 12: every split of n into d + 1 counts."""
        for n in range(13):
            for cuts in combinations(range(n + d), d):
                bounds = (-1, *cuts, n + d)
                counts = tuple(b - a - 1 for a, b in zip(bounds, bounds[1:]))
                center = Fraction(n, d + 1)
                want = max(abs(Fraction(c) - center) for c in counts)
                got = DegreeProfile(counts).max_deviation()
                assert type(got) is Fraction and got == want, counts


class TestClassifySmall:
    def test_k4(self):
        assert classify_small(named("K4")) is SmallClass.K4

    def test_prism_has_triangle(self):
        assert classify_small(named("PRISM")) is SmallClass.PRISM

    def test_k33_triangle_free(self):
        assert classify_small(named("K33")) is SmallClass.K33

    @pytest.mark.parametrize("name", ["PRISM", "K33"])
    def test_triangle_at_zero_on_every_labeling(self, name):
        # The prism's pair closes the triangle at vertex 0, the one the
        # shortest-cycle search finds first; K3,3 has no triangle.
        g = named(name)
        for perm in permutations(range(6)):
            h = build_graph(6, [(perm[u], perm[v]) for u, v in g.edges])
            pair = triangle_at_zero(h)
            if name == "K33":
                assert pair is None
            else:
                assert pair[0] < pair[1] and sorted(shortest_cycle(h)) == [0, *pair]

    def test_heawood_other(self):
        assert classify_small(named("HEAWOOD")) is SmallClass.OTHER


# Exact shortest_cycle sequences, pinned: the function is public, so any
# change to the search must return the same one.
# The seeded cases cover girth 3, 4 and 5, with the girth attained first
# at root 0 and at high roots.
SHORTEST_CYCLE_SHA256 = "e1a6084aa3594b5e188ba71855a33dec304c4cf712d7fed9fd4397e234f72fec"

SHORTEST_CYCLE_CASES = [
    (12, 5), (16, 1), (100, 63), (402, 21), (402, 45),                # girth 4
    (16, 58), (24, 33), (100, 17), (100, 39), (402, 67), (402, 76),  # girth 5
    (12, 10), (100, 75), (402, 53), (1002, 1),                        # girth 3
]


def shortest_cycle_lines():
    graphs = [pair for path in sorted(FIXTURES.glob("*.g6"))
              for pair in load_corpus_file(path.name)]
    graphs += [(name, named(name)) for name in ("PETERSEN", "HEAWOOD", "DESARGUES")]
    graphs += [(f"random_cubic:{n}:{s}", random_cubic(n, s)) for n, s in SHORTEST_CYCLE_CASES]
    graphs += [("cycles:9,6,4", cycles([9, 6, 4]))]
    graphs += [("path:4", build_graph(4, [(0, 1), (1, 2), (2, 3)]))]
    for name, g in graphs:
        cycle = shortest_cycle(g)
        yield f"{name}\t{'none' if cycle is None else ','.join(map(str, cycle))}"


def test_shortest_cycle_sequences_match_digest():
    lines = list(shortest_cycle_lines())
    assert len(lines) == 54 + 3 + len(SHORTEST_CYCLE_CASES) + 2
    assert lines[-1] == "path:4\tnone"
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode("ascii"))
    assert digest.hexdigest() == SHORTEST_CYCLE_SHA256


def unrestricted_shortest_cycle(g):
    """shortest_cycle as it was before root r's search skipped vertices below r.

    Kept verbatim as the reference the restricted search must agree with.
    """
    adjacency = g.adjacency
    dist = [-1] * g.n
    parent = [-1] * g.n
    best = g.n + 1
    found = None
    for root in range(g.n):
        dist[root] = 0
        parent[root] = -1
        queue = [root]
        meet = None
        for u in queue:
            du = dist[u]
            if 2 * du + 1 >= best:
                break
            # A vertex found at du + 1 closes walks of length >= 2 * du + 2 only.
            grow = 2 * du + 2 < best
            for w in adjacency[u]:
                dw = dist[w]
                if dw < 0:
                    if grow:
                        dist[w] = du + 1
                        parent[w] = u
                        queue.append(w)
                elif w != parent[u] and du + dw + 1 < best:
                    best = du + dw + 1
                    meet = u, w
        if meet is not None:
            # Paths u->root and w->root meet only at the root, else a
            # strictly shorter cycle would exist.
            found = _path_to_root(parent, meet[0]), _path_to_root(parent, meet[1])
        for v in queue:
            dist[v] = -1
        if best == 3:
            break
    if found is None:
        return None
    left, right = found
    return left[::-1] + right[:-1]


def test_shortest_cycle_matches_the_unrestricted_search_on_random_cubic_graphs():
    girths = set()
    for n in range(8, 401, 8):
        for seed in range(6):
            g = random_cubic(n, 1000 * n + seed)
            cycle = shortest_cycle(g)
            assert cycle == unrestricted_shortest_cycle(g), (n, seed)
            girths.add(len(cycle))
    assert girths >= {3, 4, 5}, girths


GP_CASES = [(n, k) for n in range(5, 41) for k in range(1, (n + 1) // 2)]
GP_CASES += [(n, 7) for n in range(100, 161, 3)] + [(211, 13), (300, 7), (301, 13)]


def test_shortest_cycle_matches_the_unrestricted_search_on_generalized_petersen_graphs():
    girth_8 = 0
    rng = random.Random(7)
    for n, k in GP_CASES:
        g = generalized_petersen(n, k)
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        for h in (g, relabeled):
            cycle = shortest_cycle(h)
            assert cycle == unrestricted_shortest_cycle(h), (n, k)
        if k == 7 and n >= 100:
            assert len(cycle) == 8, (n, k, cycle)
            girth_8 += 1
    assert girth_8 == 22
