import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degbal import gen
from degbal.errors import DegbalError
from degbal.gen import (
    CATALOG_NAMES,
    cycles,
    disjoint_union,
    named,
    random_cubic,
    splitmix64,
    splitmix64_stream,
)
from degbal.graphs import (
    connected_components,
    require_regular,
    shortest_cycle,
)

EXPECTED_ORDERS = {
    "K4": 4,
    "K33": 6,
    "PRISM": 6,
    "CUBE": 8,
    "PETERSEN": 10,
    "HEAWOOD": 14,
    "PAPPUS": 18,
    "DESARGUES": 20,
    "MOEBIUS_KANTOR": 16,
}


class TestNamed:
    @pytest.mark.parametrize("name", sorted(EXPECTED_ORDERS))
    def test_catalog_graph(self, name):
        g = named(name)
        assert g.n == EXPECTED_ORDERS[name]
        require_regular(g, 3)
        assert len(connected_components(g)) == 1

    def test_catalog_complete(self):
        assert set(CATALOG_NAMES) == set(EXPECTED_ORDERS)

    def test_k4_edge_count(self):
        assert named("K4").m == 6

    def test_k33_triangle_free(self):
        assert len(shortest_cycle(named("K33"))) == 4

    def test_petersen_girth(self):
        assert len(shortest_cycle(named("PETERSEN"))) == 5

    def test_case_insensitive(self):
        assert named("petersen").edges == named("PETERSEN").edges
        assert named("k3,3").edges == named("K33").edges
        assert named("K3_3") == named("k3-3") == named("K33")

    def test_unknown(self):
        catalog = ", ".join(CATALOG_NAMES)
        with pytest.raises(DegbalError, match=f"^unknown graph 'tutte'; catalog: {catalog}$"):
            named("tutte")


class TestSplitmix64:
    def test_reference_vector_seed_zero(self):
        # published splitmix64 outputs for seed 0
        assert splitmix64_stream(0, 3) == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_stream_offset(self):
        assert splitmix64_stream(7, 4)[2:] == splitmix64_stream(7, 2, offset=2)

    def test_step_matches_stream(self):
        state, out = splitmix64(42)
        assert splitmix64_stream(42, 1) == [out]

    @pytest.mark.parametrize("seed", [0, -1, 2**64 + 5])
    def test_stream_matches_scalar_steps(self, seed):
        # Counts straddle the stream's lane width, the outputs per chunk.
        width = gen._LANES
        counts = (0, 1, 3, width - 1, width, width + 1, 3 * width + 5)
        offsets = (0, 1, 7, 10**4)
        state, reference = seed & (2**64 - 1), []
        for _ in range(max(offsets) + max(counts)):
            state, z = splitmix64(state)
            reference.append(z)
        for count in counts:
            for offset in offsets:
                got = splitmix64_stream(seed, count, offset)
                assert got == reference[offset : offset + count], (count, offset)


class TestRandomCubic:
    def test_regular_and_simple(self):
        for seed in range(25):
            g = random_cubic(12, seed)
            require_regular(g, 3)
            assert len(set(g.edges)) == g.m  # build_graph enforces simplicity

    def test_deterministic(self):
        assert random_cubic(20, 7).edges == random_cubic(20, 7).edges

    def test_seed_changes_output(self):
        assert random_cubic(20, 1).edges != random_cubic(20, 2).edges

    def test_odd_order(self):
        with pytest.raises(DegbalError, match="^order must be an even integer >= 4, got 9$"):
            random_cubic(9, 0)
        with pytest.raises(DegbalError, match="^order must be an even integer >= 4, got 2$"):
            random_cubic(2, 0)

    def test_connectivity_fraction(self):
        # sanity check from the module contract, not a correctness gate
        connected = sum(
            1
            for seed in range(1000)
            if len(connected_components(random_cubic(10, seed))) == 1
        )
        assert connected / 1000 > 0.9

    def test_no_attempts_raises(self, monkeypatch):
        monkeypatch.setattr(gen, "_MAX_RETRIES", 0)
        with pytest.raises(DegbalError, match="^no simple matching after 0 attempts$"):
            random_cubic(10, 5)

    # First attempts of (10, 6) pair a loop, (6, 5) one edge twice in the
    # same orientation, (6, 4) one edge in both; (10, 5) is simple.
    @pytest.mark.parametrize("n,seed", [(10, 6), (6, 5), (6, 4)])
    def test_rejected_first_attempt_raises_at_one_retry(self, monkeypatch, n, seed):
        require_regular(random_cubic(n, seed), 3)
        monkeypatch.setattr(gen, "_MAX_RETRIES", 1)
        with pytest.raises(DegbalError, match="^no simple matching after 1 attempts$"):
            random_cubic(n, seed)

    def test_accepted_first_attempt_returns_at_one_retry(self, monkeypatch):
        expected = random_cubic(10, 5).edges
        monkeypatch.setattr(gen, "_MAX_RETRIES", 1)
        assert random_cubic(10, 5).edges == expected

    def test_traced_peak_below_three_and_a_half_graphs(self):
        # An attempt holds one copy of its pairing at a time: the sorted stubs,
        # then build_graph's edges.  Three copies at once peaked at 4.3x.
        gc.collect()
        tracemalloc.start()
        try:
            g = random_cubic(3002, 1)
            kept, peak = tracemalloc.get_traced_memory()  # kept: what g holds
        finally:
            tracemalloc.stop()
        assert g.n == 3002
        assert peak < 3.5 * kept, (peak, kept)

    @settings(max_examples=30)
    @given(n=st.sampled_from([4, 6, 10, 16]), seed=st.integers(0, 1 << 40))
    def test_determinism_property(self, n, seed):
        assert random_cubic(n, seed).edges == random_cubic(n, seed).edges


class TestDisjointUnion:
    def test_2k4(self):
        g = disjoint_union([named("K4"), named("K4")])
        assert g.n == 8 and g.m == 12
        comps = connected_components(g)
        assert [c.graph.n for c in comps] == [4, 4]

    def test_3k4_offsets(self):
        g = disjoint_union([named("K4")] * 3)
        assert g.n == 12
        assert (8, 9) in g.edges

    def test_empty(self):
        g = disjoint_union([])
        assert g.n == 0 and g.m == 0

    def test_degrees_preserved(self):
        g = disjoint_union([named("K4"), cycles([5])])
        assert sorted(map(len, g.adjacency)) == [2] * 5 + [3] * 4


class TestCycles:
    def test_2c3(self):
        g = cycles([3, 3])
        assert g.n == 6 and g.m == 6
        require_regular(g, 2)
        assert [c.graph.n for c in connected_components(g)] == [3, 3]

    def test_c9(self):
        g = cycles([9])
        assert g.n == 9
        require_regular(g, 2)
        assert len(connected_components(g)) == 1

    def test_2c4(self):
        g = cycles([4, 4])
        assert [c.graph.n for c in connected_components(g)] == [4, 4]

    def test_part_too_small(self):
        with pytest.raises(DegbalError, match="^cycle length 2 < 3$"):
            cycles([3, 2])

    def test_empty_partition(self):
        assert cycles([]).n == 0
