"""The incremental finders agree with their full scans at n = 402.

The property tests in ``test_finders`` stop at n = 200; these seeded runs
check every finder after every coloring on larger graphs, through the
whole staged construction and through one coloring in random order.  The
last test makes sure the fixture runs reach each finder's heap, not only
its cursor.
"""

import random

from degbal.connected import (
    ColoringState,
    Statement,
    _is_r1,
    _is_r2,
    _is_stage1_candidate,
    target_profile,
)
from degbal.gen import random_cubic
from degbal.graphs import connected_components, shortest_cycle

from conftest import FIXTURES, load_corpus_file
from test_finders import CheckedState, applicable_statements, run_checked


LARGE_CASES = [(402, 21), (402, 67)]  # girth 4 found at root 113; girth 5


def test_finders_match_scans_at_n_402():
    for n, seed in LARGE_CASES:
        g = random_cubic(n, seed)
        assert len(connected_components(g)) == 1
        for s in applicable_statements(n):
            state = run_checked(g, s)
            assert state is not None, (n, seed, s)
            assert state.checks == state.steps > 0, (n, seed, s)
            assert state.rule_counts["R1"] and state.rule_counts["R2"], (n, seed, s)


def test_finders_match_scans_under_any_coloring_order_at_n_402():
    g = random_cubic(402, 53)
    state = CheckedState(g, target_profile(402, Statement.III), shortest_cycle(g))
    edges = list(range(g.m))
    random.Random(402).shuffle(edges)
    for i in edges:
        state.color_edge(i)
    assert state.checks == g.m


def test_each_heap_finder_answers_from_its_heap(monkeypatch):
    """An answer below the finder's cursor can only come off its heap."""
    from_heap = set()
    lowest = ColoringState.lowest

    def counting_lowest(state, valid, reach, on_edges):
        found = lowest(state, valid, reach, on_edges)
        if found is not None and found < state.finders[valid][0]:
            from_heap.add(valid)
        return found

    monkeypatch.setattr(ColoringState, "lowest", counting_lowest)
    for path in sorted(FIXTURES.glob("*.g6")):
        for name, g in load_corpus_file(path.name):
            if g.n >= 8 and len(connected_components(g)) == 1:
                for s in applicable_statements(g.n):
                    assert run_checked(g, s) is not None, (name, s)
    assert from_heap == {_is_stage1_candidate, _is_r1, _is_r2}, from_heap
