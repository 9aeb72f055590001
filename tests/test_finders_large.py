"""The incremental finders agree with their full scans at n = 402.

The property tests in ``test_finders`` stop at n = 200; these seeded runs
check every finder after every coloring on larger graphs, through the
whole staged construction and through one coloring in random order.
"""

import random

from degbal.connected import Statement, target_profile
from degbal.gen import random_cubic
from degbal.graphs import connected_components, shortest_cycle

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
