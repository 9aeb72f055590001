"""The incremental finders agree with their full scans at n = 402.

The property tests in ``test_finders`` stop at n = 200; these seeded runs
check every finder after every step on larger graphs, through the whole
staged construction, and along random orders: stage 1's finder along
random valid additions, stage 2's along one coloring in random order.
The last test makes sure the fixture runs reach each finder's heap, not
only its cursor.
"""

import random

from degbal.connected import ColoringState
from degbal.gen import random_cubic
from degbal.graphs import connected_components

from conftest import FIXTURES, applicable_statements, load_corpus_file
from test_finders import (
    check_growth_in_random_order,
    check_rules_in_random_order,
    run_checked,
)


LARGE_CASES = [(402, 21), (402, 67)]  # girth 4 found at root 113; girth 5


def test_finders_match_scans_at_n_402():
    for n, seed in LARGE_CASES:
        g = random_cubic(n, seed)
        assert len(connected_components(g)) == 1
        for s in applicable_statements(n):
            state = run_checked(g, s)
            assert state is not None, (n, seed, s)
            assert state.checks[1] == state.steps[1] > 0, (n, seed, s)
            assert state.checks[2] == state.steps[2] > 0, (n, seed, s)
            assert state.rule_counts["R1"] and state.rule_counts["R2"], (n, seed, s)


def test_finders_match_scans_under_any_coloring_order_at_n_402():
    g = random_cubic(402, 53)
    state = check_rules_in_random_order(g, random.Random(402))
    assert state.checks[2] == g.m


def test_stage1_finder_matches_scan_under_any_addition_order_at_n_402():
    g = random_cubic(402, 53)
    state = check_growth_in_random_order(g, random.Random(402))
    assert state.checks[1] == state.steps[1] > 100, state.steps


def test_each_heap_finder_answers_from_its_heap(monkeypatch):
    """An answer below the finder's cursor can only come off its heap.

    R2 answers a valid stage-1 cycle edge before its heap, so only an
    answer off the cycle counts for it.
    """
    from_heap = set()

    def counting(method, rule, cursor_of):
        def counted(self):
            found = method(self)
            if isinstance(found, int) and found < cursor_of(self):
                if rule != "R2" or found not in self.cycle_edges:
                    from_heap.add(rule)
            return found
        return counted

    monkeypatch.setattr(ColoringState, "lowest",
                        counting(ColoringState.lowest, "stage 1", lambda f: f.v3_cursor))
    monkeypatch.setattr(ColoringState, "r1",
                        counting(ColoringState.r1, "R1", lambda f: f.r1_cursor))
    monkeypatch.setattr(ColoringState, "r2",
                        counting(ColoringState.r2, "R2", lambda f: f.r2_cursor))
    for path in sorted(FIXTURES.glob("*.g6")):
        for name, g in load_corpus_file(path.name):
            if g.n >= 8 and len(connected_components(g)) == 1:
                for s in applicable_statements(g.n):
                    assert run_checked(g, s) is not None, (name, s)
    assert from_heap == {"stage 1", "R1", "R2"}, from_heap
