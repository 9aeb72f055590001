"""The incremental rule finders agree with full scans at every step.

The scans below are the straightforward definitions of each finder: walk
every vertex or edge in canonical order and return the first that
qualifies.  They are kept here only as a reference for the one
incremental finder in ``degbal.connected``, ColoringState.lowest: a cursor
that tests indices in order, with a heap behind it that color_edge offers
only the indices below the cursor that a coloring can make valid again,
named by each finder's reach (stage 1, R1, R2).  R3 passes no reach,
since its predicate never turns true again.  Stage 3 needs no finder: it
walks the edges once, and every edge it colors must be the scan's lowest
V0-V0 edge at that step.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from degbal.connected import (
    ColoringState,
    Statement,
    _find_r1,
    _find_r2,
    _find_r3,
    _stage1_candidate,
    stage1_grow_v3,
    stage2_fill_v2,
    stage3_fill_v1,
    target_profile,
)
from degbal.errors import SpecialCaseNeeded
from degbal.gen import random_cubic
from degbal.graphs import connected_components, profile_of, shortest_cycle

from conftest import FIXTURES, load_corpus_file


def scan_stage1_candidate(state):
    deg1 = state.deg1
    adj = state.host.adjacency
    for v in range(state.host.n):
        if deg1[v] == 3:
            continue
        has_v3 = False
        has_v2 = False
        for w in adj[v]:
            if deg1[w] == 3:
                has_v3 = True
            elif deg1[w] == 2:
                has_v2 = True
                break
        if has_v3 and not has_v2:
            return v
    return None


def colored_neighbor_degrees(state, v):
    g = state.host
    return [state.deg1[w] for w in g.adjacency[v] if state.colored[g.edge_index(v, w)]]


def scan_r1(state):
    deg1 = state.deg1
    for i, (u, v) in enumerate(state.host.edges):
        if state.colored[i] or deg1[u] != 1 or deg1[v] != 1:
            continue
        if any(d >= 2 for d in colored_neighbor_degrees(state, u)) or any(
            d >= 2 for d in colored_neighbor_degrees(state, v)
        ):
            return i
    return None


def scan_r2(state):
    deg1 = state.deg1
    first = None
    for i, (u, v) in enumerate(state.host.edges):
        if {deg1[u], deg1[v]} == {0, 1}:
            if i in state.cycle_edges:
                return i
            if first is None:
                first = i
    return first


def scan_r3(state):
    deg1 = state.deg1
    for v in range(state.host.n):
        if deg1[v] != 0:
            continue
        zeros = [w for w in state.host.adjacency[v] if deg1[w] == 0]
        if len(zeros) >= 2:
            return v, zeros[0], zeros[1]
    return None


def scan_v0_v0(state):
    deg1 = state.deg1
    for i, (u, v) in enumerate(state.host.edges):
        if deg1[u] == 0 and deg1[v] == 0:
            return i
    return None


PAIRS = (
    (_stage1_candidate, scan_stage1_candidate),
    (_find_r1, scan_r1),
    (_find_r2, scan_r2),
    (_find_r3, scan_r3),
)


class CheckedState(ColoringState):
    """Compares every finder with its scan after each coloring from check_from on.

    Once in_stage3 is set, each coloring must also be scan_v0_v0's edge.
    """

    def __init__(self, *args, check_from=0):
        super().__init__(*args)
        self.check_from = check_from
        self.steps = 0
        self.checks = 0
        self.in_stage3 = False
        self.stage3_checks = 0

    def color_edge(self, i):
        if self.in_stage3:
            assert i == scan_v0_v0(self), (i, self.steps)
            self.stage3_checks += 1
        super().color_edge(i)
        self.steps += 1
        if self.steps >= self.check_from:
            for finder, scan in PAIRS:
                assert finder(self) == scan(self), (finder.__name__, self.steps)
            self.checks += 1


def run_checked(g, s, check_from=0):
    """Stages 1-3 on a CheckedState; returns it, or None if stage 2 blocks."""
    target = target_profile(g.n, s)
    state = CheckedState(g, target, shortest_cycle(g), check_from=check_from)
    stage1_grow_v3(state)
    try:
        stage2_fill_v2(state)
    except SpecialCaseNeeded:
        return None
    state.in_stage3 = True
    deficit = state.n1 - state.sizes[1]
    stage3_fill_v1(state)
    assert state.stage3_checks == deficit // 2
    assert profile_of(g, state.subset()) == target
    return state


def applicable_statements(n):
    return (Statement.I, Statement.II) if n % 4 == 0 else (Statement.III, Statement.IV)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(4, 100).map(lambda k: 2 * k),
    seed=st.integers(0, 10_000),
    check_from=st.integers(0, 60),
)
def test_incremental_finders_match_scans(n, seed, check_from):
    g = random_cubic(n, seed)
    assume(len(connected_components(g)) == 1)
    for s in applicable_statements(n):
        state = run_checked(g, s, check_from)
        if state is not None:
            assert state.checks == max(0, state.steps - max(check_from, 1) + 1)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(4, 30).map(lambda k: 2 * k),
    seed=st.integers(0, 10_000),
    order=st.randoms(use_true_random=False),
    check_from=st.integers(0, 20),
)
def test_finders_match_scans_under_any_coloring_order(n, seed, order, check_from):
    """Finders are pure functions of the coloring, whichever way it was reached."""
    g = random_cubic(n, seed)
    target = target_profile(n, applicable_statements(n)[0])
    state = CheckedState(g, target, shortest_cycle(g), check_from=check_from)
    edges = list(range(g.m))
    order.shuffle(edges)
    for i in edges:
        state.color_edge(i)
    assert state.checks == max(0, g.m - max(check_from, 1) + 1)


def test_fixture_graphs_every_statement_from_the_first_step():
    fired = {"R1": 0, "R2": 0, "R3": 0, "stage 3": 0}
    for path in sorted(FIXTURES.glob("*.g6")):
        for name, g in load_corpus_file(path.name):
            if g.n < 8 or len(connected_components(g)) != 1:
                continue
            for s in applicable_statements(g.n):
                state = run_checked(g, s)
                assert state is not None, (name, s)
                assert state.checks == state.steps > 0, (name, s)
                for rule, count in state.rule_counts.items():
                    fired[rule] += count
                fired["stage 3"] += state.stage3_checks
    assert all(fired.values()), fired
