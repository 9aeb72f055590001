"""The incremental rule finders agree with full scans at every step.

The scans below are the straightforward definitions of each finder: walk
every vertex or edge in canonical order and return the first that
qualifies.  They are kept here only as a reference for the finders each
stage of ``degbal.connected`` drives.  Stage 1 grows V3 in vertex space
(_V3Growth): its finder is a cursor over the vertices with a heap behind
it of vertices below the cursor that an addition made valid again, and
it is checked after every vertex added.  Stage 2 colors through
_RuleFinders: R1 and R2 are cursors over the edges with such a heap
behind each, fed by the coloring step, and R3 is a plain cursor, since
its predicate never turns true again; all three are checked after every
edge colored.  Stage 3 needs no finder: it walks the edges once, and
every edge it colors must be the scan's lowest V0-V0 edge at that step.
"""

from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import degbal.connected as connected
from degbal.connected import (
    ColoringState,
    _RuleFinders,
    _V3Growth,
    stage1_grow_v3,
    stage2_fill_v2,
    stage3_fill_v1,
    target_profile,
)
from degbal.gen import random_cubic
from degbal.graphs import EdgeSubset, connected_components, profile_of, shortest_cycle

from conftest import FIXTURES, applicable_statements, load_corpus_file


def is_stage1_candidate(state, v):
    """Outside V3, with a neighbor in V3 and none in V2."""
    deg1 = state.deg1
    near = [deg1[w] for w in state.host.adjacency[v]]
    return deg1[v] != 3 and 3 in near and 2 not in near


def scan_stage1_candidate(state):
    return next((v for v in range(state.host.n) if is_stage1_candidate(state, v)), None)


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
    deg1, cycle = state.deg1, state.cycle
    cycle_edges = {state.host.edge_index(u, v) for u, v in zip(cycle, cycle[1:] + cycle[:1])}
    first = None
    for i, (u, v) in enumerate(state.host.edges):
        if {deg1[u], deg1[v]} == {0, 1}:
            if i in cycle_edges:
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
            return state.host.edge_index(v, zeros[0]), state.host.edge_index(v, zeros[1])
    return None


def scan_v0_v0(state):
    deg1 = state.deg1
    for i, (u, v) in enumerate(state.host.edges):
        if deg1[u] == 0 and deg1[v] == 0:
            return i
    return None


class CheckedState(ColoringState):
    """Counts the steps and finder checks of each stage from check_from on.

    run_checked sets stage before each stage runs.  A step is a vertex
    added in stage 1 and an edge colored in stages 2 and 3, and each
    stage's steps are counted within it.  In stage 3 each coloring must be
    scan_v0_v0's edge, whatever check_from.
    """

    def __init__(self, *args, check_from=0):
        super().__init__(*args)
        self.check_from = check_from
        self.stage = 0
        self.steps = [0, 0, 0, 0]
        self.checks = [0, 0, 0, 0]

    def step(self, stage):
        """Count a step of this stage; True if its finders are checked now."""
        self.steps[stage] += 1
        if self.steps[stage] < self.check_from:
            return False
        self.checks[stage] += 1
        return True

    def color_edge(self, i):
        if self.stage == 3:  # every stage-3 coloring, whatever check_from
            assert i == scan_v0_v0(self), (i, self.steps)
            self.steps[3] += 1
            self.checks[3] += 1
        super().color_edge(i)


class CheckedGrowth(_V3Growth):
    """Stage 1's finder, compared with its scan after each vertex added."""

    def add(self, v):
        super().add(v)
        if self.state.step(1):
            assert self.lowest() == scan_stage1_candidate(self.state), ("stage 1", self.state.steps)


class CheckedRules(_RuleFinders):
    """Stage 2's finders, compared with their scans after each edge colored."""

    def color(self, i):
        super().color(i)
        if self.state.step(2):
            assert self.r1() == scan_r1(self.state), ("R1", self.state.steps)
            assert self.r2() == scan_r2(self.state), ("R2", self.state.steps)
            assert self.r3() == scan_r3(self.state), ("R3", self.state.steps)


def expected_checks(steps, check_from):
    """Checks a stage of `steps` steps gets when they start at step check_from."""
    return max(0, steps - max(check_from, 1) + 1)


def run_checked(g, s, check_from=0):
    """Stages 1-3 through the checked finders; the state, or None if stage 2 blocks.

    Each stage's steps are counted off the coloring itself, not through the
    hooks, and every one of them must have been checked.
    """
    target = target_profile(g.n, s)
    state = CheckedState(g, target, shortest_cycle(g), check_from=check_from)
    with mock.patch.object(connected, "_V3Growth", CheckedGrowth), \
            mock.patch.object(connected, "_RuleFinders", CheckedRules):
        state.stage = 1
        stage1_grow_v3(state)
        stage1_vertices, stage1_edges = state.sizes[3], sum(state.colored)
        state.stage = 2
        if not stage2_fill_v2(state):
            return None
    stage2_edges = sum(state.colored) - stage1_edges
    state.stage = 3
    deficit = state.n1 - state.sizes[1]
    stage3_fill_v1(state)
    assert state.steps[1:] == [stage1_vertices, stage2_edges, deficit // 2], state.steps
    assert state.checks[1] == expected_checks(stage1_vertices, check_from), state.checks
    assert state.checks[2] == expected_checks(stage2_edges, check_from), state.checks
    assert state.checks[3] == deficit // 2, state.checks
    assert profile_of(g, EdgeSubset.from_member(state.colored)) == target
    return state


def check_growth_in_random_order(g, rng, check_from=0):
    """Grow V3 from a random vertex by random valid additions until none is left.

    A valid addition is any stage-1 candidate, so no neighbor reaches V3 by
    it; the finder is checked after each one.  Returns the checked state.
    """
    state = CheckedState(g, target_profile(g.n, applicable_statements(g.n)[0]), [],
                         check_from=check_from)
    grow = CheckedGrowth(state)
    grow.add(rng.randrange(g.n))
    while candidates := [v for v in range(g.n) if is_stage1_candidate(state, v)]:
        grow.add(rng.choice(candidates))
    assert state.steps[1] == len(grow.v3) > 1
    return state


def check_rules_in_random_order(g, rng, check_from=0):
    """Color every edge through stage 2's finders in a random order, checking each step."""
    cycle = shortest_cycle(g)
    state = CheckedState(g, target_profile(g.n, applicable_statements(g.n)[0]), cycle,
                         check_from=check_from)
    rules = CheckedRules(state)
    edges = list(range(g.m))
    rng.shuffle(edges)
    for i in edges:
        rules.color(i)
    return state


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
        run_checked(g, s, check_from)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(4, 30).map(lambda k: 2 * k),
    seed=st.integers(0, 10_000),
    order=st.randoms(use_true_random=False),
    check_from=st.integers(0, 20),
)
def test_finders_match_scans_under_any_coloring_order(n, seed, order, check_from):
    """Stage 2's finders are pure functions of the coloring, whichever way it was reached."""
    g = random_cubic(n, seed)
    state = check_rules_in_random_order(g, order, check_from)
    assert state.checks[2] == expected_checks(g.m, check_from)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(4, 30).map(lambda k: 2 * k),
    seed=st.integers(0, 10_000),
    order=st.randoms(use_true_random=False),
    check_from=st.integers(0, 10),
)
def test_stage1_finder_matches_scan_under_any_addition_order(n, seed, order, check_from):
    """Stage 1's finder is a pure function of V3, whichever valid additions built it."""
    state = check_growth_in_random_order(random_cubic(n, seed), order, check_from)
    assert state.checks[1] == expected_checks(state.steps[1], check_from)


def test_fixture_graphs_every_statement_from_the_first_step():
    fired = {"R1": 0, "R2": 0, "R3": 0, "stage 3": 0}
    for path in sorted(FIXTURES.glob("*.g6")):
        for name, g in load_corpus_file(path.name):
            if g.n < 8 or len(connected_components(g)) != 1:
                continue
            for s in applicable_statements(g.n):
                state = run_checked(g, s)
                assert state is not None, (name, s)
                assert state.checks[1] == state.steps[1] > 0, (name, s)
                assert state.checks[2] == state.steps[2] > 0, (name, s)
                for rule, count in state.rule_counts.items():
                    fired[rule] += count
                fired["stage 3"] += state.checks[3]
    assert all(fired.values()), fired
