import json
import logging
import random
import subprocess
import sys
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degbal.connected as connected_mod
from degbal.connected import (
    ColoringState,
    ExceptionKind,
    Statement,
    decompose_connected_traced,
    seed_cycle,
    special_14_construction,
    stage1_grow_v3,
    stage2_fill_v2,
    stage3_fill_v1,
    target_profile,
)
from degbal.errors import (
    ExceptionGraph,
    InternalStuck,
    NotRegular,
    ParityMismatch,
    PreconditionViolated,
)
from degbal.gen import cycles, disjoint_union, named, random_cubic
from degbal.general import decompose
from degbal.graphs import (
    DegreeProfile,
    EdgeSubset,
    build_graph,
    connected_components,
    cycle_from,
    profile_of,
    shortest_cycle,
)
from degbal.oracle import find_witness

from conftest import applicable_statements, relabeled

# 14-vertex cubic graph containing the blocked-configuration pattern:
# K4 on {0,1,2,3} with edge (0,1) subdivided by vertex 4, whose single
# outside edge reaches 5; the rest is an arbitrary cubic completion.
PATTERN_14 = build_graph(
    14,
    [
        (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (4, 5),
        (5, 6), (5, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 10), (9, 11),
        (10, 12), (10, 13), (11, 12), (11, 13), (12, 13),
    ],
)

# Three blobs, each K4 with one edge subdivided, whose subdividing vertices
# join a centre, vertex 0: its three edges are bridges, so it lies on no
# cycle.  n = 16 is the smallest order with such a vertex, one past the catalog.
BRIDGED_16 = build_graph(16, [
    edge
    for a, b, c, d, s in (range(1, 6), range(6, 11), range(11, 16))
    for edge in ((0, s), (a, s), (b, s), (a, c), (a, d), (b, c), (b, d), (c, d))
])

# random_cubic(10, 40), a relabeled catalog graph whose statement-III run
# takes rule R3 as its first stage-2 step
R3_GRAPH6 = "IQOGYeck?"


class TestTargetProfile:
    def test_statement_i(self):
        assert target_profile(8, Statement.I).counts == (2, 2, 2, 2)

    def test_statement_ii(self):
        assert target_profile(4, Statement.II).counts == (0, 0, 2, 2)

    def test_statement_iii(self):
        assert target_profile(6, Statement.III).counts == (1, 2, 1, 2)

    def test_statement_iv(self):
        assert target_profile(10, Statement.IV).counts == (1, 2, 3, 4)

    def test_parity_mismatch(self):
        with pytest.raises(ParityMismatch):
            target_profile(8, Statement.III)
        with pytest.raises(ParityMismatch):
            target_profile(10, Statement.I)

    def test_order_zero(self):
        assert target_profile(0, Statement.I).counts == (0, 0, 0, 0)
        with pytest.raises(ParityMismatch):
            target_profile(0, Statement.II)

    def test_below_four_only_the_empty_graph_under_i(self):
        for s in (Statement.III, Statement.IV):
            message = rf"^statement {s.value} needs n >= 4, got n=2$"
            with pytest.raises(ParityMismatch, match=message):
                target_profile(2, s)
        with pytest.raises(ParityMismatch, match=r"^statement II needs n >= 4, got n=0$"):
            target_profile(0, Statement.II)
        with pytest.raises(ParityMismatch, match=r"^statement IV needs n = 4t\+2, got n=8$"):
            target_profile(8, Statement.IV)

    def test_docstring_formulas_below_64(self):
        # The module docstring's four formulas, with t = n // 4 throughout.
        formulas = {
            Statement.I: (0, lambda t: (t, t, t, t)),
            Statement.II: (0, lambda t: (t - 1, t - 1, t + 1, t + 1)),
            Statement.III: (2, lambda t: (t, t + 1, t, t + 1)),
            Statement.IV: (2, lambda t: (t - 1, t, t + 1, t + 2)),
        }
        for n in range(64):
            for s, (residue, formula) in formulas.items():
                # Below n = 4 only the empty graph, under I, has a target.
                if n % 4 != residue or n < 4 and (n, s) != (0, Statement.I):
                    with pytest.raises(ParityMismatch):
                        target_profile(n, s)
                else:
                    assert target_profile(n, s).counts == formula(n // 4), (n, s)

    def test_targets_sum_to_n(self):
        for n in range(4, 40, 2):
            stmts = (
                (Statement.I, Statement.II) if n % 4 == 0 else (Statement.III, Statement.IV)
            )
            for s in stmts:
                assert target_profile(n, s).order == n


class TestBaseCases:
    def test_k4_ii_single_edge(self):
        g = named("K4")
        sub = decompose_connected_traced(g, Statement.II)[0]
        assert profile_of(g, sub).counts == (0, 0, 2, 2)
        assert len(sub) == 1

    def test_prism_iii(self):
        g = named("PRISM")
        sub = decompose_connected_traced(g, Statement.III)[0]
        assert profile_of(g, sub).counts == (1, 2, 1, 2)

    def test_k33_iv(self):
        g = named("K33")
        sub = decompose_connected_traced(g, Statement.IV)[0]
        assert profile_of(g, sub).counts == (0, 1, 2, 3)

    def test_prism_iv(self):
        g = named("PRISM")
        sub = decompose_connected_traced(g, Statement.IV)[0]
        assert profile_of(g, sub).counts == (0, 1, 2, 3)

    def test_k4_i_exception(self):
        with pytest.raises(ExceptionGraph) as exc:
            decompose_connected_traced(named("K4"), Statement.I)[0]
        assert exc.value.kind is ExceptionKind.K4_I

    def test_k33_iii_exception(self):
        with pytest.raises(ExceptionGraph) as exc:
            decompose_connected_traced(named("K33"), Statement.III)[0]
        assert exc.value.kind is ExceptionKind.K33_III


class TestValidation:
    def test_not_cubic(self):
        # The split checks regularity; the connected entry trusts it.
        with pytest.raises(NotRegular):
            decompose(cycles([6]), "III")

    def test_parity(self):
        with pytest.raises(ParityMismatch):
            decompose_connected_traced(named("CUBE"), Statement.III)[0]


class TestStaged:
    def test_petersen_iii(self):
        g = named("PETERSEN")
        sub = decompose_connected_traced(g, Statement.III)[0]
        assert profile_of(g, sub).counts == (2, 3, 2, 3)

    def test_catalogs_all_statements(self, connected_corpus):
        for name, g in connected_corpus:
            for s in applicable_statements(g.n):
                try:
                    sub, trace = decompose_connected_traced(g, s)
                except ExceptionGraph:
                    assert (g.n, s) in ((4, Statement.I), (6, Statement.III))
                    continue
                assert profile_of(g, sub) == target_profile(g.n, s), (name, s)
                assert not trace.fallback_used, (name, s)

    def test_cube_statement_i_first_two_cycle_vertices(self):
        g = named("CUBE")
        _, trace = decompose_connected_traced(g, Statement.I)
        # n3 = 2: V3 is two adjacent cycle vertices, hence one inner edge
        assert trace.stage1.e_v3 == 1

    def test_deep_checks_path(self, monkeypatch):
        # Recount the whole state after every vertex stage 1 adds (in vertex
        # space: deg1 counts V3 neighbors) and after every later recoloring.
        add, color_edge = ColoringState.add, ColoringState.color_edge
        added, colored = [], []

        def checked_add(state, v):
            add(state, v)
            deg1, adjacency = state.deg1, state.host.adjacency
            v3 = {u for u in range(len(deg1)) if deg1[u] == 3}
            assert v3 == set(state.v3)
            for u in set(range(len(deg1))) - v3:
                assert deg1[u] == sum(w in v3 for w in adjacency[u]), u
            assert state.sizes == [deg1.count(k) for k in range(4)]
            added.append(v)

        def checked(state, i):
            color_edge(state, i)
            deg = [0] * state.host.n
            for j in compress(range(state.host.m), state.colored):
                deg[state.tails[j]] += 1
                deg[state.heads[j]] += 1
            assert deg == state.deg1, "incremental degree bookkeeping drifted"
            assert state.sizes == [deg.count(k) for k in range(4)]
            colored.append(i)

        monkeypatch.setattr(ColoringState, "add", checked_add)
        monkeypatch.setattr(ColoringState, "color_edge", checked)
        for g, s in ((named("PETERSEN"), Statement.IV), (random_cubic(402, 21), Statement.III)):
            added.clear()
            colored.clear()
            sub, trace = decompose_connected_traced(g, s)
            assert profile_of(g, sub) == target_profile(g.n, s)  # (1, 2, 3, 4) on Petersen
            n3 = target_profile(g.n, s).counts[0]
            assert len(added) == n3
            # Stage 1 colors 3 n3 - e(V3) edges; every later one is recounted.
            assert len(colored) == len(sub) - (3 * n3 - trace.stage1.e_v3) > 0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.sampled_from([8, 12, 16, 20]))
    def test_random_connected_cubic(self, seed, n):
        g = random_cubic(n, seed)
        if len(connected_components(g)) != 1:
            return
        for s in applicable_statements(n):
            sub = decompose_connected_traced(g, s)[0]
            assert profile_of(g, sub) == target_profile(n, s)

    def test_deterministic(self):
        g = named("DESARGUES")
        assert (
            decompose_connected_traced(g, Statement.I)[0].bits
            == decompose_connected_traced(g, Statement.I)[0].bits
        )


def assert_seed(g):
    """seed_cycle(g) is a chordless cycle of at most n/2 vertices and, from
    length 5 up, no outside vertex has two neighbours on it."""
    cycle = seed_cycle(g)
    k, on_cycle = len(cycle), set(cycle)
    assert len(on_cycle) == k <= g.n / 2, cycle
    assert all(g.has_edge(u, cycle[i - 1]) for i, u in enumerate(cycle)), cycle
    for v in range(g.n):
        touching = sum(w in on_cycle for w in g.adjacency[v])
        assert touching == 2 if v in on_cycle else touching <= (1 if k >= 5 else 2), (cycle, v)
    return cycle


class TestSeedCycle:
    def test_girth_cycle_where_vertex_0_lies_on_one(self):
        for name in ("PETERSEN", "HEAWOOD", "CUBE", "DESARGUES", "PAPPUS", "MOEBIUS_KANTOR"):
            g = named(name)
            assert seed_cycle(g) == cycle_from(g, 0) == shortest_cycle(g), name

    def test_vertex_0_on_no_cycle(self):
        rng = random.Random("bridged-16")
        for g in [BRIDGED_16] + [relabeled(BRIDGED_16, rng) for _ in range(30)]:
            cycle = assert_seed(g)
            assert len(cycle) == 3
            for s in ("I", "II", "BALANCED"):
                res = decompose(g, s)
                assert res.achieved == res.target and not res.fallback_used, s
        assert 0 not in seed_cycle(BRIDGED_16)

    @pytest.mark.parametrize("extra, shorter", [
        ([(1, 7)], [0, 1, 7]),               # chord, the wrapping arc shorter
        ([(0, 4)], [0, 1, 2, 3, 4]),         # chord, a tie: the arc between
        ([(1, 8), (7, 8)], [0, 1, 8, 7]),    # outside vertex, the wrapping arc
        ([(2, 8), (6, 8)], [2, 3, 4, 5, 6, 8]),  # outside vertex, a tie
        ([(0, 8), (4, 8), (4, 9), (0, 9)], [0, 1, 2, 3, 4, 8]),  # the first vertex found
        ([(0, 8), (2, 9), (6, 9)], [2, 3, 4, 5, 6, 9]),  # 8 touches the cycle once: no cycle
        ([(0, 8), (4, 9)], None),
    ])
    def test_shorter_cycle_on_an_8_cycle(self, extra, shorter):
        g = build_graph(10, [(i, (i + 1) % 8) for i in range(8)] + extra)
        assert connected_mod._shorter_cycle(g.adjacency, list(range(8))) == shorter

    def test_an_equally_short_cycle_is_not_taken(self):
        # Vertex 4 closes another 4-cycle through 0 and 2, and no shorter one.
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 4)])
        assert connected_mod._shorter_cycle(g.adjacency, [0, 1, 2, 3]) is None

    def test_seed_on_catalog_and_random_graphs(self, connected_corpus):
        graphs = [g for _, g in connected_corpus if g.n >= 8]
        graphs += [random_cubic(n, seed) for n in range(8, 401, 6) for seed in range(4)]
        graphs = [g for g in graphs if len(connected_components(g)) == 1]
        rng = random.Random("seed-cycle")
        shortened = 0
        for g in graphs + [relabeled(g, rng) for g in graphs]:
            cycle = assert_seed(g)
            shortened += cycle != cycle_from(g, 0)
        assert len(graphs) > 250 and shortened > 20, shortened


class TestRules:
    """Rule mechanics on the Petersen statement-III trajectory."""

    def _after_stage1(self, g, s):
        state = ColoringState(g, target_profile(g.n, s), seed_cycle(g))
        stage1_grow_v3(state)
        return state

    def test_petersen_iii_rule_sequence(self):
        g = named("PETERSEN")
        state = self._after_stage1(g, Statement.III)
        state.start_rules()
        # no V1-V1 edge yet, so R1 must decline
        assert state.r1() is None
        # R2 prefers the cycle edge (2,3) over any other V1-V0 edge
        i = state.r2()
        assert g.edges[i] == (2, 3)
        before = tuple(state.sizes)
        state.color(i)
        assert tuple(a - b for a, b in zip(state.sizes, before)) == (-1, 0, 1, 0)
        # now (3,4) joins two 1-vertices: R1 applies, shrinking V1 by 2
        j = state.r1()
        assert g.edges[j] == (3, 4)
        before = tuple(state.sizes)
        state.color(j)
        assert tuple(a - b for a, b in zip(state.sizes, before)) == (0, -2, 2, 0)

    def test_r3_step_effects(self):
        from degbal.formats import parse_graph6

        g = parse_graph6(R3_GRAPH6)
        state = self._after_stage1(g, Statement.III)
        state.start_rules()
        assert state.r1() is None and state.r2() is None
        i, j = state.r3()
        ends = {*g.edges[i], *g.edges[j]}  # a path of two edges on three 0-vertices
        assert len(ends) == 3 and all(state.deg1[x] == 0 for x in ends)
        before = tuple(state.sizes)
        state.color(i)
        state.color(j)
        assert tuple(a - b for a, b in zip(state.sizes, before)) == (-3, 2, 1, 0)
        _, trace = decompose_connected_traced(g, Statement.III)
        assert trace.rule_counts["R3"] == 1

    def test_stage2_then_stage3_full_run(self):
        g = named("PETERSEN")
        state = self._after_stage1(g, Statement.IV)
        assert stage2_fill_v2(state)
        assert state.sizes[2] == state.n2
        assert state.sizes[1] <= state.n1
        stage3_fill_v1(state)
        subset = EdgeSubset.from_member(state.colored)
        assert profile_of(g, subset) == target_profile(10, Statement.IV)

    def test_stage3_refuses_v1_over_target(self):
        g = named("PETERSEN")
        state = ColoringState(g, target_profile(10, Statement.IV), seed_cycle(g))
        for u, v in ((0, 1), (2, 3)):  # four 1-vertices, one more than n1 = 3
            state.color_edge(g.edge_index(u, v))
        with pytest.raises(InternalStuck, match=r"^stage 3 entered with \|V1\| > n1$"):
            stage3_fill_v1(state)

    def test_parity_invariant_throughout(self):
        g = named("MOEBIUS_KANTOR")
        state = self._after_stage1(g, Statement.I)
        # |V1| and |V3| always share parity (checked after every vertex
        # stage 1 adds and inside color_edge; spot-check the boundary here)
        assert (state.sizes[1] + state.sizes[3]) % 2 == 0


def _v1_v1_uncolored(state, i):
    return not state.colored[i] and state.deg1[state.tails[i]] == state.deg1[state.heads[i]] == 1


def _v1_v0(state, i):
    return state.deg1[state.tails[i]] + state.deg1[state.heads[i]] == 1


class TestRuleSizeChecks:
    """Stage 2 checks each rule's effect on |V_k|: a finder that answers the
    wrong kind of edge once stops the run, naming the rule."""

    # Every V1 vertex is color-1-attached to V2 or V3, so R1 takes each
    # uncolored V1-V1 edge before R2 is asked; for R2's case R1 declines
    # until the wrong answer has fired.
    @pytest.mark.parametrize("finder, wrong, held", [
        ("r2", _v1_v1_uncolored, "r1"),
        ("r1", _v1_v0, None),
    ])
    def test_wrong_edge_names_the_rule(self, monkeypatch, finder, wrong, held):
        find, fired = getattr(ColoringState, finder), []

        def once(state):
            if not fired:
                fired.extend(i for i in range(state.host.m) if wrong(state, i))
                if fired:
                    return fired[0]
            return find(state)

        monkeypatch.setattr(ColoringState, finder, once)
        if held is not None:
            hold = getattr(ColoringState, held)
            monkeypatch.setattr(ColoringState, held, lambda state: hold(state) if fired else None)
        with pytest.raises(AssertionError, match=rf"^{finder.upper()}: sizes changed by"):
            decompose_connected_traced(random_cubic(402, 21), Statement.III)
        assert fired


class TestCallsPerStep:
    """Stages 1 and 2 keep their Python-level calls per step low.

    A clock-free guard: sys.setprofile counts each "call" event made inside
    stage1_grow_v3 and stage2_fill_v2, which depends on the code alone, not
    on the machine.  Per vertex added, stage 1 makes about 2.0 such calls
    (add and lowest), and stage 2 about 4.4 per rule applied; with a helper
    call per finder test, size check or recount they were 7.9 and 7.6.
    Pythons 3.10 to 3.13 give the same counts to within 0.01.
    """

    STAGES = ("stage1_grow_v3", "stage2_fill_v2")

    def _calls_inside_stages(self, g, s):
        counts, inside = dict.fromkeys(self.STAGES, 0), []

        def profile(frame, event, arg):
            if event == "call":
                if inside:
                    counts[inside[0].f_code.co_name] += 1
                elif frame.f_code.co_name in counts:
                    inside.append(frame)
            elif event == "return" and inside and frame is inside[0]:
                inside.pop()

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            _, trace = decompose_connected_traced(g, s)
        finally:
            sys.setprofile(previous)
        return counts, trace

    def test_calls_per_addition_and_per_rule(self):
        calls, additions, rules = dict.fromkeys(self.STAGES, 0), 0, 0
        for n, seed in ((1002, 1), (1400, 2), (402, 21)):
            g = random_cubic(n, seed)
            for s in applicable_statements(n):
                counts, trace = self._calls_inside_stages(g, s)
                for stage in self.STAGES:
                    calls[stage] += counts[stage]
                additions += target_profile(n, s).counts[0]
                rules += sum(trace.rule_counts.values())
        assert additions > 1000 and rules > 800
        assert calls["stage1_grow_v3"] / additions <= 2.5, (calls, additions)
        assert calls["stage2_fill_v2"] / rules <= 5.0, (calls, rules)


class TestSpecial14:
    def test_pattern_graph(self):
        sub = special_14_construction(PATTERN_14)
        assert profile_of(PATTERN_14, sub).counts == (3, 4, 3, 4)

    def test_relabeled_pattern(self):
        for seed in range(30):
            perm = list(range(14))
            random.Random(seed).shuffle(perm)
            g = build_graph(14, [(perm[u], perm[v]) for u, v in PATTERN_14.edges])
            sub = special_14_construction(g)
            assert profile_of(g, sub).counts == (3, 4, 3, 4), seed

    def test_oracle_confirms_target_on_pattern(self):
        assert find_witness(PATTERN_14, DegreeProfile((3, 4, 3, 4))) is not None

    def test_precondition_wrong_order(self):
        with pytest.raises(PreconditionViolated):
            special_14_construction(named("PETERSEN"))

    def test_precondition_disconnected(self):
        # The pattern on 10 vertices beside a K4: the search alone would
        # colour it (3,4,3,4), but the entry point refuses two components.
        ten = build_graph(10, [
            (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (4, 5),
            (5, 6), (5, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9),
        ])
        with pytest.raises(PreconditionViolated, match="connected"):
            special_14_construction(disjoint_union([ten, named("K4")]))

    def test_precondition_pattern_absent(self):
        # girth 6 rules out the K4-with-subdivided-edge block
        with pytest.raises(PreconditionViolated):
            special_14_construction(named("HEAWOOD"))


class _NoRules(ColoringState):
    """A state whose stage-2 finders find nothing, so stage 2 blocks by itself."""

    def r1(self):
        return None

    r2 = r3 = r1


class TestBlockedDispatch:
    """Stage-2 blocks are rare; force one to exercise fallback_search."""

    def _force_block(self, monkeypatch):
        monkeypatch.setattr(connected_mod, "stage2_fill_v2", lambda state: False)

    def test_routes_to_fallback_when_pattern_absent(self, monkeypatch):
        self._force_block(monkeypatch)
        g = named("HEAWOOD")
        sub, trace = decompose_connected_traced(g, Statement.III)
        assert trace.fallback_used and trace.branch == ["staged:blocked->fallback"]
        assert sub == find_witness(g, target_profile(14, Statement.III))  # the first witness
        assert profile_of(g, sub) == target_profile(14, Statement.III)

    def test_routes_to_fallback_on_small_orders(self, monkeypatch):
        self._force_block(monkeypatch)
        g = named("CUBE")
        sub, trace = decompose_connected_traced(g, Statement.I)
        assert trace.fallback_used
        assert profile_of(g, sub).counts == (2, 2, 2, 2)

    @pytest.mark.parametrize(
        "name, s",
        [("CUBE", Statement.I), ("HEAWOOD", Statement.III), ("PATTERN_14", Statement.III)],
    )
    def test_fallback_is_first_witness(self, monkeypatch, name, s):
        # The paper's one blocked configuration, PATTERN_14 under III, takes
        # the same path as any other block.
        self._force_block(monkeypatch)
        g = PATTERN_14 if name == "PATTERN_14" else named(name)
        sub, trace = decompose_connected_traced(g, s)
        assert trace.fallback_used
        assert trace.branch == ["staged:blocked->fallback"]
        assert sub.bits == find_witness(g, target_profile(g.n, s)).bits

    @pytest.mark.parametrize("s", [Statement.I, Statement.II])
    def test_fallback_on_largest_order(self, monkeypatch, s):
        # n = 16, m = 24: the largest order the backstop accepts.
        g = random_cubic(16, 1)
        assert len(connected_components(g)) == 1
        self._force_block(monkeypatch)
        sub, trace = decompose_connected_traced(g, s)
        assert trace.fallback_used
        assert profile_of(g, sub) == target_profile(16, s)

    def test_no_fallback_beyond_16(self, monkeypatch):
        self._force_block(monkeypatch)
        with pytest.raises(InternalStuck):
            decompose_connected_traced(named("PAPPUS"), Statement.III)

    @pytest.mark.parametrize(
        "name, s",
        [("PETERSEN", Statement.III), ("PETERSEN", Statement.IV), ("CUBE", Statement.I),
         ("CUBE", Statement.II), ("HEAWOOD", Statement.III), ("HEAWOOD", Statement.IV)],
    )
    def test_real_block_hands_stage1_state_to_fallback(self, monkeypatch, name, s):
        # With no rule found, stage 2 itself returns False on the coloring
        # stage 1 left, and the backstop takes that state.
        g = named(name)
        state = _NoRules(g, target_profile(g.n, s), seed_cycle(g))
        stage1_grow_v3(state)
        assert stage2_fill_v2(state) is False
        monkeypatch.setattr(connected_mod, "ColoringState", _NoRules)
        sub, trace = decompose_connected_traced(g, s)
        assert trace.fallback_used and trace.branch == ["staged:blocked->fallback"]
        assert sub == find_witness(g, target_profile(g.n, s))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_block_over_cap_warns_on_e_v1(self, monkeypatch, caplog, seed):
        # After stage 1 these graphs keep e(V1) > 2, more than the
        # blocked-state analysis allows, and m = 600 is over the oracle's cap.
        g = random_cubic(400, seed)
        assert len(connected_components(g)) == 1
        monkeypatch.setattr(connected_mod, "ColoringState", _NoRules)
        with pytest.raises(InternalStuck, match="^stage 2 blocked on n=400 with no fallback available$"):
            decompose_connected_traced(g, Statement.I)
        warned = [r for r in caplog.records if r.getMessage().startswith("stage-2 block with e(V1)=")]
        assert len(warned) == 1
        assert warned[0].name == "degbal.connected" and warned[0].levelno == logging.WARNING

    def test_block_with_no_witness(self, monkeypatch):
        self._force_block(monkeypatch)
        monkeypatch.setattr(connected_mod, "find_witness", lambda g, target: None)
        with pytest.raises(InternalStuck,
                           match=r"^stage 2 blocked and exhaustive search finds no \(2, 2, 2, 2\)$"):
            decompose_connected_traced(named("CUBE"), Statement.I)


def _drift_in_stage(stage_name, drifted_color):
    """Drift installer: the first color_edge call inside stage_name, per
    decomposition, runs drifted_color(state, color_edge, i) instead."""
    def install(monkeypatch, fired):
        stage = getattr(connected_mod, stage_name)

        def wrapped(state):
            color_edge = state.color_edge

            def once(i):
                if fired:
                    return color_edge(i)
                fired.append(i)
                return drifted_color(state, color_edge, i)

            state.color_edge = once
            try:
                return stage(state)
            finally:
                del state.color_edge

        monkeypatch.setattr(connected_mod, stage_name, wrapped)
    return install


def _written_not_bookkept(state, color_edge, i):
    state.colored[i] = 1


def _bookkept_not_written(state, color_edge, i):
    color_edge(i)
    state.colored[i] = 0


def _stage1_deg1_lags(monkeypatch, fired):
    # The first addition leaves one raised neighbor's deg1 where it was; sizes moves.
    add = ColoringState.add

    def lagging(state, v):
        deg1 = state.deg1
        before = {w: deg1[w] for w in state.host.adjacency[v] if deg1[w] < 3}
        add(state, v)
        if before and not fired:
            w = min(before)
            fired.append(w)
            deg1[w] = before[w]

    monkeypatch.setattr(ColoringState, "add", lagging)


def _stage1_colored_lags(monkeypatch, fired):
    # Stage 1 writes every edge of V3 but its last: bookkept, not written.
    stage1 = connected_mod.stage1_grow_v3

    def unwritten(state):
        stats = stage1(state)
        if not fired:
            i = state.colored.rindex(1)
            fired.append(i)
            state.colored[i] = 0
        return stats

    monkeypatch.setattr(connected_mod, "stage1_grow_v3", unwritten)


# Each drift leaves deg1 behind colored, or colored behind deg1, in one stage.
DRIFTS = {
    "stage1-deg1-lags": _stage1_deg1_lags,
    "stage1-colored-lags": _stage1_colored_lags,
    "stage2-deg1-lags": _drift_in_stage("stage2_fill_v2", _written_not_bookkept),
    "stage2-colored-lags": _drift_in_stage("stage2_fill_v2", _bookkept_not_written),
    "stage3-deg1-lags": _drift_in_stage("stage3_fill_v1", _written_not_bookkept),
    "stage3-colored-lags": _drift_in_stage("stage3_fill_v1", _bookkept_not_written),
}


class TestDrift:
    """With the stages' bookkeeping drifted once, decompose stops (a stage
    assert or its own profile count) or returns a result on target."""

    @pytest.fixture(scope="class")
    def inputs(self, catalog_graphs):
        return [g for _, g in catalog_graphs] + [
            random_cubic(n, seed) for n in range(8, 63, 2) for seed in range(3)]

    @pytest.mark.parametrize("drift", sorted(DRIFTS))
    def test_drift_is_stopped(self, monkeypatch, inputs, drift):
        fired = []
        DRIFTS[drift](monkeypatch, fired)
        stopped = 0
        for g in inputs:
            for s in applicable_statements(g.n):
                fired.clear()
                try:
                    res = decompose(g, s.value)
                except ExceptionGraph:
                    assert not fired
                    continue
                except (InternalStuck, AssertionError):
                    assert fired, (g, s)
                    stopped += 1
                    continue
                assert profile_of(g, res.subset) == res.target, (g, s)
        assert stopped

    def test_stage3_drift_without_asserts(self):
        # Under python -O only decompose's own count is left: a stage-3 edge
        # written without bookkeeping must end every run it touches in
        # InternalStuck (exit 5), with nothing on stdout.
        code = (
            "import contextlib, io, json, sys\n"
            "from degbal import cli, connected\n"
            "from degbal.formats import encode_graph6\n"
            "from degbal.gen import random_cubic\n"
            "stage3, fired = connected.stage3_fill_v1, []\n"
            "def drifted(state):\n"
            "    def written_not_bookkept(i):\n"
            "        fired.append(i)\n"
            "        state.colored[i] = 1\n"
            "        del state.color_edge\n"
            "    state.color_edge = written_not_bookkept\n"
            "    return stage3(state)\n"
            "connected.stage3_fill_v1 = drifted\n"
            "runs = []\n"
            "for n in range(8, 63, 2):\n"
            "    for seed in range(3):\n"
            "        fired.clear()\n"
            "        sys.stdin = io.StringIO(encode_graph6(random_cubic(n, seed)))\n"
            "        out, err = io.StringIO(), io.StringIO()\n"
            "        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "            status = cli.main(['decompose', '-i', '-'])\n"
            "        runs.append((bool(fired), status, out.getvalue(), err.getvalue()))\n"
            "print(json.dumps([__debug__, runs]))\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        debug, runs = json.loads(proc.stdout)
        assert debug is False
        assert any(fired for fired, *_ in runs)
        for fired, status, out, err in runs:
            if fired:
                assert (status, out) == (5, ""), err
                assert err.startswith("internal invariant failure: BALANCED: achieved"), err
            else:
                assert status == 0 and json.loads(out)["statement"] == "BALANCED"
