"""Constructive decompositions of connected cubic graphs.

For a connected cubic graph on n vertices the four statements target
    I   : (t, t, t, t)          for n = 4t     (not K4)
    II  : (t-1, t-1, t+1, t+1)  for n = 4t
    III : (t, t+1, t, t+1)      for n = 4t+2   (not K3,3)
    IV  : (t-1, t, t+1, t+2)    for n = 4t+2
where the tuple counts vertices of subgraph degree (3, 2, 1, 0).

The construction 2-colors edges in three stages: grow a connected set of
3-vertices from a shortest cycle, top up 2-vertices with three local
recoloring rules, then pair up leftover 0-vertices into 1-vertices.  A
stage-2 block (the paper's one blocked configuration is n = 14, statement
III; special_14_construction is its lemma) goes to the oracle's exact
witness search, and over the oracle's edge cap it is an InternalStuck.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    CapExceeded,
    ExceptionGraph,
    InternalStuck,
    NotConnected,
    ParityMismatch,
    PreconditionViolated,
    SpecialCaseNeeded,
)
from .graphs import (
    DegreeProfile,
    EdgeSubset,
    Graph,
    SmallClass,
    connected_components,
    profile_of,
    require_regular,
    shortest_cycle,
    small_class,
    subgraph_degrees,
)
from .oracle import find_witness

log = logging.getLogger(__name__)


class Statement(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ExceptionKind(Enum):
    K4_I = "K4_I"
    K33_III = "K33_III"
    TWO_K4_II = "TWO_K4_II"
    THREE_K4_I = "THREE_K4_I"
    TWO_C3 = "TWO_C3"
    TWO_C4 = "TWO_C4"


def statement_modulus(s: Statement) -> int:
    """Residue of n mod 4 required by the statement."""
    return 0 if s in (Statement.I, Statement.II) else 2


def target_profile(n: int, s: Statement) -> DegreeProfile:
    """Target (n3, n2, n1, n0) for order n under statement s."""
    if n % 4 != statement_modulus(s):
        raise ParityMismatch(f"statement {s} needs n = 4t+{statement_modulus(s)}, got n={n}")
    if n == 0 and s is Statement.I:
        return DegreeProfile((0, 0, 0, 0))
    if n < 4:
        raise ParityMismatch(f"statement {s} needs n >= 4, got n={n}")
    if s is Statement.I:
        t = n // 4
        return DegreeProfile((t, t, t, t))
    if s is Statement.II:
        t = n // 4
        return DegreeProfile((t - 1, t - 1, t + 1, t + 1))
    if s is Statement.III:
        t = (n - 2) // 4
        return DegreeProfile((t, t + 1, t, t + 1))
    t = (n - 2) // 4
    return DegreeProfile((t - 1, t, t + 1, t + 2))


@dataclass
class Stage1Stats:
    girth: int
    e_v3: int
    out_v3: int
    v2_size: int
    v1_size: int


@dataclass
class ConnectedTrace:
    """Which proof branch ran, plus stage bookkeeping for invariant tests."""

    branch: list[str] = field(default_factory=list)
    stage1: Stage1Stats | None = None
    rule_counts: dict = field(default_factory=lambda: {"R1": 0, "R2": 0, "R3": 0})
    fallback_used: bool = False


class ColoringState:
    """Mutable 2-coloring bookkeeping for the staged construction.

    colored[i] is 1 iff canonical edge i has color 1, i.e. lies in H; subset()
    packs it into a bitmask once.  deg1[v] is the number of color-1 edges at
    v; sizes[k] = |V_k|.

    Each rule finder is one lowest() call: a cursor that tests indices in
    order, with a min-heap behind it for indices the cursor has passed that
    a later coloring made valid again.  After edge ab is colored, color_edge
    offers each heap what its reach function names, the items whose
    predicate that coloring can turn true: for stage 1 the neighbors of a or
    b if it reached V3, for R1 the edges at a, b and their color-1
    neighbors, for R2 the edges at a or b if it reached V1.  Coloring only
    adds color-1 edges, so deg1 never decreases; the R3 and stage-3
    predicates ask for deg1 == 0, never turn true again, and pass no reach.
    """

    def __init__(self, host: Graph, targets: DegreeProfile, cycle: list[int]):
        self.host = host
        self.targets = targets
        self.cycle = cycle
        self.cycle_edges = sorted(
            host.edge_index(cycle[i], cycle[(i + 1) % len(cycle)])
            for i in range(len(cycle))
        )
        # One pass in edge order, which is sorted, so each list comes out
        # aligned with adjacency[v]; the index's ints are shared, not copied.
        self.incident: list[list[int]] = [[] for _ in range(host.n)]
        for (u, v), i in host._edge_index.items():
            self.incident[u].append(i)
            self.incident[v].append(i)
        self.colored = bytearray(host.m)
        self.deg1 = [0] * host.n
        self.sizes = [host.n, 0, 0, 0]
        self.rule_counts = {"R1": 0, "R2": 0, "R3": 0}
        self.stage1: Stage1Stats | None = None
        # predicate -> [cursor, min-heap of valid-again indices below it, reach]
        self.finders: dict = {}

    # targets, highest subgraph degree first
    @property
    def n3(self) -> int:
        return self.targets.counts[0]

    @property
    def n2(self) -> int:
        return self.targets.counts[1]

    @property
    def n1(self) -> int:
        return self.targets.counts[2]

    def color_edge(self, i: int) -> None:
        assert not self.colored[i]
        self.colored[i] = 1
        x, y = self.host.edges[i]
        for v in (x, y):
            d = self.deg1[v]
            self.sizes[d] -= 1
            self.sizes[d + 1] += 1
            self.deg1[v] = d + 1
        # Handshake: the odd classes V1 and V3 move in lockstep parity.
        assert (self.sizes[1] + self.sizes[3]) % 2 == 0
        for valid, (cursor, heap, reach) in self.finders.items():
            if reach is not None:
                for item in reach(self, x, y):
                    if item < cursor and valid(self, item):
                        heapq.heappush(heap, item)

    def color_vertex(self, v: int) -> None:
        """Color every uncolored edge at v (v becomes a 3-vertex)."""
        for i in self.incident[v]:
            if not self.colored[i]:
                self.color_edge(i)

    def lowest(self, valid, reach, on_edges: bool) -> int | None:
        """Lowest vertex (or edge) index i with valid(self, i), else None.

        reach(self, a, b) names what coloring edge ab can make valid; None
        means nothing can turn valid again.  Each index below the cursor was
        invalid when the cursor passed it, and one that turns valid later is
        in the reach of the coloring that turned it, so color_edge pushed it.
        So every valid index below the cursor is in the heap, and once stale
        indices are popped off its top, that top is the lowest valid index.
        The valid one found stays, since the caller may not color it.
        """
        finder = self.finders.get(valid)
        if finder is None:
            finder = self.finders[valid] = [0, [], reach]
        heap = finder[1]
        while heap:
            if valid(self, heap[0]):
                return heap[0]
            heapq.heappop(heap)
        end = self.host.m if on_edges else self.host.n
        i = finder[0]
        while i < end and not valid(self, i):
            i += 1
        finder[0] = i
        return i if i < end else None

    def colored_neighbor_degrees(self, v: int) -> list[int]:
        return [
            self.deg1[w]
            for w, i in zip(self.host.adjacency[v], self.incident[v])
            if self.colored[i]
        ]

    def e_within(self, k: int) -> int:
        """Number of host edges with both endpoints currently in V_k."""
        deg1 = self.deg1
        return sum(1 for u, v in self.host.edges if deg1[u] == k and deg1[v] == k)

    def assert_consistent(self) -> None:
        deg = subgraph_degrees(self.host, self.subset())
        assert deg == self.deg1, "incremental degree bookkeeping drifted"
        for k in range(4):
            assert self.sizes[k] == deg.count(k)

    def subset(self) -> EdgeSubset:
        return EdgeSubset(self.host.m, int(b"0" + self.colored[::-1].translate(_BIT_DIGITS), 2))


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def stage1_grow_v3(state: ColoringState) -> ColoringState:
    """Grow a connected V3 of target size starting along a shortest cycle."""
    n3 = state.n3
    assert n3 >= 1
    for v in state.cycle:
        if state.sizes[3] >= n3:
            break
        before = state.sizes[3]
        state.color_vertex(v)
        assert state.sizes[3] == before + 1, "cycle walk must add exactly one 3-vertex"
    while state.sizes[3] < n3:
        v = _stage1_candidate(state)
        if v is None:
            raise InternalStuck("stage 1: no expansion vertex (should be impossible)")
        before = state.sizes[3]
        state.color_vertex(v)
        assert state.sizes[3] == before + 1, "expansion must add exactly one 3-vertex"

    state.assert_consistent()
    e_v3 = state.e_within(3)
    out_v3 = 3 * n3 - 2 * e_v3
    girth = len(state.cycle)
    assert e_v3 >= n3 - 1, "V3 must induce a connected subgraph"
    if girth <= n3:
        assert e_v3 >= n3, "V3 contains the whole cycle, hence a cycle"
    assert out_v3 <= n3 + 2
    assert 2 * state.sizes[2] + state.sizes[1] == out_v3
    assert state.sizes[2] <= state.n2
    assert state.sizes[1] <= n3 + 2
    assert _v3_connected(state)
    state.stage1 = Stage1Stats(girth, e_v3, out_v3, state.sizes[2], state.sizes[1])
    state.finders.clear()  # this stage's finders are done; stop offering to them
    return state


def _is_stage1_candidate(state: ColoringState, v: int) -> bool:
    deg1 = state.deg1
    if deg1[v] == 3:
        return False
    has_v3 = False
    for w in state.host.adjacency[v]:
        if deg1[w] == 3:
            has_v3 = True
        elif deg1[w] == 2:
            return False
    return has_v3


def _reach_stage1(state: ColoringState, a: int, b: int) -> list[int]:
    """Neighbors of a or b if it reached V3: only that adds a V3 or drops a V2 neighbor."""
    return [w for v in (a, b) if state.deg1[v] == 3 for w in state.host.adjacency[v]]


def _stage1_candidate(state: ColoringState) -> int | None:
    """Lowest vertex outside V3, adjacent to V3, with no neighbor in V2."""
    return state.lowest(_is_stage1_candidate, _reach_stage1, on_edges=False)


def _v3_connected(state: ColoringState) -> bool:
    v3 = [v for v in range(state.host.n) if state.deg1[v] == 3]
    if not v3:
        return True
    seen = {v3[0]}
    stack = [v3[0]]
    while stack:
        u = stack.pop()
        for w in state.host.adjacency[u]:
            if state.deg1[w] == 3 and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(v3)


def _is_r1(state: ColoringState, i: int) -> bool:
    u, v = state.host.edges[i]
    return (
        not state.colored[i]
        and state.deg1[u] == state.deg1[v] == 1
        and any(d >= 2 for x in (u, v) for d in state.colored_neighbor_degrees(x))
    )


def _reach_r1(state: ColoringState, a: int, b: int) -> set[int]:
    """Edges at the color-1 neighbors of a and b, a and b among them: the only edges
    whose color, endpoints' deg1 or endpoints' color-1 neighbors' deg1 changed."""
    adjacency, incident, colored = state.host.adjacency, state.incident, state.colored
    return {e for v in (a, b) for w, i in zip(adjacency[v], incident[v]) if colored[i]
            for e in incident[w]}


def _find_r1(state: ColoringState) -> int | None:
    """Lowest uncolored V1-V1 edge with an endpoint color-1-attached to V2 or V3."""
    return state.lowest(_is_r1, _reach_r1, on_edges=True)


def _is_r2(state: ColoringState, i: int) -> bool:
    u, v = state.host.edges[i]
    return state.deg1[u] + state.deg1[v] == 1


def _reach_r2(state: ColoringState, a: int, b: int) -> list[int]:
    """Edges at a or b if it entered V1: only an endpoint going 0 -> 1 makes a sum of 1."""
    return [e for v in (a, b) if state.deg1[v] == 1 for e in state.incident[v]]


def _find_r2(state: ColoringState) -> int | None:
    """Lowest V1-V0 edge of the stage-1 cycle, else lowest V1-V0 edge."""
    for i in state.cycle_edges:
        if _is_r2(state, i):
            return i
    return state.lowest(_is_r2, _reach_r2, on_edges=True)


def _is_r3(state: ColoringState, v: int) -> bool:
    deg1 = state.deg1
    return deg1[v] == 0 and sum(1 for w in state.host.adjacency[v] if deg1[w] == 0) >= 2


def _find_r3(state: ColoringState) -> tuple[int, int, int] | None:
    """Lowest 0-vertex with two 0-neighbors, plus its two lowest such."""
    v = state.lowest(_is_r3, None, on_edges=False)
    if v is None:
        return None
    zeros = [w for w in state.host.adjacency[v] if state.deg1[w] == 0]
    return v, zeros[0], zeros[1]


def _is_v0_v0(state: ColoringState, i: int) -> bool:
    u, v = state.host.edges[i]
    return state.deg1[u] == 0 and state.deg1[v] == 0


def _find_v0_v0(state: ColoringState) -> int | None:
    """Lowest edge with both endpoints in V0."""
    return state.lowest(_is_v0_v0, None, on_edges=True)


def _run_rule(state: ColoringState, name: str, edge_indices: list[int],
              deltas: tuple[int, int, int, int]) -> None:
    """Color the rule's edges and check its advertised effect on |V_k|."""
    before = tuple(state.sizes)
    for i in edge_indices:
        state.color_edge(i)
    change = tuple(a - b for a, b in zip(state.sizes, before))
    assert change == deltas, f"{name}: sizes changed by {change}, expected {deltas}"
    state.rule_counts[name] += 1


def stage2_fill_v2(state: ColoringState) -> ColoringState:
    """Reach |V2| = n2 via rules R1/R2/R3; raise SpecialCaseNeeded if stuck.

    Size effects, ordered (|V0|, |V1|, |V2|, |V3|):
      R1 colors a V1-V1 edge        -> (0, -2, +2, 0)
      R2 colors a V1-V0 edge        -> (-1, 0, +1, 0), cycle edges preferred
      R3 colors two V0-V0 edges     -> (-3, +2, +1, 0), only while |V1| < n1
    """
    host = state.host
    while state.sizes[2] < state.n2:
        if state.sizes[2] < state.n2 - 1:
            i = _find_r1(state)
            if i is not None:
                _run_rule(state, "R1", [i], (0, -2, 2, 0))
                continue
        i = _find_r2(state)
        if i is not None:
            _run_rule(state, "R2", [i], (-1, 0, 1, 0))
            continue
        if state.sizes[1] < state.n1:
            found = _find_r3(state)
            if found is not None:
                v, u, w = found
                _run_rule(
                    state,
                    "R3",
                    [host.edge_index(v, u), host.edge_index(v, w)],
                    (-3, 2, 1, 0),
                )
                continue
        raise SpecialCaseNeeded(
            f"stage 2 blocked at |V2|={state.sizes[2]} of {state.n2}"
        )
    state.assert_consistent()
    assert state.sizes[1] <= state.n1, "stage 2 must finish with |V1| <= n1"
    state.finders.clear()  # this stage's finders are done; stop offering to them
    return state


def stage3_fill_v1(state: ColoringState) -> ColoringState:
    """Raise |V1| to n1 two at a time by coloring V0-V0 edges."""
    if state.sizes[1] > state.n1:
        raise InternalStuck("stage 3 entered with |V1| > n1")
    assert (state.n1 - state.sizes[1]) % 2 == 0, "V1 deficit must be even"
    while state.sizes[1] < state.n1:
        edge = _find_v0_v0(state)
        if edge is None:
            raise InternalStuck("stage 3: no V0-V0 edge (should be impossible)")
        before = tuple(state.sizes)
        state.color_edge(edge)
        change = tuple(a - b for a, b in zip(state.sizes, before))
        assert change == (-2, 2, 0, 0)
    state.assert_consistent()
    return state


def special_14_construction(g: Graph) -> EdgeSubset:
    """(3,4,3,4)-coloring of a 14-vertex graph holding the blocked pattern.

    The pattern: five vertices inducing K4 with one subdivided edge, whose
    degree-2 vertex v has its single outside edge to u; u's other neighbors
    are u1, u2; some w is adjacent to none of the five, nor to u or u1.
    Color the induced block except one edge at v, plus uv, uu1, and two
    edges at w.
    """
    require_regular(g, 3)
    if g.n != 14:
        raise PreconditionViolated(f"pattern needs n=14, got n={g.n}")
    if len(connected_components(g)) != 1:
        raise PreconditionViolated("pattern needs a connected graph")
    for block in itertools.combinations(range(g.n), 5):
        inside = set(block)
        deg_in = {x: sum(1 for y in g.adjacency[x] if y in inside) for x in block}
        if sorted(deg_in.values()) != [2, 3, 3, 3, 3]:
            continue
        v = next(x for x in block if deg_in[x] == 2)
        a, b = [y for y in g.adjacency[v] if y in inside]
        if g.has_edge(a, b):
            continue  # the subdivided edge must be missing
        u = next(y for y in g.adjacency[v] if y not in inside)
        u1, u2 = sorted(y for y in g.adjacency[u] if y != v)
        w = _find_special_w(g, inside, u, u1)
        if w is None:
            w = _find_special_w(g, inside, u, u2)
            if w is None:
                continue
            u1 = u2
        edges = []
        for x, y in itertools.combinations(sorted(block), 2):
            if g.has_edge(x, y):
                edges.append((x, y))
        drop = (v, max(a, b)) if v < max(a, b) else (max(a, b), v)
        edges.remove(drop)
        edges.append((v, u) if v < u else (u, v))
        edges.append((u, u1) if u < u1 else (u1, u))
        for x in g.adjacency[w][:2]:
            edges.append((w, x) if w < x else (x, w))
        subset = EdgeSubset.from_edges(g, edges)
        achieved = profile_of(g, subset)
        assert achieved == DegreeProfile((3, 4, 3, 4)), achieved
        return subset
    raise PreconditionViolated("no K4-with-subdivided-edge block found")


def _find_special_w(g: Graph, inside: set, u: int, u1: int) -> int | None:
    for w in range(g.n):
        if w in inside:
            continue
        nbrs = g.adjacency[w]
        if any(x in inside for x in nbrs):
            continue
        if u in nbrs or u1 in nbrs:
            continue
        return w
    return None


def fallback_search(g: Graph, target: DegreeProfile) -> EdgeSubset | None:
    """First subset in rank order realizing ``target``, or None.

    The stage-2 backstop: the oracle's exhaustive single-profile search,
    which raises CapExceeded above its default edge cap.
    """
    return find_witness(g, target)


def decompose_connected(g: Graph, s: Statement) -> EdgeSubset:
    """Edge subset realizing target_profile(n, s) on a connected cubic g."""
    if len(connected_components(g)) != 1:
        raise NotConnected("decompose_connected expects one component")
    return decompose_connected_traced(g, s)[0]


def decompose_connected_traced(g: Graph, s: Statement) -> tuple[EdgeSubset, ConnectedTrace]:
    """decompose_connected plus its trace, for a g already known connected."""
    require_regular(g, 3)
    target = target_profile(g.n, s)
    trace = ConnectedTrace()

    if g.n <= 6:
        subset = _base_case(g, s, trace)
    else:
        subset = _staged(g, s, target, trace)

    achieved = profile_of(g, subset)
    if achieved != target:
        raise InternalStuck(f"achieved {achieved.counts}, target {target.counts}")
    return subset, trace


def _base_case(g: Graph, s: Statement, trace: ConnectedTrace) -> EdgeSubset:
    """t = 1 orders get the proof's explicit constructions."""
    cls = small_class(g)
    if cls is SmallClass.K4:
        if s is Statement.I:
            raise ExceptionGraph(ExceptionKind.K4_I, "K4 has no (1,1,1,1) subgraph")
        trace.branch.append("base:K4:single-edge")
        return EdgeSubset(g.m, 1)  # lowest edge: H = 2K1 u K2
    if cls is SmallClass.K33 and s is Statement.III:
        raise ExceptionGraph(ExceptionKind.K33_III, "K3,3 has no (1,2,1,2) subgraph")
    if s is Statement.IV:
        # H = 3K1 u P3: the two lowest edges at vertex 0.
        a, b = g.adjacency[0][:2]
        trace.branch.append(f"base:{cls.value}:P3")
        return EdgeSubset.from_edges(g, [(0, a), (0, b)])
    # prism, statement III: triangle plus one pendant edge.
    assert cls is SmallClass.PRISM and s is Statement.III
    tri = shortest_cycle(g)
    assert tri is not None and len(tri) == 3
    x = min(tri)
    outside = next(w for w in g.adjacency[x] if w not in tri)
    edges = [(tri[i], tri[(i + 1) % 3]) for i in range(3)] + [(x, outside)]
    trace.branch.append("base:PRISM:triangle+pendant")
    return EdgeSubset.from_edges(g, edges)


def _staged(g: Graph, s: Statement, target: DegreeProfile, trace: ConnectedTrace) -> EdgeSubset:
    cycle = shortest_cycle(g)
    assert cycle is not None, "a cubic graph always contains a cycle"
    state = ColoringState(g, target, cycle)
    trace.rule_counts = state.rule_counts  # counted in place from here on
    stage1_grow_v3(state)
    trace.stage1 = state.stage1
    try:
        stage2_fill_v2(state)
    except SpecialCaseNeeded:
        return _blocked_dispatch(g, s, target, state, trace)
    stage3_fill_v1(state)
    trace.branch.append(f"staged:{s.value}:girth={len(cycle)}")
    return state.subset()


def _blocked_dispatch(
    g: Graph,
    s: Statement,
    target: DegreeProfile,
    state: ColoringState,
    trace: ConnectedTrace,
) -> EdgeSubset:
    """Stage-2 block: the oracle's first witness, or InternalStuck over its edge cap."""
    e_v1 = state.e_within(1)
    if e_v1 > 2:
        # The blocked-state analysis promises e(V1) <= 2; seeing more means
        # an unmodeled configuration worth recording, not guessing about.
        log.warning(
            "stage-2 block with e(V1)=%d on n=%d edges=%s", e_v1, g.n, g.edges
        )
    try:
        subset = fallback_search(g, target)
    except CapExceeded:
        raise InternalStuck(f"stage 2 blocked on n={g.n} with no fallback available") from None
    if subset is None:
        raise InternalStuck(
            f"stage 2 blocked and exhaustive search finds no {target.counts}"
        )
    trace.fallback_used = True
    trace.branch.append("staged:blocked->fallback")
    log.warning("fallback used on n=%d statement %s", g.n, s.value)
    return subset
