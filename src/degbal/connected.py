"""Constructive decompositions of connected cubic graphs.

For a connected cubic graph on n vertices the four statements target
    I   : (t, t, t, t)          for n = 4t     (not K4)
    II  : (t-1, t-1, t+1, t+1)  for n = 4t
    III : (t, t+1, t, t+1)      for n = 4t+2   (not K3,3)
    IV  : (t-1, t, t+1, t+2)    for n = 4t+2
where the tuple counts vertices of subgraph degree (3, 2, 1, 0).

The construction 2-colors edges in three stages, each with its own finders:
grow a connected set of 3-vertices from a short chordless cycle found from
vertex 0, one vertex at a time and in vertex space; top up 2-vertices with
three local recoloring rules, each found incrementally; then pair up
leftover 0-vertices into 1-vertices in one forward pass over the edges.  A
stage-2 block (the paper's one blocked configuration is n = 14, statement
III; special_14_construction is its lemma) goes to the oracle's exact
witness search, and over the oracle's edge cap it is an InternalStuck.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush

from .errors import (
    CapExceeded,
    ExceptionGraph,
    InternalStuck,
    ParityMismatch,
    PreconditionViolated,
)
from .graphs import (
    DegreeProfile,
    EdgeSubset,
    Graph,
    SmallClass,
    classify_small,
    connected_components,
    cycle_from,
    incident_edges,
    profile_of,
    require_regular,
    triangle_at_zero,
)
from .oracle import find_witness

log = logging.getLogger(__name__)


class Statement(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"

    def __str__(self) -> str:  # ParityMismatch messages name the statement
        return self.value


class ExceptionKind(Enum):
    K4_I = "K4_I"
    K33_III = "K33_III"
    TWO_K4_II = "TWO_K4_II"
    THREE_K4_I = "THREE_K4_I"
    TWO_C3 = "TWO_C3"
    TWO_C4 = "TWO_C4"


# The paper's refusals: (statement, the shapes of the components in label
# order: small classes, or cycle lengths under TWO_REGULAR) -> (kind, the
# statement BALANCED runs instead).  No row has more than three components.
REFUSALS = {
    (Statement.I, (SmallClass.K4,)): (ExceptionKind.K4_I, Statement.II),
    (Statement.I, (SmallClass.K4,) * 3): (ExceptionKind.THREE_K4_I, Statement.II),
    (Statement.II, (SmallClass.K4,) * 2): (ExceptionKind.TWO_K4_II, None),
    (Statement.III, (SmallClass.K33,)): (ExceptionKind.K33_III, Statement.IV),
    ("TWO_REGULAR", (3, 3)): (ExceptionKind.TWO_C3, None),
    ("TWO_REGULAR", (4, 4)): (ExceptionKind.TWO_C4, None),
}


def refusal(s: Statement | str, shapes: list) -> tuple[ExceptionKind | None, Statement | None]:
    """The REFUSALS row of s on components of these shapes, else (None, None)."""
    return REFUSALS.get((s, tuple(shapes)), (None, None)) if len(shapes) <= 3 else (None, None)


# Statement -> (n mod 4, offsets of (n3, n2, n1, n0) from t = n // 4).
_TARGETS = {
    Statement.I: (0, (0, 0, 0, 0)),
    Statement.II: (0, (-1, -1, 1, 1)),
    Statement.III: (2, (0, 1, 0, 1)),
    Statement.IV: (2, (-1, 0, 1, 2)),
}


def target_profile(n: int, s: Statement) -> DegreeProfile:
    """Target (n3, n2, n1, n0) for order n under statement s.  Below n = 4
    only statement I, whose offsets are all 0, has one: the empty graph's."""
    residue, offsets = _TARGETS[s]
    if n % 4 != residue:
        raise ParityMismatch(f"statement {s} needs n = 4t+{residue}, got n={n}")
    if n < 4 and any(offsets):
        raise ParityMismatch(f"statement {s} needs n >= 4, got n={n}")
    return DegreeProfile(tuple(n // 4 + k for k in offsets))


@dataclass
class Stage1Stats:
    cycle_length: int
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
    """Mutable 2-coloring bookkeeping for the staged construction, and its finders.

    colored[i] is 1 iff canonical edge i has color 1, i.e. lies in H;
    EdgeSubset.from_member packs it into a bitmask once.  deg1[v] is the
    number of color-1 edges at v; sizes[k] = |V_k|; both move by
    increments, and no stage recounts them: the stages assert the paper's
    size identities, and general.decompose counts the result's profile
    once.  Stage 1 grows V3 through add and lowest, stage 2 colors through
    color and the rule finders, stage 3 with color_edge alone.
    """

    def __init__(self, host: Graph, targets: DegreeProfile, cycle: list[int]):
        self.host = host
        self.tails, self.heads, self.adjacency = host.tails, host.heads, host.adjacency
        self.n3, self.n2, self.n1 = targets.counts[:3]  # highest subgraph degree first
        self.cycle = cycle
        self.incident = incident_edges(host)
        self.colored = bytearray(host.m)
        self.deg1 = [0] * host.n
        self.sizes = [host.n, 0, 0, 0]
        self.rule_counts = {"R1": 0, "R2": 0, "R3": 0}
        self.v3, self.v3_cursor, self.v3_heap = [], 0, []

    def color_edge(self, i: int) -> None:
        colored, deg1, sizes = self.colored, self.deg1, self.sizes
        assert not colored[i]
        colored[i] = 1
        x, y = self.tails[i], self.heads[i]
        d = deg1[x]
        sizes[d] -= 1
        sizes[d + 1] += 1
        deg1[x] = d + 1
        d = deg1[y]
        sizes[d] -= 1
        sizes[d + 1] += 1
        deg1[y] = d + 1
        # Handshake: the odd classes V1 and V3 move in lockstep parity.
        assert (sizes[1] + sizes[3]) % 2 == 0

    # Stage 1 in vertex space: V3 grows one vertex at a time.  Stage 1 colors
    # every edge at each vertex it adds, so an edge is colored exactly when an
    # endpoint is in V3, and deg1[w] of a w outside V3 counts its V3
    # neighbors.  add(v) keeps deg1 and sizes so; stage1_grow_v3 writes
    # colored at the end.  lowest() is a cursor over the vertices with a
    # min-heap of valid-again vertices below it: only a neighbor of an added
    # vertex can turn valid, and add offers those.

    def add(self, v: int) -> None:
        deg1, sizes, adjacency = self.deg1, self.sizes, self.adjacency
        d = deg1[v]
        assert d != 3, "an addition must add exactly one 3-vertex"
        sizes[d] -= 1
        sizes[3] += 1
        deg1[v] = 3
        self.v3.append(v)
        cursor = self.v3_cursor
        for w in adjacency[v]:
            d = deg1[w]
            if d != 3:
                assert d < 2, "an addition must add exactly one 3-vertex"
                sizes[d] -= 1
                sizes[d + 1] += 1
                deg1[w] = d + 1
                # w is now adjacent to V3; offer it if it is a candidate, which a
                # later neighbor's update can only undo, never bring about.
                if w < cursor:
                    a, b, c = adjacency[w]
                    if deg1[a] != 2 and deg1[b] != 2 and deg1[c] != 2:
                        heappush(self.v3_heap, w)
        assert (sizes[1] + sizes[3]) % 2 == 0

    def lowest(self) -> int | None:
        """Lowest vertex outside V3, adjacent to V3, with no neighbor in V2."""
        # A candidate is outside V3 and adjacent to it (deg1 counts V3
        # neighbors) with no neighbor in V2; g is cubic.  The tests are
        # inline: a call costs more than most vertices' test.
        deg1, adjacency, heap = self.deg1, self.adjacency, self.v3_heap
        while heap:
            v = heap[0]
            if 0 < deg1[v] < 3:
                a, b, c = adjacency[v]
                if deg1[a] != 2 and deg1[b] != 2 and deg1[c] != 2:
                    return v
            heappop(heap)
        i, n = self.v3_cursor, len(deg1)
        while i < n:
            if 0 < deg1[i] < 3:
                a, b, c = adjacency[i]
                if deg1[a] != 2 and deg1[b] != 2 and deg1[c] != 2:
                    break
            i += 1
        self.v3_cursor = i
        return i if i < n else None

    # Stage 2's R1, R2 and R3 finders.  R1 and R2 are cursors over the edges,
    # each with a min-heap of edges below it that a coloring made valid again.
    # color(i) colors edge i and offers what that can turn valid: the edges
    # at an endpoint entering V1 (R1 and R2), and the edges at the color-1 V1
    # neighbors of an endpoint leaving V1 (R1).  deg1 only rises, so R3
    # (deg1 == 0) is a plain cursor.

    def start_rules(self) -> None:
        """Set up stage 2's finders on the coloring stage 1 left."""
        cycle, deg1, edge_index = self.cycle, self.deg1, self.host.edge_index
        # deg1 never decreases, so a cycle edge with both ends out of V0 is never R2's again.
        self.cycle_edges = sorted([edge_index(u, v) for u, v in zip(cycle, cycle[1:] + cycle[:1])
                                   if deg1[u] == 0 or deg1[v] == 0])
        self.r1_cursor = self.r2_cursor = self.r3_cursor = 0
        self.r1_heap, self.r2_heap = [], []

    def color(self, i: int) -> None:
        self.color_edge(i)
        deg1, colored, adjacency, incident = self.deg1, self.colored, self.adjacency, self.incident
        r1_cursor, r2_cursor = self.r1_cursor, self.r2_cursor
        for x in (self.tails[i], self.heads[i]):
            d = deg1[x]
            if d == 1:  # x entered V1; its one color-1 edge is i
                for z, e in zip(adjacency[x], incident[x]):
                    if deg1[z] == 0:
                        if e < r2_cursor:
                            heappush(self.r2_heap, e)
                    elif deg1[z] == 1 and e < r1_cursor and _is_r1(self, e):
                        heappush(self.r1_heap, e)
            elif d == 2:  # x left V1: each color-1 neighbor w in V1 is now attached to V2
                for w, e in zip(adjacency[x], incident[x]):
                    if colored[e] and deg1[w] == 1:
                        for z, f in zip(adjacency[w], incident[w]):
                            if deg1[z] == 1 and f < r1_cursor:
                                heappush(self.r1_heap, f)

    def r1(self) -> int | None:
        """Lowest uncolored V1-V1 edge with an endpoint color-1-attached to V2 or V3."""
        heap = self.r1_heap
        while heap:
            if _is_r1(self, heap[0]):
                return heap[0]
            heappop(heap)
        i, deg1, tails, heads = self.r1_cursor, self.deg1, self.tails, self.heads
        m = len(tails)
        # Test the V1-V1 part inline; a call costs more than most edges' test.
        while i < m and not (deg1[tails[i]] == deg1[heads[i]] == 1 and _is_r1(self, i)):
            i += 1
        self.r1_cursor = i
        return i if i < m else None

    def r2(self) -> int | None:
        """Lowest V1-V0 edge of the stage-1 cycle, else lowest V1-V0 edge."""
        deg1, tails, heads, heap = self.deg1, self.tails, self.heads, self.r2_heap
        # A V1-V0 edge is the one kind whose two deg1 values sum to 1.
        for i in self.cycle_edges:
            if deg1[tails[i]] + deg1[heads[i]] == 1:
                return i
        while heap:
            i = heap[0]
            if deg1[tails[i]] + deg1[heads[i]] == 1:
                return i
            heappop(heap)
        i, m = self.r2_cursor, len(tails)
        while i < m and deg1[tails[i]] + deg1[heads[i]] != 1:
            i += 1
        self.r2_cursor = i
        return i if i < m else None

    def r3(self) -> tuple[int, int] | None:
        """The edges from the lowest 0-vertex with two 0-neighbors to its two lowest such."""
        deg1, adjacency, incident = self.deg1, self.adjacency, self.incident
        for v in range(self.r3_cursor, len(deg1)):
            if deg1[v] == 0:
                zeros = [e for w, e in zip(adjacency[v], incident[v]) if deg1[w] == 0]
                if len(zeros) >= 2:
                    self.r3_cursor = v
                    return zeros[0], zeros[1]
        self.r3_cursor = len(deg1)
        return None


def _is_r1(state: ColoringState, i: int) -> bool:
    colored, deg1 = state.colored, state.deg1
    if colored[i]:
        return False
    u, v = state.tails[i], state.heads[i]
    if deg1[u] != 1 or deg1[v] != 1:
        return False
    adjacency, incident = state.adjacency, state.incident
    for x in (u, v):
        for w, e in zip(adjacency[x], incident[x]):
            if colored[e] and deg1[w] >= 2:
                return True
    return False


def seed_cycle(g: Graph) -> list[int]:
    """Stage 1's seed: a short chordless cycle of a connected cubic g, found from vertex 0.

    Start from cycle_from(g, 0).  While a chord, or an outside vertex with
    two neighbours on the cycle, closes a strictly shorter cycle, move to the
    first one the scan meets: the shorter arc (the inner one on a tie), its
    vertices in their old order.  So the seed is chordless and, from length
    L = 5 up, its L outside neighbours are distinct, so L <= n/2.  Each step
    scans the cycle once: O(L^2) past the search.
    """
    cycle = cycle_from(g, 0)
    assert cycle is not None, "a connected cubic graph has a cycle"
    # No cycle is shorter than a triangle.
    while len(cycle) > 3 and (shorter := _shorter_cycle(g.adjacency, cycle)) is not None:
        cycle = shorter
    return cycle


def _shorter_cycle(adjacency, cycle: list[int]) -> list[int] | None:
    """The first strictly shorter cycle that a chord or an outside vertex closes, or None.

    An outside vertex is tried with the first position it touches only:
    from length 5 up any two positions close a shorter cycle, and on a
    4-cycle a vertex touching three positions closes a triangle with its
    first and third.
    """
    k = len(cycle)
    position = dict(zip(cycle, range(k)))
    outside: dict[int, int] = {}  # outside vertex -> the first cycle position it touches
    for j, v in enumerate(cycle):
        for w in adjacency[v]:
            i = position.get(w)
            if i is None:
                i = outside.setdefault(w, j)
                if i != j and min(j - i, k - j + i) + 2 < k:
                    return _arc(cycle, i, j, [w])
            elif i < j - 1 and (i, j) != (0, k - 1):
                return _arc(cycle, i, j, [])  # a chord always closes a shorter cycle
    return None


def _arc(cycle: list[int], i: int, j: int, via: list[int]) -> list[int]:
    """The shorter cycle through positions i < j and the vertices via, the arc i..j on a tie."""
    if 2 * (j - i) <= len(cycle):
        return cycle[i:j + 1] + via
    return cycle[:i + 1] + via + cycle[j:]


def stage1_grow_v3(state: ColoringState) -> Stage1Stats:
    """Grow a connected V3 of target size starting along the seed cycle."""
    n3 = state.n3
    assert n3 >= 1
    for v in state.cycle[:n3]:
        state.add(v)
    while len(state.v3) < n3:
        v = state.lowest()
        if v is None:
            raise InternalStuck("stage 1: no expansion vertex (should be impossible)")
        state.add(v)
    # Write the coloring and recount e(V3) in one pass: each V3-V3 edge shows up at both ends.
    v3, colored, deg1, adjacency = state.v3, state.colored, state.deg1, state.adjacency
    incident, ends = state.incident, 0
    for v in v3:
        a, b, c = adjacency[v]
        i, j, k = incident[v]
        colored[i] = colored[j] = colored[k] = 1
        ends += (deg1[a] == 3) + (deg1[b] == 3) + (deg1[c] == 3)
    e_v3 = ends // 2
    out_v3 = 3 * n3 - 2 * e_v3
    cycle_length = len(state.cycle)
    assert e_v3 >= n3 - 1, "V3 must induce a connected subgraph"
    if cycle_length <= n3:
        assert e_v3 >= n3, "V3 contains the whole cycle, hence a cycle"
    assert out_v3 <= n3 + 2
    assert 2 * state.sizes[2] + state.sizes[1] == out_v3
    assert state.sizes[2] <= state.n2
    assert state.sizes[1] <= n3 + 2
    assert _v3_connected(state, v3)
    return Stage1Stats(cycle_length, e_v3, out_v3, state.sizes[2], state.sizes[1])


def _v3_connected(state: ColoringState, v3: list[int]) -> bool:
    deg1, adjacency = state.deg1, state.adjacency
    seen, queue = {v3[0]}, [v3[0]]
    for u in queue:
        for w in adjacency[u]:
            if deg1[w] == 3 and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(queue) == len(v3)


def stage2_fill_v2(state: ColoringState) -> bool:
    """Reach |V2| = n2 via rules R1/R2/R3: True once there, False where none applies.

    Size effects, ordered (|V0|, |V1|, |V2|, |V3|), each asserted per rule:
      R1 colors a V1-V1 edge        -> (0, -2, +2, 0)
      R2 colors a V1-V0 edge        -> (-1, 0, +1, 0), cycle edges preferred
      R3 colors two V0-V0 edges     -> (-3, +2, +1, 0), only while |V1| < n1
    """
    state.start_rules()
    sizes, n1, n2, counts = state.sizes, state.n1, state.n2, state.rule_counts
    while sizes[2] < n2:
        v0, v1, v2, v3 = sizes
        if sizes[2] < n2 - 1 and (i := state.r1()) is not None:
            state.color(i)
            name, deltas = "R1", (0, -2, 2, 0)
        elif (i := state.r2()) is not None:
            state.color(i)
            name, deltas = "R2", (-1, 0, 1, 0)
        elif sizes[1] < n1 and (pair := state.r3()) is not None:
            state.color(pair[0])
            state.color(pair[1])
            name, deltas = "R3", (-3, 2, 1, 0)
        else:
            return False
        change = (sizes[0] - v0, sizes[1] - v1, sizes[2] - v2, sizes[3] - v3)
        assert change == deltas, f"{name}: sizes changed by {change}, expected {deltas}"
        counts[name] += 1
    return True


def stage3_fill_v1(state: ColoringState) -> None:
    """Raise |V1| to n1 two at a time by coloring the lowest V0-V0 edge.

    One forward pass finds each in turn: coloring only raises deg1, so an
    edge passed over is never V0-V0 again.
    """
    sizes, n1, deg1 = state.sizes, state.n1, state.deg1
    if sizes[1] > n1:
        raise InternalStuck("stage 3 entered with |V1| > n1")
    assert (n1 - sizes[1]) % 2 == 0, "V1 deficit must be even"
    # Each coloring moves two 0-vertices to V1 and leaves V2 and V3 alone.
    expected = [sizes[0] + sizes[1] - n1, n1, sizes[2], sizes[3]]
    if sizes[1] < n1:
        for i, (u, v) in enumerate(zip(state.tails, state.heads)):
            if deg1[u] == 0 and deg1[v] == 0:
                state.color_edge(i)
                if sizes[1] == n1:
                    break
        else:
            raise InternalStuck("stage 3: no V0-V0 edge (should be impossible)")
    assert sizes == expected, f"stage 3: sizes {sizes}, expected {expected}"


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
        edges = [(x, y) for x, y in itertools.combinations(block, 2) if g.has_edge(x, y)]
        # Pairs of the ascending block come as (low, high); from_edges orders the rest itself.
        edges.remove((v, max(a, b)) if v < max(a, b) else (max(a, b), v))
        edges += [(v, u), (u, u1)] + [(w, x) for x in g.adjacency[w][:2]]
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


def decompose_connected_traced(g: Graph, s: Statement) -> tuple[EdgeSubset, ConnectedTrace]:
    """Edge subset meant to realize target_profile(n, s) on a g the caller
    has checked is cubic and connected, and its trace; general.decompose
    counts the profile of what it returns."""
    target = target_profile(g.n, s)
    trace = ConnectedTrace()
    if g.n <= 6:
        return _base_case(g, s, trace), trace
    cycle = seed_cycle(g)
    state = ColoringState(g, target, cycle)
    trace.rule_counts = state.rule_counts  # counted in place from here on
    trace.stage1 = stage1_grow_v3(state)
    if not stage2_fill_v2(state):
        return fallback_search(g, s, target, state, trace), trace
    stage3_fill_v1(state)
    trace.branch.append(f"staged:{s.value}:cycle={len(cycle)}")
    return EdgeSubset.from_member(state.colored), trace


def _base_case(g: Graph, s: Statement, trace: ConnectedTrace) -> EdgeSubset:
    """t = 1 orders get the proof's explicit constructions; REFUSALS' rows have none."""
    cls = classify_small(g)
    kind = refusal(s, [cls])[0]
    if kind is not None:
        raise ExceptionGraph(kind)
    if cls is SmallClass.K4:
        trace.branch.append("base:K4:single-edge")
        return EdgeSubset(g.m, 1)  # lowest edge: H = 2K1 u K2
    if s is Statement.IV:
        # H = 3K1 u P3: the two lowest edges at vertex 0, which are edges 0 and 1.
        trace.branch.append(f"base:{cls.value}:P3")
        return EdgeSubset(g.m, 0b11)
    # prism, statement III: the triangle at vertex 0 plus its third edge there.
    assert cls is SmallClass.PRISM and s is Statement.III
    trace.branch.append("base:PRISM:triangle+pendant")
    return EdgeSubset.from_edges(g, [(0, w) for w in g.adjacency[0]] + [triangle_at_zero(g)])


def fallback_search(g: Graph, s: Statement, target: DegreeProfile, state: ColoringState,
                    trace: ConnectedTrace) -> EdgeSubset:
    """The stage-2 backstop: the oracle's first witness in rank order, or
    InternalStuck over its edge cap or where it finds none."""
    e_v1 = sum(1 for u, v in zip(g.tails, g.heads) if state.deg1[u] == state.deg1[v] == 1)
    if e_v1 > 2:
        # The blocked-state analysis promises e(V1) <= 2; seeing more means
        # an unmodeled configuration worth recording, not guessing about.
        log.warning("stage-2 block with e(V1)=%d on n=%d edges=%s", e_v1, g.n,
                    tuple(zip(g.tails, g.heads)))
    try:
        subset = find_witness(g, target)
    except CapExceeded:
        raise InternalStuck(f"stage 2 blocked on n={g.n} with no fallback available") from None
    if subset is None:
        raise InternalStuck(f"stage 2 blocked and exhaustive search finds no {target.counts}")
    trace.fallback_used = True
    trace.branch.append("staged:blocked->fallback")
    log.warning("fallback used on n=%d statement %s", g.n, s.value)
    return subset
