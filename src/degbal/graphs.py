"""Core graph representation and the operations the constructions build on.

Vertices are always 0..n-1.  Edges are unordered pairs (u, v) with u < v,
kept sorted lexicographically; every edge subset is a bitmask over that
canonical edge order, so all downstream colorings are reproducible.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress, count
from operator import itemgetter

from .errors import DegbalError, NotRegular, SizeMismatch


class SmallClass(Enum):
    """Connected cubic graphs on at most 6 vertices, plus everything else."""

    K4 = "K4"
    K33 = "K33"
    PRISM = "PRISM"
    OTHER = "OTHER"


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph whose edges (tails[i], heads[i]) come in canonical order
    (u < v, sorted); adjacency rows are read off in that order, so each row is ascending.

    The rows and the degree set are built with the graph.  connected_components'
    split is a cached property, kept on the object the first time it is read
    (None for a connected graph, which is its own component).  Pickles carry
    the edges alone.
    """

    n: int
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    adjacency: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    _degrees: frozenset = field(init=False, compare=False, repr=False)
    # Through a lambda: the search is defined below, and looked up at each first read.
    _parts = cached_property(lambda g: _find_components(g))

    def __post_init__(self):
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in zip(self.tails, self.heads):
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "adjacency", tuple(map(tuple, adj)))
        object.__setattr__(self, "_degrees", frozenset(map(len, adj)))

    def __reduce__(self):
        # The rows, degrees and kept split are derived from the edges, so rebuild them.
        return type(self), (self.n, self.tails, self.heads)

    edges = property(lambda g: tuple(zip(g.tails, g.heads)), doc="(u, v) pairs, built per access")

    @property
    def m(self) -> int:
        return len(self.tails)

    def edge_index(self, u: int, v: int) -> int:
        """Canonical index of edge {u, v}, by bisection; KeyError if absent."""
        u, v = (u, v) if u < v else (v, u)
        lo = bisect_left(self.tails, u)
        i = bisect_left(self.heads, v, lo, bisect_right(self.tails, u, lo))
        if i == len(self.heads) or self.tails[i] != u or self.heads[i] != v:
            raise KeyError((u, v))
        return i

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self.adjacency[u]


@dataclass(frozen=True)
class EdgeSubset:
    """Subset of a host graph's edges: bit i set <=> edge i belongs to H."""

    m: int
    bits: int = 0

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.m:
            raise SizeMismatch(f"bitset does not fit {self.m} edges")

    @classmethod
    def from_member(cls, member: bytearray) -> "EdgeSubset":
        """Subset of len(member) edges holding edge i iff member[i] is 1; flags are 0 or 1."""
        return cls(len(member), int(b"0" + member[::-1].translate(_BIT_DIGITS), 2))

    @classmethod
    def from_edges(cls, g: Graph, pairs) -> "EdgeSubset":
        member = bytearray(g.m)
        for u, v in pairs:
            member[g.edge_index(u, v)] = 1
        return cls.from_member(member)

    def __contains__(self, index: int) -> bool:
        return index >= 0 and bool(self.bits >> index & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> list[int]:
        """Member edge indices, ascending, from one pass over the bits."""
        return list(compress(count(), _flags(self.bits)))

    def edges(self, g: Graph) -> list[tuple[int, int]]:
        """Materialize the member edges of this subset within its host."""
        _require_host(g, self)
        return list(compress(zip(g.tails, g.heads), _flags(self.bits)))


def _require_host(g: Graph, s: EdgeSubset) -> None:
    """SizeMismatch unless s is over as many edges as g has."""
    if s.m != g.m:
        raise SizeMismatch(f"subset over {s.m} edges, host has {g.m}")


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _flags(bits: int) -> bytes:
    """Byte i is 1 iff bit i of bits is set, up to the highest set bit."""
    return bin(bits)[:1:-1].encode().translate(_BIT_FLAGS)


@dataclass(frozen=True)
class DegreeProfile:
    """Per-degree vertex counts (n_d, ..., n_0), highest degree first."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError(f"negative count in profile {self.counts}")

    @property
    def degree(self) -> int:
        return len(self.counts) - 1

    @property
    def order(self) -> int:
        return sum(self.counts)

    def count(self, k: int) -> int:
        """Number of vertices of degree k; 0 for k outside 0..degree."""
        return self.counts[self.degree - k] if 0 <= k <= self.degree else 0

    def max_deviation(self) -> Fraction:
        """max_k |count(k) - n/(d+1)| as an exact rational."""
        parts, n = self.degree + 1, self.order
        return Fraction(max(abs(parts * c - n) for c in self.counts), parts)


def build_graph(n: int, raw_edges) -> Graph:
    """Validate and canonicalize an edge list into a Graph.

    Duplicates are an error rather than silently merged.
    """
    if n < 0:
        raise DegbalError(f"negative vertex count {n}")
    seen = {}  # in input order, which is often sorted already
    for u, v in raw_edges:
        if u == v:
            raise DegbalError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise DegbalError(f"edge ({u},{v}) outside [0,{n})")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise DegbalError(f"edge {e} listed twice")
        seen[e] = None
    edges = sorted(seen)
    del seen  # each transient goes before the next is built, and all before Graph's rows
    tails, heads = tuple(map(itemgetter(0), edges)), tuple(map(itemgetter(1), edges))
    del edges
    return Graph(n, tails, heads)


def require_regular(g: Graph, d: int) -> None:
    """NotRegular unless every vertex of g has degree exactly d."""
    if not g._degrees <= {d}:
        raise NotRegular(f"graph is not {d}-regular")


def inferred_degree(g: Graph) -> int:
    """Common degree of a regular graph (0 if empty); NotRegular otherwise."""
    if len(g._degrees) > 1:
        raise NotRegular("graph is not regular")
    return min(g._degrees, default=0)


@dataclass(frozen=True)
class Component:
    """One connected component: host vertices, induced graph, host edges."""

    vertices: Sequence[int]            # host labels, ascending
    graph: Graph                       # relabeled 0..k-1 in that order
    edges: Sequence[int]               # local edge i -> host edge index, ascending


def incident_edges(g: Graph) -> list[list[int]]:
    """Edge indices at each vertex, aligned with adjacency[v]: both follow the edge order."""
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, u, v in zip(count(), g.tails, g.heads):
        incident[u].append(i)
        incident[v].append(i)
    return incident


def connected_components(g: Graph) -> list[Component]:
    """Maximal connected vertex sets, ordered by smallest original label.

    Components of equal shape may share one Graph.  The split is found once
    per Graph object and kept on it; each call returns a fresh list.
    """
    if g._parts is None:
        # Connected: the host is its own component.  The kept split holds no
        # Component, which would refer back to g.
        return [Component(range(g.n), g, range(g.m))]
    return list(g._parts)


def _find_components(g: Graph) -> tuple[Component, ...] | None:
    """The components of g, or None if g is connected and not empty."""
    label = [-1] * g.n
    members: list[list[int]] = []
    for start in range(g.n):
        if label[start] >= 0:
            continue
        c = label[start] = len(members)
        queue = [start]
        for u in queue:
            for w in g.adjacency[u]:
                if label[w] < 0:
                    label[w] = c
                    queue.append(w)
        if len(queue) == g.n:
            return None
        members.append(queue)
    edge_ids: list[list[int]] = [[] for _ in members]
    for i, u in enumerate(g.tails):
        edge_ids[label[u]].append(i)
    shapes: dict = {}
    return tuple(induced_on(g, verts, ids, shapes, label) for verts, ids in zip(members, edge_ids))


def induced_on(g: Graph, vertices, edge_ids: list[int], shapes: dict, label: list) -> Component:
    """The component on the given host vertices with these host edges, ascending.

    Relabeling in ascending host order keeps the host's edge order, so local
    edge i is host edge edge_ids[i] and the edges come out sorted.
    ``shapes`` maps each (order, tails, heads) shape built so far to its one Graph;
    the host-sized ``label`` list is overwritten with each vertex's local index.
    """
    verts = tuple(sorted(vertices))
    for i, v in enumerate(verts):
        label[v] = i
    shape = len(verts), *(tuple(map(label.__getitem__, map(ends.__getitem__, edge_ids)))
                          for ends in (g.tails, g.heads))
    if shape not in shapes:
        shapes[shape] = Graph(*shape)
    return Component(verts, shapes[shape], tuple(edge_ids))


def shortest_cycle(g: Graph) -> list[int] | None:
    """A shortest cycle of g as a vertex sequence, or None for forests.

    Searched afresh at each call; no decomposition calls it.  Deterministic:
    the cycle comes from the breadth-first search rooted at the lowest
    vertex label that attains the girth, scanning neighbors in ascending
    order.  Each search stops once its layers cannot beat the
    best so far; all share one dist/parent pair, reset where they reached.
    Root r's search skips vertices below r and still finds the cycle a
    search of all of g finds (Itai and Rodeh's minimum-vertex argument).
    Let L be the girth.  A tree walk root ~> u, uw, w ~> root of length L
    is a cycle through the root (paths that split lower close a shorter
    one), and a search from any vertex of a girth cycle meets at length L,
    so the lowest root r attaining L is the lowest vertex on a girth cycle:
    no earlier root reaches L, and each girth cycle through r lies on
    vertices >= r.  Below depth L/2 shortest paths from r are unique, else
    they close a shorter cycle, so both searches give each vertex there
    whose path avoids lower vertices the same depth, parent and relative
    queue order.  The length-L meeting pairs are the edges closing girth
    cycles through r in both, so both keep the same first pair; for even
    L its far end's parent is its first neighbour one layer up in that
    order, on the cycle.
    """
    adjacency = g.adjacency
    dist = [-1] * g.n
    parent = [-1] * g.n
    best = g.n + 1
    cycle = None
    for root in range(g.n):
        best, meet, queue = _closing_search(adjacency, root, dist, parent, best)
        if meet is not None:
            # Paths u->root and w->root meet only at the root, else a
            # strictly shorter cycle would exist.
            cycle = _cycle_through(parent, *meet)
        for v in queue:
            dist[v] = -1
        # Later roots skip this one: at distance n it is never queued and
        # closes no walk shorter than best <= n + 1.
        dist[root] = g.n
        if best == 3:
            break
    if cycle is None:
        return None
    assert len(cycle) == best
    assert _is_chordless_cycle(g, cycle), "shortest cycle must be chordless"
    return cycle


def cycle_from(g: Graph, root: int) -> list[int] | None:
    """The shortest cycle one breadth-first search from root closes, or None.

    The search is shortest_cycle's pass at its first root, so where vertex 0
    lies on a girth cycle, cycle_from(g, 0) is shortest_cycle(g).  The
    cycle is listed from where the tree paths of its closing edge join:
    root, unless the two paths share a stem from root.
    """
    dist, parent = [-1] * g.n, [-1] * g.n
    meet = _closing_search(g.adjacency, root, dist, parent, g.n + 1)[1]
    return None if meet is None else _cycle_through(parent, *meet)


def _closing_search(adjacency, root: int, dist: list[int], parent: list[int], best: int):
    """One breadth-first search from root over the vertices with dist -1.

    Returns the shortest closing length below best it found (else best),
    the first (u, w) edge closing it (else None), and the vertices queued.
    """
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
    return best, meet, queue


def _cycle_through(parent: list[int], u: int, w: int) -> list[int]:
    """Edge uw and the tree paths from u and w to where they join, listed from there."""
    left, right = _path_to_root(parent, u), _path_to_root(parent, w)
    while left[-2] == right[-2]:
        left.pop()
        right.pop()
    return left[::-1] + right[:-1]


def _path_to_root(parent: list[int], x: int) -> list[int]:
    path = []
    while x != -1:
        path.append(x)
        x = parent[x]
    return path


def _is_chordless_cycle(g: Graph, cycle: list[int]) -> bool:
    """Distinct vertices, each adjacent to the next and to only two on the cycle."""
    k, on_cycle = len(cycle), set(cycle)
    return len(on_cycle) == k and all(
        g.has_edge(u, cycle[(i + 1) % k]) and sum(w in on_cycle for w in g.adjacency[u]) == 2
        for i, u in enumerate(cycle))


def complement_within(g: Graph, s: EdgeSubset) -> EdgeSubset:
    """Bitwise complement of s over g's edge set (an involution)."""
    _require_host(g, s)
    return EdgeSubset(g.m, s.bits ^ ((1 << g.m) - 1))


def profile_of(g: Graph, s: EdgeSubset) -> DegreeProfile:
    """Degree profile (n_d, ..., n_0) of the spanning subgraph s within g."""
    d = inferred_degree(g)
    _require_host(g, s)
    deg = [0] * g.n
    for u, v in compress(zip(g.tails, g.heads), _flags(s.bits)):
        deg[u] += 1
        deg[v] += 1
    return DegreeProfile(tuple(map(deg.count, range(d, -1, -1))))


def classify_small(g: Graph) -> SmallClass:
    """Recognize K4 / K3,3 / 3-prism in a cubic g the caller knows is connected.

    Structural fingerprints suffice: the connected cubic graphs on at most
    6 vertices are exactly K4, K3,3, and the prism, and K3,3 is the
    triangle-free one on 6 vertices.
    """
    if g.n == 4:
        return SmallClass.K4
    if g.n == 6:
        return SmallClass.PRISM if triangle_at_zero(g) else SmallClass.K33
    return SmallClass.OTHER


def triangle_at_zero(g: Graph) -> tuple[int, int] | None:
    """The lowest adjacent pair among vertex 0's neighbours, or None.

    On 6 vertices this tells the prism from K3,3: every prism vertex lies on
    a triangle, and K3,3 has none.
    """
    return next((p for p in combinations(g.adjacency[0], 2) if g.has_edge(*p)), None)
