#!/usr/bin/env python3
"""Regenerate the graph6 fixture corpus under tests/fixtures/.

Every connected cubic graph with n <= 14 is grown from K4 by three
operations, which generate all of them (cf. Batagelj, *Inductive classes of
cubic graphs*, 1984; Brinkmann, Goedgebeur and McKay, *Generation of cubic
graphs*, DMTCS 13(2), 2011):

- edge insertion: subdivide two distinct edges and join the two new vertices;
- diamond insertion: replace an edge by a path through a diamond (K4 less
  one edge), whose two degree-2 vertices take the edge's ends;
- bridge join: subdivide an edge in each of two graphs and join the two new
  vertices by a bridge.

Each order keeps one graph per isomorphism class, deduplicated by an
invariant and then by ``isomorphic``, and the run fails unless the counts
equal OEIS A002851 (1, 2, 5, 19, 85, 509 for n = 4 to 14).  The n = 12 and
14 classes go to tests/fixtures/catalog/, sorted, so regeneration is
byte-stable.  The committed n <= 10 files are checked class by class
against the generator, not rewritten: their lines are pinned by digests.
"""

from __future__ import annotations

import sys
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from degbal.formats import encode_graph6, parse_graph6
from degbal.gen import disjoint_union, named, random_cubic
from degbal.graphs import Graph, build_graph, connected_components

KNOWN_CONNECTED_CUBIC = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509}
FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
CATALOG = FIXTURES / "catalog"


def _invariant(g: Graph) -> tuple:
    """Sorted per-vertex breadth-first profiles: at each distance from the
    vertex, how many vertices lie there and how many edges join two of them."""
    profiles = []
    for root in range(g.n):
        dist = {root: 0}
        queue = [root]
        for u in queue:
            for w in g.adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        layers = [0] * (dist[queue[-1]] + 1)
        inner = [0] * len(layers)
        for v, d in dist.items():
            layers[d] += 1
        for u, v in zip(g.tails, g.heads):
            if dist[u] == dist[v]:
                inner[dist[u]] += 1
        profiles.append((tuple(layers), tuple(inner)))
    return g.n, tuple(sorted(profiles))


def isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism by backtracking over a BFS vertex order."""
    if g1.n != g2.n or g1.m != g2.m:
        return False

    order: list[int] = []
    seen = set()
    for start in range(g1.n):
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        while queue:
            u = queue.pop(0)
            order.append(u)
            for w in g1.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)

    image = [-1] * g1.n
    used = [False] * g2.n

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        v = order[k]
        mapped_nbrs = [(w, image[w]) for w in g1.adjacency[v] if image[w] >= 0]
        for cand in range(g2.n):
            if used[cand]:
                continue
            if len(g2.adjacency[cand]) != len(g1.adjacency[v]):
                continue
            if any(not g2.has_edge(cand, img) for _, img in mapped_nbrs):
                continue
            # unmapped g1-neighbors need enough unused g2-neighbors later;
            # adjacency count check above plus exactness below suffices here
            image[v] = cand
            used[cand] = True
            if extend(k + 1):
                return True
            image[v] = -1
            used[cand] = False
        return False

    # adjacency must be preserved both ways; for equal edge counts a
    # homomorphic bijection is automatically an isomorphism
    return extend(0)


def _edge_insertions(g: Graph):
    x, y = g.n, g.n + 1
    edges = g.edges
    for (a, b), (c, d) in combinations(edges, 2):
        rest = [e for e in edges if e != (a, b) and e != (c, d)]
        yield build_graph(g.n + 2, rest + [(a, x), (x, b), (c, y), (y, d), (x, y)])


def _diamond_insertions(g: Graph):
    p, q, r, s = range(g.n, g.n + 4)
    diamond = [(p, q), (p, r), (q, r), (q, s), (r, s)]
    for a, b in g.edges:
        rest = [e for e in g.edges if e != (a, b)]
        yield build_graph(g.n + 4, rest + diamond + [(a, p), (s, b)])


def _bridge_joins(g: Graph, h: Graph):
    x, y, k = g.n + h.n, g.n + h.n + 1, g.n
    for a, b in g.edges:
        for c, d in h.edges:
            rest = [e for e in g.edges if e != (a, b)]
            rest += [(u + k, v + k) for u, v in h.edges if (u, v) != (c, d)]
            bridge = [(a, x), (x, b), (c + k, y), (y, d + k), (x, y)]
            yield build_graph(g.n + h.n + 2, rest + bridge)


def connected_cubic_catalog(top: int) -> dict[int, list[Graph]]:
    """One graph per isomorphism class of connected cubic graphs, n = 4..top.

    Classes keep their first representative in generation order, so the
    output is deterministic; the run fails unless each count is A002851's.
    """
    catalog: dict[int, list[Graph]] = {4: [named("K4")]}
    for n in range(6, top + 1, 2):
        found: list[Graph] = []
        by_invariant: dict[tuple, list[Graph]] = {}
        candidates = [h for g in catalog[n - 2] for h in _edge_insertions(g)]
        if n - 4 in catalog:
            candidates += [h for g in catalog[n - 4] for h in _diamond_insertions(g)]
        for left in range(4, n - 5, 2):
            for g in catalog[left]:
                for h in catalog[n - 2 - left]:
                    candidates += _bridge_joins(g, h)
        for h in candidates:
            bucket = by_invariant.setdefault(_invariant(h), [])
            if not any(isomorphic(h, other) for other in bucket):
                bucket.append(h)
                found.append(h)
        if len(found) != KNOWN_CONNECTED_CUBIC[n]:
            raise RuntimeError(f"catalog n={n}: {len(found)} classes, A002851 has "
                               f"{KNOWN_CONNECTED_CUBIC[n]}")
        catalog[n] = found
    return catalog


def check_committed(path: Path, classes: list[Graph]) -> None:
    """Fail unless the file holds exactly one graph of each class."""
    graphs = [parse_graph6(line) for line in path.read_text().splitlines() if line.strip()]
    matched = [[i for i, c in enumerate(classes) if isomorphic(g, c)] for g in graphs]
    if sorted(i for m in matched for i in m) != list(range(len(classes))) or any(
            len(m) != 1 for m in matched):
        raise RuntimeError(f"{path.name} does not hold one graph of each class")
    print(f"checked {path.name}: {len(graphs)} graphs, one per class")


def write_lines(path: Path, graphs: list[Graph], sort: bool = True) -> None:
    lines = [encode_graph6(g) for g in graphs]
    if sort:
        lines.sort()
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {path.name}: {len(lines)} graphs")


def main() -> None:
    catalog = connected_cubic_catalog(14)
    for n in (4, 6, 8, 10):
        check_committed(FIXTURES / f"connected_cubic_{n:02d}.g6", catalog[n])
    CATALOG.mkdir(parents=True, exist_ok=True)
    for n in (12, 14):
        write_lines(CATALOG / f"connected_cubic_{n:02d}.g6", catalog[n])

    k4, k33, prism, cube = named("K4"), named("K33"), named("PRISM"), named("CUBE")
    unions = [
        disjoint_union([k4, k4]),
        disjoint_union([k4, k4, k4]),
        disjoint_union([k33, k33]),
        disjoint_union([k4, k33]),
        disjoint_union([k4, prism]),
        disjoint_union([k33, prism]),
        disjoint_union([prism, prism]),
        disjoint_union([k4, cube]),
    ]
    write_lines(FIXTURES / "unions_n_le_12.g6", unions, sort=False)

    catalog = [named(name) for name in (
        "K4", "K33", "PRISM", "CUBE", "PETERSEN", "HEAWOOD",
        "PAPPUS", "DESARGUES", "MOEBIUS_KANTOR",
    )]
    write_lines(FIXTURES / "named_catalog.g6", catalog, sort=False)

    twelves = []
    seed = 1
    while len(twelves) < 10:
        g = random_cubic(12, seed)
        seed += 1
        if len(connected_components(g)) == 1:
            twelves.append(g)
    write_lines(FIXTURES / "random_cubic_12.g6", twelves, sort=False)


if __name__ == "__main__":
    main()
