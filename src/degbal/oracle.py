"""Ground truth over all 2^m spanning subgraphs, exact and in pure Python.

Subsets are ranked by their bitmask over the canonical edge indexing, and
each profile's witness is the first subset reaching it, so reports are
deterministic.  The full report is a dynamic program over the edges in an
order that keeps few vertices open; a single-profile query is a pruned
depth-first search in rank order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceeded
from .graphs import DegreeProfile, EdgeSubset, Graph, inferred_degree

DEFAULT_EDGE_CAP = 26
# States in one layer of the report's DP.  The largest layer within the edge
# cap over every 4-regular circulant on 13 vertices (m = 26) is 75,386, C13(2,3).
STATE_CAP = 1 << 20


@dataclass(frozen=True)
class AchievabilityReport:
    """Exact achievability data for one regular graph."""

    graph_order: int
    degree: int
    edge_count: int
    achievable: tuple[DegreeProfile, ...]       # sorted by counts
    min_max_deviation: Fraction
    witness: dict                               # DegreeProfile -> EdgeSubset


def _check_cap(g: Graph, edge_cap: int | None) -> None:
    cap = DEFAULT_EDGE_CAP if edge_cap is None else edge_cap
    if g.m > cap:
        raise CapExceeded(f"{g.m} edges exceeds enumeration cap {cap}")


def _frontier_order(g: Graph) -> list[int]:
    """Edges by the positions of their later, then earlier endpoint in a
    vertex order grown from vertex 0: next, the unplaced vertex with the most
    placed neighbours (lowest label on ties).  Few vertices stay open at once.
    Without edges there is nothing to order, and no vertex is placed.
    """
    placed, pos = [0] * g.n, [-1] * g.n  # placed neighbours; position
    for k in range(g.n if g.m else 0):
        v = min((u for u in range(g.n) if pos[u] < 0), key=lambda u: (-placed[u], u))
        pos[v] = k
        for w in g.adjacency[v]:
            placed[w] += 1
    return sorted(range(g.m), key=lambda i: sorted((pos[g.tails[i]], pos[g.heads[i]]))[::-1])


def achievable_profiles(g: Graph, edge_cap: int | None = None) -> AchievabilityReport:
    """Every achievable profile of g, each with its first witness in rank order.

    A dynamic program over the edges in _frontier_order.  A state is the
    degree of each open vertex (b bits each) and the count of final vertices
    of each degree k (c bits at bit k*c); a vertex is final once its last
    edge in that order is decided.  A layer maps open-degree bits to a group
    (count offset, mask offset, {t: mask}, owned) of the states t + count
    offset, each with its smallest mask, mask + mask offset.  A step moves a
    group in O(1): both branches share its dict and add their counts shift
    (an endpoint's last edge zeroes its field in the key) to the count
    offset, and the present one adds bit i, in no prefix mask, to the mask
    offset.  Where two groups land on one key, the smaller is translated
    into the larger's frame and merged by mask, the larger's dict copied
    first unless this layer owns it.  Prefixes over the same decided edges
    reaching one state have the same completions, which set bits disjoint
    from the prefix, so the smaller prefix gives the smaller full mask, and
    each final state's is its profile's first subset in rank order.  A layer
    of more than STATE_CAP states (one flat dict's) raises CapExceeded.
    """
    _check_cap(g, edge_cap)
    d = inferred_degree(g)
    n = g.n
    b = d.bit_length()
    c = n.bit_length()
    low = (1 << b) - 1
    order = _frontier_order(g)
    last = {v: k for k, i in enumerate(order) for v in (g.tails[i], g.heads[i])}  # final at step k
    above = 1 << g.m  # larger than every mask in any frame
    # A vertex without edges (every vertex when m = 0) is final at degree 0.
    groups = {0: (0, 0, {n - len(last): 0}, False)}
    for k, i in enumerate(order):
        u, v = g.tails[i], g.heads[i]
        ou, ov = u * b, v * b
        step, bit = (1 << ou) + (1 << ov), 1 << i
        ends = [f for f, w in ((ou, u), (ov, v)) if last[w] == k]
        layer: dict[int, tuple[int, int, dict[int, int], bool]] = {}
        for o, (co, mo, counts, _) in groups.items():
            p, shift_o, shift_p = o + step, co, co
            for f in ends:  # the endpoint's degree moves into the counts
                x, y = o >> f & low, p >> f & low
                o, p = o - (x << f), p - (y << f)
                shift_o, shift_p = shift_o + (1 << x * c), shift_p + (1 << y * c)
            absent, present = (shift_o, mo, counts, False), (shift_p, mo + bit, counts, False)
            for key, new in ((o, absent), (p, present)):
                old = layer.setdefault(key, new)
                if old is not new:  # merge the smaller group into the larger's frame
                    if len(old[2]) < len(new[2]):
                        old, new = new, old
                    (oc, om, into, owned), (nc, nm, src, _) = old, new
                    into = into if owned else into.copy()  # other groups may share it
                    dc, dm, get = nc - oc, nm - om, into.get
                    for t, mask in src.items():
                        t, mask = t + dc, mask + dm
                        if mask < get(t, above):
                            into[t] = mask
                    layer[key] = (oc, om, into, True)
        total = sum(len(group[2]) for group in layer.values())
        if total > STATE_CAP:
            raise CapExceeded(f"{total} states exceed the oracle's state cap {STATE_CAP}")
        groups = layer

    # Every vertex is final, in one group; n_d's field is highest: int order is counts order.
    (co, mo, counts, _), top = groups[0], (1 << c) - 1
    fields = [k * c for k in range(d, -1, -1)]
    witness = {
        DegreeProfile(tuple(t + co >> f & top for f in fields)): EdgeSubset(g.m, counts[t] + mo)
        for t in sorted(counts)
    }
    # max_deviation() is max_k |(d + 1) * n_k - n| / (d + 1): divide once.
    spread = min(max(abs((d + 1) * x - n) for x in p.counts) for p in witness)
    return AchievabilityReport(
        graph_order=n, degree=d, edge_count=g.m, achievable=tuple(witness),
        min_max_deviation=Fraction(spread, d + 1), witness=witness,
    )


def find_witness(g: Graph, p: DegreeProfile, edge_cap: int | None = None) -> EdgeSubset | None:
    """First subset (rank order) realizing p, or None.

    Depth-first over edges m-1 down to 0, absent before present, which
    visits masks in increasing order.  A vertex is final once its lowest
    edge is decided; a branch is cut when a final degree count exceeds p,
    or when its edge count can no longer be |E(H)| = sum_k k*n_k / 2.
    """
    _check_cap(g, edge_cap)
    d = inferred_degree(g)
    if len(p.counts) != d + 1 or p.order != g.n:
        return None
    if g.m == 0:  # d = 0, so p is (n,): the empty subset's profile
        return EdgeSubset(0)
    want = p.counts[::-1]  # want[k] = vertices of subgraph degree k
    degree_sum = sum(k * c for k, c in enumerate(want))
    if degree_sum % 2:
        return None
    size = degree_sum // 2
    m = g.m
    tails, heads = g.tails, g.heads
    final_at: list[list[int]] = [[] for _ in range(m)]
    for v in range(g.n):
        final_at[g.edge_index(v, g.adjacency[v][0])].append(v)

    deg = [0] * g.n
    final = [0] * (d + 1)
    chosen = bits = 0
    choice = [-1] * m  # option applied at edge i: -1 none, 0 absent, 1 present
    i = m - 1
    while i < m:
        if i < 0:
            # Every vertex is final within its count, and the counts sum to n.
            return EdgeSubset(m, bits)
        c = choice[i]
        if c >= 0:  # back at i: undo its option before trying the next
            for v in final_at[i]:
                final[deg[v]] -= 1
            if c:
                u, v = tails[i], heads[i]
                deg[u] -= 1
                deg[v] -= 1
                chosen -= 1
                bits ^= 1 << i
        if c == 1:
            choice[i] = -1
            i += 1
            continue
        c = choice[i] = c + 1
        if c:
            u, v = tails[i], heads[i]
            deg[u] += 1
            deg[v] += 1
            chosen += 1
            bits |= 1 << i
        ok = chosen <= size <= chosen + i  # edges 0..i-1 are still open
        for v in final_at[i]:
            k = deg[v]
            final[k] += 1
            ok = ok and final[k] <= want[k]
        if ok:
            i -= 1
    return None


def min_max_deviation(g: Graph, edge_cap: int | None = None) -> Fraction:
    """min over spanning subgraphs of max_k |m(H,k) - n/(d+1)|, exact."""
    return achievable_profiles(g, edge_cap).min_max_deviation
