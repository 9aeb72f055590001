"""Ground truth by exhaustion over all 2^m spanning subgraphs.

Enumeration is in subset rank order over the canonical edge indexing and
the witness for each profile is the first subset reaching it, so reports
are deterministic and independent of chunking.  A single-profile query
finds that same first subset by a pruned depth-first search instead of
enumerating every subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapExceeded
from .graphs import DegreeProfile, EdgeSubset, Graph, inferred_degree, profile_of

DEFAULT_EDGE_CAP = 26
_CHUNK = 1 << 20


@dataclass(frozen=True)
class AchievabilityReport:
    """Exact achievability data for one regular graph."""

    graph_order: int
    degree: int
    edge_count: int
    achievable: tuple[DegreeProfile, ...]       # sorted by counts
    min_max_deviation: Fraction
    witness: dict                               # DegreeProfile -> EdgeSubset


def _check_cap(g: Graph, edge_cap: int | None) -> int:
    cap = DEFAULT_EDGE_CAP if edge_cap is None else edge_cap
    if g.m > cap:
        raise CapExceeded(f"{g.m} edges exceeds enumeration cap {cap}")
    return cap


def _incidence_masks(g: Graph) -> list[int]:
    inc = [0] * g.n
    for i, (u, v) in enumerate(g.edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    return inc


def _profile_codes(g: Graph, d: int, masks: np.ndarray) -> np.ndarray:
    """Encode each mask's degree profile as one integer, base n+1."""
    n = g.n
    base = n + 1
    inc = _incidence_masks(g)
    counts = np.zeros((d + 1, len(masks)), dtype=np.int64)
    for v in range(n):
        deg = np.bitwise_count(masks & np.uint64(inc[v]))
        for k in range(d + 1):
            counts[k] += deg == k
    codes = np.zeros(len(masks), dtype=np.int64)
    for k in range(d, -1, -1):  # (n_d, ..., n_0) ordering
        codes = codes * base + counts[k]
    return codes


def _decode(code: int, d: int, n: int) -> DegreeProfile:
    base = n + 1
    counts = []
    for _ in range(d + 1):
        counts.append(int(code % base))
        code //= base
    return DegreeProfile(tuple(reversed(counts)))  # back to (n_d, ..., n_0)


def achievable_profiles(g: Graph, edge_cap: int | None = None) -> AchievabilityReport:
    """Iterate all 2^m edge subsets; record every profile and its first witness."""
    _check_cap(g, edge_cap)
    d = inferred_degree(g)
    n = g.n
    if g.m == 0:
        profile = profile_of(g, EdgeSubset.empty(0))
        return AchievabilityReport(
            graph_order=n,
            degree=d,
            edge_count=0,
            achievable=(profile,),
            min_max_deviation=profile.max_deviation() if n else Fraction(0),
            witness={profile: EdgeSubset.empty(0)},
        )

    first: dict[int, int] = {}
    total = 1 << g.m
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        masks = np.arange(lo, hi, dtype=np.uint64)
        codes = _profile_codes(g, d, masks)
        uniq, idx = np.unique(codes, return_index=True)
        for code, i in zip(uniq.tolist(), idx.tolist()):
            if code not in first:
                first[code] = lo + i

    profiles = {code: _decode(code, d, n) for code in first}
    ordered = sorted(profiles.values(), key=lambda p: p.counts)
    witness = {profiles[code]: EdgeSubset(g.m, mask) for code, mask in first.items()}
    dev = min(p.max_deviation() for p in ordered)
    return AchievabilityReport(
        graph_order=n,
        degree=d,
        edge_count=g.m,
        achievable=tuple(ordered),
        min_max_deviation=dev,
        witness=witness,
    )


def is_achievable(g: Graph, p: DegreeProfile, edge_cap: int | None = None) -> bool:
    """True iff some spanning subgraph of g has profile p (early exit)."""
    witness = find_witness(g, p, edge_cap)
    return witness is not None


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
    if g.m == 0:
        return EdgeSubset.empty(0) if profile_of(g, EdgeSubset.empty(0)) == p else None
    want = p.counts[::-1]  # want[k] = vertices of subgraph degree k
    degree_sum = sum(k * c for k, c in enumerate(want))
    if degree_sum % 2:
        return None
    size = degree_sum // 2
    m = g.m
    edges = g.edges
    final_at: list[list[int]] = [[] for _ in range(m)]
    for v in range(g.n):
        final_at[min(g.edge_index(v, w) for w in g.adjacency[v])].append(v)

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
                u, v = edges[i]
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
            u, v = edges[i]
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
