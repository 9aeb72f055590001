"""Decomposition of arbitrary cubic graphs and the balanced/2-regular drivers.

decompose(g, statement) takes any of the six document statement names and
is the package's one decomposing entry point; it counts each result's
profile once, against the target.  statement_target(g, statement) is the
target it gives on g, read off the same plan, _plan, without decomposing.

A multi-component graph is split once and composed in one pass over its
components in label order.  While more than one component is left, each
component bigger than K4/K3,3 is peeled off in turn, its statement and the
statement of what is left read from a parity table (the paper's case 1);
each (shape, statement) pair is decomposed once per call.  What is left at
the end is one connected component, two K4s, or components that are all K4
or K3,3; the last combine entries of fixed per-component decomposition
tables, pairing same-kind components into "perfectly balanced" (tuple,
reversed tuple) couples (case 2), each (shape, tuple) realized once per
call.  Every component's subset goes onto the host through its edge map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .connected import (
    ExceptionKind,
    Statement,
    decompose_connected_traced,
    refusal,
    target_profile,
)
from .errors import DegbalError, ExceptionGraph, InternalStuck
from .gen import named
from .graphs import (
    Component,
    DegreeProfile,
    EdgeSubset,
    Graph,
    SmallClass,
    classify_small,
    complement_within,
    connected_components,
    incident_edges,
    profile_of,
    require_regular,
)
from .oracle import achievable_profiles

CANONICAL_K4, CANONICAL_K33 = named("K4"), named("K33")

# The decomposition tuples listed for K4 / K3,3; each table adds their reversals.
_K4_BASE = ((0, 0, 0, 4), (0, 0, 2, 2), (0, 0, 4, 0), (0, 1, 2, 1), (0, 2, 2, 0), (0, 3, 0, 1))
_K33_BASE = (
    (0, 0, 0, 6), (0, 0, 2, 4), (0, 0, 4, 2), (0, 0, 6, 0), (0, 1, 2, 3), (0, 1, 4, 1),
    (0, 2, 2, 2), (0, 3, 2, 1), (0, 4, 0, 2), (0, 4, 2, 0), (1, 0, 3, 2), (1, 1, 3, 1),
)


def _table(canon: Graph, base: tuple) -> dict:
    """Listed tuple -> bitmask over canon's edges: a base tuple's first witness
    in rank order, and the complement of its entry for a reversal not listed."""
    witness, full = achievable_profiles(canon).witness, (1 << canon.m) - 1
    table = {counts: witness[DegreeProfile(counts)].bits for counts in base}
    for counts in base:
        table.setdefault(counts[::-1], table[counts] ^ full)
    return table


# Each small class's canonical graph and table.
_TABLES = {
    SmallClass.K4: (CANONICAL_K4, _table(CANONICAL_K4, _K4_BASE)),
    SmallClass.K33: (CANONICAL_K33, _table(CANONICAL_K33, _K33_BASE)),
}


def detect_exception(g: Graph, s: Statement) -> ExceptionKind | None:
    """Provably undecomposable (graph, statement) pairs, by component census."""
    return refusal(s, _split(g)[1])[0]


def _split(g: Graph) -> tuple[list[Component], list[SmallClass]]:
    """The components of a cubic g and their small classes."""
    require_regular(g, 3)
    comps = connected_components(g)
    return comps, [classify_small(c.graph) for c in comps]


def realize_tuple_on(comp: Graph, cls: SmallClass, counts: tuple[int, ...]) -> EdgeSubset:
    """Map a table entry onto a concretely labeled K4 / K3,3 component."""
    canon, table = _TABLES[cls]
    if counts not in table:
        name = "K4" if cls is SmallClass.K4 else "K3,3"
        raise DegbalError(f"{name} table has no entry for {counts}")
    subset = EdgeSubset(canon.m, table[counts])
    if cls is SmallClass.K4:
        return subset  # any K4 labeling is canonical
    # Canonical vertices 0-2 go to vertex 0's side, ascending, and 3-5 to its
    # neighbours, the far side.
    far = comp.adjacency[0]
    relabel = [v for v in range(comp.n) if v not in far] + list(far)
    pairs = [(relabel[u], relabel[v]) for u, v in subset.edges(canon)]
    return EdgeSubset.from_edges(comp, pairs)


# Case-1 dispatch: (|H| mod 4, statement; it fixes n mod 4) ->
#   (statement for G-H, statement for H, complement H's subset, complement whole)
_CASE1 = {
    (0, Statement.I): (Statement.II, Statement.II, True, False),
    (0, Statement.II): (Statement.II, Statement.I, False, False),
    (2, Statement.I): (Statement.IV, Statement.IV, True, False),
    (2, Statement.II): (Statement.IV, Statement.III, True, False),
    (0, Statement.III): (Statement.IV, Statement.II, True, False),
    (0, Statement.IV): (Statement.IV, Statement.I, False, False),
    (2, Statement.III): (Statement.II, Statement.IV, True, True),
    (2, Statement.IV): (Statement.II, Statement.III, False, False),
}


def decompose_traced(g: Graph, s: Statement, split) -> tuple[EdgeSubset, list[str], bool]:
    """Subset of a cubic g with n > 0 meant to realize target_profile(n, s),
    its branch trace and whether the fallback ran, from _plan's work: s, whose
    parity _plan has checked, and g's _split.  decompose counts the subset's profile.

    The trace of a multi-component graph is flat: one label per peeled
    component, then the entries of what was left prefixed "rest:", then
    each peeled component's entries prefixed "H:", in peel order.
    """
    comps, classes = split
    kind = refusal(s, classes)[0]
    if kind is not None:
        raise ExceptionGraph(kind)
    if len(comps) == 1:
        # _compose handles one component too, but routing a connected graph
        # through it cost 7-16% on the bench's connected inputs (noisy 2-core machine).
        sub, trace = decompose_connected_traced(g, s)
        return sub, trace.branch, trace.fallback_used
    return _compose(g, s, comps, classes)


def _lift(member: bytearray, comp: Component, subset: EdgeSubset, complemented: bool) -> None:
    """Mark a component's subset, complemented within it if asked, on the host."""
    if complemented:
        subset = complement_within(comp.graph, subset)
    edges = comp.edges
    for i in subset.indices():
        member[edges[i]] = 1


def _compose(
    g: Graph, s: Statement, comps: list[Component], classes: list[SmallClass]
) -> tuple[EdgeSubset, list[str], bool]:
    """One pass over two or more components, lowest label first.

    Case 1 peels each PRISM/OTHER component while more than one component
    is left; the _CASE1 row for its order mod 4 and the running statement
    gives the peeled component's statement and the statement of the rest.  A
    "complement whole" flag complements the rest and everything peeled
    from it on, so a peeled part is complemented by its own flag XOR the
    running XOR of those flags, and the tail by that running XOR.  Each
    (shape, statement) pair is decomposed, and each case-2 (shape, tuple)
    pair realized, once per call; every component is lifted on its own.
    """
    big = [i for i, cls in enumerate(classes) if cls in (SmallClass.PRISM, SmallClass.OTHER)]
    peels = big[: len(comps) - 1]
    # What is left: every K4 and K3,3, or the last component when none is one.
    tail = [i for i, cls in enumerate(classes)
            if cls in (SmallClass.K4, SmallClass.K33)] or big[-1:]
    tail_is_2k4 = len(tail) == 2 and all(classes[i] is SmallClass.K4 for i in tail)

    labels: list[str] = []
    h_trace: list[str] = []
    member = bytearray(g.m)
    flip = rest_is_2k4 = fallback = False
    stmt = s
    run, realize = cache(decompose_connected_traced), cache(realize_tuple_on)

    for i in peels:
        comp = comps[i]
        # Only the last peel leaves no component but the tail.
        rest_is_2k4 = tail_is_2k4 and i == peels[-1]
        if rest_is_2k4:
            # The rest's statement-I pairs, _PAIR's K4 pair, give (2,2,2,2):
            # target(n, s) - target(n - 8, s) for every s, so H keeps s.
            stmt, h_stmt, compl_h, compl_whole = Statement.I, stmt, False, False
            labels.append(f"case1:rest=2K4-balanced,H={h_stmt.value}")
        else:
            stmt, h_stmt, compl_h, compl_whole = _CASE1[comp.graph.n % 4, stmt]
            labels.append(
                f"case1:rest={stmt.value},H={h_stmt.value}"
                + ("~c" if compl_h else "")
                + ("|whole~c" if compl_whole else "")
            )
        flip ^= compl_whole
        h_sub, trace = run(comp.graph, h_stmt)
        fallback |= trace.fallback_used
        h_trace.extend(f"H:{t}" for t in trace.branch)
        _lift(member, comp, h_sub, compl_h ^ flip)

    if len(tail) == 1:
        comp = comps[tail[0]]
        sub, trace = run(comp.graph, stmt)
        fallback |= trace.fallback_used
        tail_trace = trace.branch
        _lift(member, comp, sub, flip)
    else:
        k4s = [comps[i] for i in tail if classes[i] is SmallClass.K4]
        k33s = [comps[i] for i in tail if classes[i] is SmallClass.K33]
        label, assignments = _case2_assignments(stmt, k4s, k33s)
        tail_trace = [] if rest_is_2k4 else [label]
        for comp, cls, counts in assignments:
            _lift(member, comp, realize(comp.graph, cls, counts), flip)

    trace = labels + [f"rest:{t}" for t in tail_trace] + h_trace if peels else tail_trace
    return EdgeSubset.from_member(member), trace, fallback


# Case-2 dispatch: (#K4 mod 2, #K3,3 mod 2, statement) -> rows of
#   (trace label, special K4 tuples, special K3,3 tuples), tried in order.
# The first row whose specials fit goes on the last components of each
# kind; the rest pair up as (perfectly balanced tuple, its reversal).
_CASE2 = {
    (0, 0, Statement.I): [("case2(a):I:all-pairs", (), ())],
    (0, 0, Statement.II): [
        ("case2(a):II:2xK33", (), ((2, 2, 2, 0), (0, 0, 2, 4))),
        ("case2(a):II:4xK4", ((2, 2, 0, 0), (1, 0, 3, 0), (0, 1, 2, 1), (0, 0, 0, 4)), ()),
    ],
    (1, 1, Statement.III): [("case2(b):III", ((2, 2, 0, 0),), ((0, 1, 2, 3),))],
    (1, 1, Statement.IV): [("case2(b):IV", ((0, 0, 0, 4),), ((1, 2, 3, 0),))],
    (0, 1, Statement.III): [
        ("case2(c):III:3xK33", (), ((0, 0, 2, 4), (2, 3, 0, 1), (2, 2, 2, 0))),
        ("case2(c):III:2xK4+K33", ((0, 0, 0, 4), (1, 2, 1, 0)), ((2, 2, 2, 0),)),
    ],
    (0, 1, Statement.IV): [("case2(c):IV", (), ((0, 1, 2, 3),))],
    (1, 0, Statement.I): [
        ("case2(d):I:K4+2xK33", ((0, 0, 0, 4),), ((2, 2, 2, 0), (2, 2, 2, 0))),
        ("case2(d):I:5xK4",
         ((0, 0, 0, 4), (0, 1, 2, 1), (1, 0, 3, 0), (2, 2, 0, 0), (2, 2, 0, 0)), ()),
    ],
    (1, 0, Statement.II): [("case2(d):II", ((0, 0, 2, 2),), ())],
}

# A perfectly balanced tuple of each kind and its reversal, for one pair.
_PAIR = {SmallClass.K4: ((0, 0, 2, 2), (2, 2, 0, 0)), SmallClass.K33: ((0, 1, 2, 3), (3, 2, 1, 0))}


def _case2_assignments(
    s: Statement, k4s: list[Component], k33s: list[Component]
) -> tuple[str, list[tuple[Component, SmallClass, tuple[int, ...]]]]:
    """Per-component tuples for graphs whose components are all K4 / K3,3."""
    k, ell = len(k4s), len(k33s)
    for label, k4_specials, k33_specials in _CASE2.get((k % 2, ell % 2, s), ()):
        if len(k4_specials) <= k and len(k33_specials) <= ell:
            break
    else:
        raise InternalStuck(f"no case-2 assignment for k={k}, l={ell}, s={s}")
    out: list[tuple[Component, SmallClass, tuple[int, ...]]] = []
    for comps, cls, specials in ((k4s, SmallClass.K4, k4_specials),
                                 (k33s, SmallClass.K33, k33_specials)):
        paired = len(comps) - len(specials)
        for i, comp in enumerate(comps):
            out.append((comp, cls, _PAIR[cls][i % 2] if i < paired else specials[i - paired]))
    return label, out


@dataclass(frozen=True)
class DecompositionResult:
    """A decomposition plus everything needed to report and verify it."""

    statement: str
    subset: EdgeSubset
    target: DegreeProfile
    achieved: DegreeProfile
    max_deviation: Fraction
    branch_trace: tuple[str, ...]
    fallback_used: bool


def _plan(g: Graph, statement: str):
    """Every check and choice decompose(g, statement) makes before it builds a
    subgraph: (target, leading trace labels, build), where build() gives the
    subset, the rest of its trace and whether the fallback ran.

    BALANCED runs I or III by n mod 4, or on an exception graph its best
    effort; I-IV keep their formula on an exception graph, which
    decompose_traced then refuses.  Refusals for degree, parity or a
    2C3/2C4 are raised here.  The empty graph's one subset is built here too.
    """
    if statement == "TWO_REGULAR":
        require_regular(g, 2)
        cycles = _cycle_edges(g)
        counts, (full, hosts) = _two_regular_plan([len(c) for c in cycles], g.n)
        labels = [f"two-regular:full={full}", f"paths={hosts}"] if g.n else ["empty"]
        return DegreeProfile(counts), labels, lambda: (
            _build_two_regular(g, cycles, full, hosts), [], False
        )
    split = _split(g)
    if statement == "BALANCED":
        s = Statement.I if g.n % 4 == 0 else Statement.III
        kind, best = refusal(s, split[1])
        run = best or s
        labels = [f"balanced:{s.value}" if kind is None
                  else f"exception:{kind.value}:best-effort:{run.value}"]
    else:
        run, labels = Statement(statement), []
    if g.n == 0:
        return target_profile(0, run), labels, lambda: (EdgeSubset(0), ["empty"], False)
    return target_profile(g.n, run), labels, lambda: decompose_traced(g, run, split)


def decompose(g: Graph, statement: str) -> DecompositionResult:
    """g decomposed under a document statement name: "I".."IV", "BALANCED"
    or "TWO_REGULAR" (formats.STATEMENTS), as _plan lays it out.

    BALANCED asks for every m(H,k) in {floor(n/4), ceil(n/4)}, through I or
    III by n mod 4.  The three exception graphs (K4, K3,3, 3K4) get their
    best achievable decomposition instead: deviation exactly 1, 3/2, and 1
    respectively.  TWO_REGULAR asks a disjoint union of cycles for a
    balanced spanning subgraph (see _two_regular_plan).
    """
    target, labels, build = _plan(g, statement)
    subset, trace, fallback = build()
    # The one count of the subset's profile; at n = 0 the only subset, the
    # empty one, is taken to reach the target.
    achieved = profile_of(g, subset) if g.n else target
    if achieved != target:
        raise InternalStuck(f"{statement}: achieved {achieved.counts}, target {target.counts}")
    return DecompositionResult(statement, subset, target, achieved, achieved.max_deviation(),
                               tuple(labels + trace), fallback)


# bench/run.py calls these three by name; the next benchmark change deletes them.
def decompose_result(g: Graph, s: Statement) -> DecompositionResult:
    return decompose(g, s.value)


def decompose_balanced(g: Graph) -> DecompositionResult:
    return decompose(g, "BALANCED")


def decompose_two_regular(g: Graph) -> DecompositionResult:
    return decompose(g, "TWO_REGULAR")


def statement_target(g: Graph, statement: str) -> DegreeProfile:
    """The target profile of decompose(g, statement), found without
    decomposing: where decompose refuses before it builds, so does this.
    I-IV give their formula on an exception graph too, where no subgraph
    reaches it."""
    return _plan(g, statement)[0]


def _two_regular_plan(lengths: list[int], n: int):
    """(counts, (full, hosts)) for cycles of these lengths, n vertices in all.

    The counts (n2, n1, n0) are each within 2/3 of n/3, or 1 when n/3 is an
    odd integer; 2C3 and 2C4 provably miss that and are refused.  n1 =
    2 floor((n + 3) / 6) is the even number nearest n/3, the larger on a
    tie, n2 = floor((n - n1) / 2) and n0 the rest.

    full lists the full cycles and hosts the (cycle_index, paths, interior)
    of each host.  A full cycle yields its length in 2-vertices.  A host of
    length L carries j >= 1 vertex-disjoint paths with interior total R,
    R + 2j <= L, and yields R 2-vertices and 2j 1-vertices; other cycles
    stay untouched.  The full cycles are the shortest few, taken in
    (length, index) order until the rest fits; the hosts are the n1/2
    longest others, or all of them.  Each host has one path; the extra
    paths and the interior go to the longest hosts first, as far as each
    has room.
    """
    kind = refusal("TWO_REGULAR", lengths)[0]
    if kind is not None:
        raise ExceptionGraph(kind)
    n1 = 2 * ((n + 3) // 6)
    n2 = (n - n1) // 2
    k = n1 // 2
    p = len(lengths)
    order = sorted(range(p), key=lambda i: (lengths[i], i))
    # Over order[t:]: total length, and paths beyond one per cycle.
    suffix_len = [0] * (p + 1)
    suffix_spare = [0] * (p + 1)
    for t in range(p - 1, -1, -1):
        length = lengths[order[t]]
        suffix_len[t] = suffix_len[t + 1] + length
        suffix_spare[t] = suffix_spare[t + 1] + length // 2 - 1
    for f in range(p + 1):
        full_len = suffix_len[0] - suffix_len[f]
        first = max(p - k, f)  # the hosts are order[first:]
        extra, interior = k - (p - first), n2 - full_len
        if 0 <= interior <= suffix_len[first] - 2 * k and extra <= suffix_spare[first]:
            break
    else:
        raise InternalStuck(f"no two-regular plan for cycles {lengths}")
    hosts = []
    for i in reversed(order[first:]):
        paths = 1 + min(extra, lengths[i] // 2 - 1)
        share = min(interior, lengths[i] - 2 * paths)
        extra -= paths - 1
        interior -= share
        hosts.append((i, paths, share))
    return (n2, n1, n - n1 - n2), (sorted(order[:f]), sorted(hosts))


def _cycle_edges(g: Graph) -> list[list[int]]:
    """Host edges of each cycle of a 2-regular g, in traversal order.

    Cycles come in order of their lowest vertex; each starts there and
    heads first to that vertex's lower neighbour, along its lower edge.
    """
    incident = incident_edges(g)
    seen = [False] * g.n
    cycles = []
    for start in range(g.n):
        if seen[start]:
            continue
        steps, v = [incident[start][0]], g.adjacency[start][0]
        while v != start:
            seen[v] = True
            (i, j), (a, b) = incident[v], g.adjacency[v]  # aligned: both in edge order
            e, v = (j, b) if i == steps[-1] else (i, a)
            steps.append(e)
        cycles.append(steps)
    return cycles


def _build_two_regular(g: Graph, cycles, full, hosts) -> EdgeSubset:
    """Materialize the plan into host edges.

    A full cycle takes every edge.  A host's paths lie back to back from
    the start of its traversal, one skipped edge apart: the first has
    interior + 1 edges, each other one a single edge.
    """
    member = bytearray(g.m)
    for i in full:
        for e in cycles[i]:
            member[e] = 1
    for i, paths, interior in hosts:
        steps = cycles[i]
        for t in [*range(interior + 1), *range(interior + 2, interior + 2 * paths, 2)]:
            member[steps[t]] = 1
    return EdgeSubset.from_member(member)
