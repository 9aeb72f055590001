"""The per-shape composer agrees with a per-component one on seeded unions.

``reference_compose`` below is the straightforward composer: it walks the
components in label order and, for each one, formats its case-1 label,
looks its decomposition up in a per-call cache, prefixes its trace, and
complements and lifts its subset on its own.  It is kept here only as a
reference for ``degbal.general._compose``, which does that work once per
(shape, statement or tuple, complement parity).  Both are run through
``decompose`` under every statement and BALANCED, and must give the same
subset, branch trace and fallback flag, or the same refusal.
"""

import random
from functools import cache

import pytest

import degbal.connected as connected_mod
import degbal.general as general_mod
from degbal.connected import Statement
from degbal.errors import DegbalError
from degbal.gen import disjoint_union, named, random_cubic
from degbal.graphs import EdgeSubset, SmallClass, classify_small, complement_within

from conftest import relabeled

STATEMENTS = ("I", "II", "III", "IV", "BALANCED")


def reference_lift(member, comp, subset, complemented):
    if complemented:
        subset = complement_within(comp.graph, subset)
    for i in subset.indices():
        member[comp.edges[i]] = 1


def reference_compose(g, s, comps, classes):
    """Case 1 and case 2, every component formatted, complemented and lifted on its own."""
    assert classes == [classify_small(c.graph) for c in comps]
    big = [i for i, cls in enumerate(classes) if cls in (SmallClass.PRISM, SmallClass.OTHER)]
    peels = big[: len(comps) - 1]
    tail = [i for i, cls in enumerate(classes)
            if cls in (SmallClass.K4, SmallClass.K33)] or big[-1:]
    tail_is_2k4 = len(tail) == 2 and all(classes[i] is SmallClass.K4 for i in tail)
    labels, h_trace = [], []
    member = bytearray(g.m)
    flip = rest_is_2k4 = fallback = False
    stmt = s
    run = cache(connected_mod.decompose_connected_traced)
    realize = cache(general_mod.realize_tuple_on)
    for i in peels:
        comp = comps[i]
        rest_is_2k4 = tail_is_2k4 and i == peels[-1]
        if rest_is_2k4:
            stmt, h_stmt, compl_h, compl_whole = Statement.I, stmt, False, False
            labels.append(f"case1:rest=2K4-balanced,H={h_stmt.value}")
        else:
            stmt, h_stmt, compl_h, compl_whole = general_mod._CASE1[comp.graph.n % 4, stmt][:4]
            labels.append(
                f"case1:rest={stmt.value},H={h_stmt.value}"
                + ("~c" if compl_h else "")
                + ("|whole~c" if compl_whole else "")
            )
        flip ^= compl_whole
        h_sub, trace = run(comp.graph, h_stmt)
        fallback |= trace.fallback_used
        h_trace.extend(f"H:{t}" for t in trace.branch)
        reference_lift(member, comp, h_sub, compl_h ^ flip)
    if len(tail) == 1:
        comp = comps[tail[0]]
        sub, trace = run(comp.graph, stmt)
        fallback |= trace.fallback_used
        tail_trace = trace.branch
        reference_lift(member, comp, sub, flip)
    else:
        k4s = [comps[i] for i in tail if classes[i] is SmallClass.K4]
        k33s = [comps[i] for i in tail if classes[i] is SmallClass.K33]
        label, assignments = general_mod._case2_assignments(stmt, k4s, k33s)
        tail_trace = [] if rest_is_2k4 else [label]
        for comp, cls, counts in assignments:
            reference_lift(member, comp, realize(comp.graph, cls, counts), flip)
    trace = labels + [f"rest:{t}" for t in tail_trace] + h_trace if peels else tail_trace
    return EdgeSubset.from_member(member), trace, fallback


def outcome(g, statement):
    try:
        res = general_mod.decompose(g, statement)
    except DegbalError as exc:  # a refusal must be the same refusal
        return type(exc).__name__, str(exc)
    return res.subset.bits, res.branch_trace, res.fallback_used


def seeded_unions(seed):
    """Unions that repeat shapes: prisms first, so III peels one with a whole
    flip and more after it; a big part and a 2K4 rest; big parts and a mixed
    K4/K3,3 tail; K4s and K3,3s alone; and a random mix with relabeled copies."""
    rng = random.Random(f"compose:{seed}")
    prism, k4, k33 = named("PRISM"), named("K4"), named("K33")
    others = [named(p) for p in ("CUBE", "PETERSEN", "HEAWOOD")]
    others += [random_cubic(n, rng.randrange(10**6)) for n in (8, 10, 12)]
    copy = relabeled(rng.choice(others), rng)
    mix = [prism, k4, copy, relabeled(prism, rng)] + others + [k33, relabeled(k33, rng)]
    big = [rng.choice(others + [prism, copy]) for _ in range(rng.randrange(1, 6))]
    return [
        disjoint_union([prism] * rng.randrange(2, 9) + big + [prism] * rng.randrange(1, 4)),
        disjoint_union(big + [prism] * rng.randrange(1, 5) + [k4, k4]),
        disjoint_union(big + [k4] * rng.randrange(1, 6) + [k33] * rng.randrange(1, 6)),
        disjoint_union([rng.choice([k4, k33, mix[-1]]) for _ in range(rng.randrange(2, 12))]),
        disjoint_union([rng.choice(mix) for _ in range(rng.randrange(2, 16))]),
    ]


@pytest.mark.parametrize("blocked", [False, True], ids=["plain", "stage2-blocked-on-8"])
@pytest.mark.parametrize("seed", range(8))
def test_matches_reference_composer(monkeypatch, seed, blocked):
    if blocked:  # stage 2 gives up on every 8-vertex component, so the fallback runs there
        stage2 = connected_mod.stage2_fill_v2
        monkeypatch.setattr(connected_mod, "stage2_fill_v2",
                            lambda state: state.host.n != 8 and stage2(state))
    for g in seeded_unions(seed):
        kept = {st: outcome(g, st) for st in STATEMENTS}
        with monkeypatch.context() as m:
            m.setattr(general_mod, "_compose", reference_compose)
            for st in STATEMENTS:
                assert outcome(g, st) == kept[st], (seed, st)


def test_seeded_unions_reach_every_branch(monkeypatch):
    # The whole flip, the 2K4 rest, case-2 tails after peels and alone, and
    # (with stage 2 blocked as above) the fallback flag all occur.
    stage2 = connected_mod.stage2_fill_v2
    monkeypatch.setattr(connected_mod, "stage2_fill_v2",
                        lambda state: state.host.n != 8 and stage2(state))
    seen, fallbacks = set(), 0
    for seed in range(8):
        for g in seeded_unions(seed):
            for st in STATEMENTS:
                got = outcome(g, st)
                if isinstance(got[0], int):
                    seen.update(got[1])
                    fallbacks += got[2]
    assert "case1:rest=II,H=IV~c|whole~c" in seen
    assert any(t.startswith("case1:rest=2K4-balanced") for t in seen)
    assert any(t.startswith("rest:case2") for t in seen)
    assert any(t.startswith("case2") for t in seen)
    assert fallbacks > 0
