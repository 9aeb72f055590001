"""Every connected cubic graph with n <= 14, decomposed.

tests/fixtures/catalog/ holds one graph per isomorphism class at n = 12 and
14, grown from K4 by scripts/make_fixtures.py; the n <= 10 classes are the
committed connected_cubic_*.g6 files beside it.  Each graph runs under both
statements of its parity and under BALANCED: every result is on target, no
run takes the oracle fallback, and the only refusals are the paper's (K4
under I, K3,3 under III).  n = 14, with seeded relabelings, is marked slow.

The same graphs, and every disjoint union of two or more of them with
n <= 16, are checked against the oracle's full report: BALANCED's deviation
is the least any spanning subgraph has, and a statement's target is
achievable exactly where connected.REFUSALS has no row for it.
"""

import itertools
import random

import pytest

from degbal.connected import ExceptionKind, Statement, refusal, target_profile
from degbal.errors import ExceptionGraph
from degbal.gen import disjoint_union
from degbal.general import decompose
from degbal.graphs import classify_small, connected_components, inferred_degree
from degbal.oracle import achievable_profiles

from conftest import applicable_statements, load_corpus_file, relabeled

# OEIS A002851: connected cubic graphs on n vertices.
A002851 = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509}
REFUSED = {(4, "I"), (6, "III")}


def catalog(n):
    folder = "catalog/" if n >= 12 else ""
    return load_corpus_file(f"{folder}connected_cubic_{n:02d}.g6")


def check_every_statement(name, g):
    for s in [s.value for s in applicable_statements(g.n)] + ["BALANCED"]:
        try:
            res = decompose(g, s)
        except ExceptionGraph:
            assert (g.n, s) in REFUSED, (name, s)
            continue
        assert res.achieved == res.target, (name, s)
        assert not res.fallback_used, (name, s)


@pytest.mark.parametrize("n", sorted(A002851))
def test_catalog_files_hold_a002851_graphs(n):
    graphs = catalog(n)
    assert len(graphs) == A002851[n]
    assert len({g.edges for _, g in graphs}) == len(graphs)
    for name, g in graphs:
        assert g.n == n and inferred_degree(g) == 3, name
        assert len(connected_components(g)) == 1, name


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_catalog_every_statement_no_fallback(n):
    for name, g in catalog(n):
        check_every_statement(name, g)


@pytest.mark.slow
def test_catalog_14_relabeled_every_statement_no_fallback():
    rng = random.Random("catalog-14")
    for name, g in catalog(14):
        check_every_statement(name, g)
        for i in range(10):
            check_every_statement(f"{name}:relabeled-{i}", relabeled(g, rng))


def catalog_graphs_up_to(n_max):
    """(name, graph) for every connected cubic graph with n <= n_max, by n then file order."""
    return [item for n in sorted(A002851) if n <= n_max for item in catalog(n)]


def unions_up_to(n_max):
    """(name, disjoint union) of every multiset of two or more catalog graphs
    with total n <= n_max, the parts in catalog order."""
    for k in range(2, n_max // 4 + 1):
        parts = catalog_graphs_up_to(n_max - 4 * (k - 1))  # the others take n >= 4 each
        for combo in itertools.combinations_with_replacement(parts, k):
            if sum(g.n for _, g in combo) <= n_max:
                yield "+".join(name for name, _ in combo), disjoint_union([g for _, g in combo])


def check_against_oracle(name, g):
    """BALANCED reaches the oracle's minimum deviation, and each statement's
    target is achievable exactly where REFUSALS has no row; the refusals met."""
    report = achievable_profiles(g)
    assert decompose(g, "BALANCED").max_deviation == report.min_max_deviation, name
    shapes = [classify_small(c.graph) for c in connected_components(g)]
    refused = set()
    for s in applicable_statements(g.n):
        kind = refusal(s, shapes)[0]
        assert (target_profile(g.n, s) in report.achievable) == (kind is None), (name, s)
        if kind is not None:
            refused.add((s, kind))
    return refused


def test_connected_catalog_matches_the_oracle():
    graphs = catalog_graphs_up_to(14)
    assert len(graphs) == 621
    refused = set().union(*(check_against_oracle(name, g) for name, g in graphs))
    assert refused == {(Statement.I, ExceptionKind.K4_I), (Statement.III, ExceptionKind.K33_III)}


def test_catalog_unions_match_the_oracle():
    unions = list(unions_up_to(16))
    assert len(unions) == 190
    refused = set().union(*(check_against_oracle(name, g) for name, g in unions))
    assert refused == {(Statement.II, ExceptionKind.TWO_K4_II),
                       (Statement.I, ExceptionKind.THREE_K4_I)}
