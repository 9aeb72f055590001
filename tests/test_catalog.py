"""Every connected cubic graph with n <= 14, decomposed.

tests/fixtures/catalog/ holds one graph per isomorphism class at n = 12 and
14, grown from K4 by scripts/make_fixtures.py; the n <= 10 classes are the
committed connected_cubic_*.g6 files beside it.  Each graph runs under both
statements of its parity and under BALANCED: every result is on target, no
run takes the oracle fallback, and the only refusals are the paper's (K4
under I, K3,3 under III).  n = 14, with seeded relabelings, is marked slow.
"""

import random

import pytest

from degbal.errors import ExceptionGraph
from degbal.general import decompose
from degbal.graphs import connected_components, inferred_degree

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
