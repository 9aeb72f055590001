from __future__ import annotations

from pathlib import Path

import pytest

from degbal.connected import Statement
from degbal.formats import parse_graph6
from degbal.general import _TABLES
from degbal.graphs import Graph, SmallClass, build_graph

FIXTURES = Path(__file__).parent / "fixtures"
# The decomposition tuples each small-class table lists, ascending.
K4_TUPLES = tuple(sorted(_TABLES[SmallClass.K4][1]))
K33_TUPLES = tuple(sorted(_TABLES[SmallClass.K33][1]))


def load_corpus_file(name: str) -> list[tuple[str, Graph]]:
    path = FIXTURES / name
    return [
        (f"{path.stem}:{i}", parse_graph6(line))
        for i, line in enumerate(path.read_text().splitlines())
        if line.strip()
    ]


def corpus_lines() -> list[str]:
    lines: list[str] = []
    for path in sorted(FIXTURES.glob("*.g6")):
        lines.extend(ln for ln in path.read_text().splitlines() if ln.strip())
    return lines


@pytest.fixture(scope="session")
def catalog_graphs() -> list[tuple[str, Graph]]:
    """Complete catalogs of connected cubic graphs, n in {4, 6, 8, 10}."""
    out = []
    for n in (4, 6, 8, 10):
        out.extend(load_corpus_file(f"connected_cubic_{n:02d}.g6"))
    return out


@pytest.fixture(scope="session")
def connected_corpus(catalog_graphs) -> list[tuple[str, Graph]]:
    """Connected corpus graphs with n <= 12 (catalogs plus random 12s)."""
    return catalog_graphs + load_corpus_file("random_cubic_12.g6")


@pytest.fixture(scope="session")
def full_corpus(connected_corpus) -> list[tuple[str, Graph]]:
    """Everything with n <= 12, including the disconnected unions."""
    return connected_corpus + load_corpus_file("unions_n_le_12.g6")


def applicable_statements(n: int) -> tuple[Statement, Statement]:
    """The two statements whose parity fits n: I and II when 4 | n, else III and IV."""
    return (Statement.I, Statement.II) if n % 4 == 0 else (Statement.III, Statement.IV)


def relabeled(g: Graph, rng) -> Graph:
    """g with its vertices permuted by rng.shuffle."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def circulant(n: int, jumps: tuple[int, ...]) -> Graph:
    """The circulant C_n(jumps): vertex i adjacent to i ± j mod n for each jump j."""
    edges = {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps}
    return build_graph(n, sorted(edges))


def generalized_petersen(n: int, k: int) -> Graph:
    """GP(n, k): outer cycle 0..n-1, spokes i ~ n+i, inner edges n+i ~ n+(i+k) mod n."""
    return build_graph(2 * n, [(i, (i + 1) % n) for i in range(n)]
                       + [(i, n + i) for i in range(n)]
                       + [(n + i, n + (i + k) % n) for i in range(n)])
