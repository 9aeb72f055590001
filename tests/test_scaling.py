"""Interpreter calls per vertex stay flat as n grows ten-fold.

cProfile's ncalls, Python and C calls together, depend on the code and its
input alone, not on the machine's speed, so they make a clock-free scaling
test.  Each family is counted at n = 10^3 and at n = 10^4 in one run, so the
Python version cancels out, and the larger n may make at most BOUND times
the calls per vertex of the smaller.  A miss lists every function above
0.05 calls per vertex, which names the layer that grew.  The 10^4 against
10^5 row of decompose is marked slow, which the default run deselects; run
it with ``-m slow``.
"""

import contextlib
import cProfile
import io
import pstats

import pytest

from degbal import cli
from degbal.gen import cycles, disjoint_union, named, random_cubic
from degbal.general import decompose
from degbal.graphs import Graph

from conftest import generalized_petersen

SIZES = (1000, 10000)
SLOW_SIZES = (10000, 100000)
BOUND = 1.15

# family -> (graph of about n vertices, the statement decomposed)
FAMILIES = {
    "random_cubic": (lambda n: random_cubic(n, 1), "BALANCED"),
    "GP(n/2, 7)": (lambda n: generalized_petersen(n // 2, 7), "BALANCED"),
    "Petersen unions": (lambda n: disjoint_union([named("PETERSEN")] * (n // 10)), "BALANCED"),
    "K4/K3,3 unions": (lambda n: disjoint_union([named("K4"), named("K33")] * (n // 10)),
                       "BALANCED"),
    "C3/C5 unions": (lambda n: cycles([3, 5] * (n // 8)), "TWO_REGULAR"),
}


def calls(fn):
    """fn()'s value, and cProfile's ncalls of each function it reached."""
    profile = cProfile.Profile()
    value = profile.runcall(fn)
    stats = pstats.Stats(profile).stats
    return value, {pstats.func_std_string(key): row[1] for key, row in stats.items()}


def assert_flat(per_n: dict[int, dict[str, int]]) -> None:
    """Calls per vertex at the larger n at most BOUND times those at the smaller."""
    (n0, small), (n1, large) = sorted(per_n.items())
    ratio = (sum(large.values()) / n1) / (sum(small.values()) / n0)
    if ratio > BOUND:
        rows = sorted(((small.get(f, 0) / n0, large.get(f, 0) / n1, f) for f in {*small, *large}),
                      key=lambda row: -row[1])
        table = "\n".join(f"{a:9.3f} {b:9.3f}  {f}" for a, b, f in rows if max(a, b) > 0.05)
        pytest.fail(f"calls per vertex grew {ratio:.3f}x from n = {n0} to n = {n1}\n"
                    f"{'n = ' + str(n0):>9} {'n = ' + str(n1):>9}  function\n{table}")


def assert_decompose_flat(family: str, sizes: tuple[int, int]) -> None:
    build, statement = FAMILIES[family]
    per_n = {}
    for n in sizes:
        g = build(n)
        fresh = Graph(g.n, g.tails, g.heads)  # no split or cycle kept from building it
        result, per_n[fresh.n] = calls(lambda: decompose(fresh, statement))
        assert result.achieved == result.target
    assert_flat(per_n)


@pytest.mark.parametrize("family", FAMILIES)
def test_decompose_calls_per_vertex(family):
    assert_decompose_flat(family, SIZES)


@pytest.mark.slow
@pytest.mark.parametrize("family", FAMILIES)
def test_decompose_calls_per_vertex_to_1e5(family):
    assert_decompose_flat(family, SLOW_SIZES)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main(argv)'s exit code and what it wrote to stdout."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("command", ["decompose", "verify"])
def test_cli_calls_per_vertex(tmp_path, command):
    # random_cubic(n, 1) as an edge-list file: parse, decompose and render,
    # or parse, read the document and count its subgraph's profile.
    per_n = {}
    for n in SIZES:
        g = random_cubic(n, 1)
        graph = tmp_path / f"r{n}.txt"
        graph.write_text(f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in zip(g.tails, g.heads)))
        argv = ["decompose", "-i", str(graph)]
        if command == "verify":
            document = tmp_path / f"r{n}.json"
            document.write_text(run_cli(argv)[1])
            argv = ["verify", "-i", str(graph), "-r", str(document)]
        (code, out), per_n[n] = calls(lambda: run_cli(argv))
        assert code == 0 and out, (command, n)
    assert_flat(per_n)
