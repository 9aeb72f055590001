"""Golden digest of the result documents the library produces.

The staged construction is deterministic down to its tie-breaks, so any
change to how its rules are found must leave every document byte-identical.
This test pins a SHA-256 over the JSON documents for every fixture graph
(under ``balanced`` and each statement of matching parity) and for a few
seeded random cubic graphs of order 1002 and 1400.  Refusals are part of the
digest too, as the kind of exception raised.
"""

import hashlib

from degbal.cli import _document
from degbal.connected import Statement
from degbal.errors import ExceptionGraph
from degbal.formats import render_result
from degbal.gen import random_cubic
from degbal.general import decompose_balanced, decompose_result

from conftest import FIXTURES, load_corpus_file

GOLDEN_SHA256 = "37fef6abfee445724f6e499e957e7984e2b635ed054445cafc126365e36ea7a3"

RANDOM_CASES = [(1002, 1), (1002, 2), (1400, 3), (1400, 4)]


def golden_inputs():
    for path in sorted(FIXTURES.glob("*.g6")):
        yield from load_corpus_file(path.name)
    for n, seed in RANDOM_CASES:
        yield f"random_cubic:{n}:{seed}", random_cubic(n, seed)


def result_lines():
    for name, g in golden_inputs():
        statements = (Statement.I, Statement.II) if g.n % 4 == 0 else (Statement.III, Statement.IV)
        runs = [("balanced", decompose_balanced)]
        runs += [(s.value, lambda h, s=s: decompose_result(h, s)) for s in statements]
        for label, run in runs:
            try:
                yield render_result(_document(name, g, run(g)))
            except ExceptionGraph as exc:
                yield f"{name}\t{label}\texception:{exc.kind.value}"


def test_result_documents_match_golden_digest():
    digest = hashlib.sha256()
    count = 0
    for line in result_lines():
        digest.update(line.encode("ascii") + b"\n")
        count += 1
    assert count == 3 * (54 + len(RANDOM_CASES))
    assert digest.hexdigest() == GOLDEN_SHA256
