"""graph6 codec, plain edge-list text, and result-document rendering.

graph6 layout: N(n) prefix (one byte for n < 63, '~' plus three bytes for
63 <= n <= 258047), then the upper triangle of the adjacency matrix in
column-major order, packed into 6-bit groups offset by 63, zero-padded.
Edge (u, v) with u < v is bit v(v-1)/2 + u of that stream, counted from
its start.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import DegbalError, ParseError
from .graphs import DegreeProfile, Graph, build_graph

GRAPH6_HEADER = ">>graph6<<"
STATEMENTS = ("I", "II", "III", "IV", "BALANCED", "TWO_REGULAR")
GRAPH6_MAX_ORDER = 258047
_GRAPH6_CHARS = bytes(range(63, 127))  # '?'..'~', the 6-bit values 0..63 offset by 63
_TO_CHAR = bytes.maketrans(bytes(range(64)), _GRAPH6_CHARS)
# Each character's set bits, as offsets into its six (MSB at offset 0).
_SET_BITS = {63 + v: [j for j in range(6) if v << j & 32] for v in range(64)}


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 record (optionally header-prefixed)."""
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise ParseError("empty graph6 line")
    if not s.isascii() or (data := s.encode("ascii")).translate(None, _GRAPH6_CHARS):
        ch = next(c for c in s if not "?" <= c <= "~")
        raise ParseError(f"character {ch!r} out of graph6 range 63..126")

    n, body = data[0] - 63, data[1:]
    if n == 63:
        if data[1:2] == b"~":
            raise DegbalError("8-byte graph6 order prefix (n > 258047)")
        if len(data) < 4:
            raise ParseError("truncated long-form order prefix")
        n, body = (data[1] - 63 << 12) | (data[2] - 63 << 6) | (data[3] - 63), data[4:]
        if n < 63:
            raise ParseError(f"non-canonical long-form prefix for n={n}")

    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(body) != expect:
        raise ParseError(f"expected {expect} data bytes for n={n}, got {len(body)}")
    if (data[-1] - 63) & ((1 << (6 * expect - nbits)) - 1):  # the last value's padding bits
        raise ParseError("nonzero padding bits")

    heads: list[list[int]] = [[] for _ in range(n)]  # u's higher neighbours, ascending
    v, column_start, column_end = 1, 0, 1  # column v holds bits [v(v-1)/2, v(v+1)/2)
    for i in map(re.Match.start, re.finditer(rb"[^?]", body)):  # nonzero values: not "?"
        for j in _SET_BITS[body[i]]:
            pos = 6 * i + j
            while pos >= column_end:
                v += 1
                column_start, column_end = column_end, column_end + v
            heads[pos - column_start].append(v)
    tails = [u for u, row in enumerate(heads) for _ in row]
    return Graph(n, tuple(tails), tuple(chain.from_iterable(heads)))


def encode_graph6(g: Graph) -> str:
    """Canonical graph6 line for g under its given labeling."""
    n = g.n
    if n > GRAPH6_MAX_ORDER:
        raise DegbalError(f"n={n} exceeds graph6 3-byte form")
    prefix = [n] if n < 63 else [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    start = len(prefix)
    values = bytearray(prefix) + bytes((n * (n - 1) // 2 + 5) // 6)
    for u, v in zip(g.tails, g.heads):
        i, j = divmod(v * (v - 1) // 2 + u, 6)
        values[start + i] |= 32 >> j
    return values.translate(_TO_CHAR).decode("ascii")


def parse_edge_list(text: str) -> Graph:
    """Parse 'n m' header followed by m lines 'u v'."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"non-integer header {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ParseError(f"header promises {m} edges, found {len(lines) - 1} lines")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"edge line must be 'u v', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"non-integer edge line {ln!r}") from None
    return build_graph(n, edges)


def parse_rational(s: str) -> Fraction:
    if "/" in s:
        p, q = s.split("/", 1)
        return Fraction(int(p), int(q))
    return Fraction(int(s))


@dataclass(frozen=True)
class ResultDocument:
    """Everything a decomposition run reports about one input graph."""

    input_name: str
    n: int
    statement: str                    # one of STATEMENTS
    target_profile: DegreeProfile
    achieved_profile: DegreeProfile
    subgraph_edges: tuple[tuple[int, int], ...]
    max_deviation: Fraction
    branch_trace: tuple[str, ...]
    fallback_used: bool


def render_result(r: ResultDocument, format: str = "json") -> str:
    """Deterministic serialization; JSON keys in fixed order."""
    if format == "json":  # json writes a tuple as an array
        doc = {
            "input_name": r.input_name,
            "n": r.n,
            "statement": r.statement,
            "target_profile": r.target_profile.counts,
            "achieved_profile": r.achieved_profile.counts,
            "subgraph_edges": r.subgraph_edges,
            "max_deviation": str(r.max_deviation),
            "branch_trace": r.branch_trace,
            "fallback_used": r.fallback_used,
        }
        return json.dumps(doc, separators=(",", ":"))
    if format == "tsv":
        row = {  # the header lists these keys in this order
            "input_name": r.input_name,
            "n": str(r.n),
            "statement": r.statement,
            "target_profile": ",".join(map(str, r.target_profile.counts)),
            "achieved_profile": ",".join(map(str, r.achieved_profile.counts)),
            "max_deviation": str(r.max_deviation),
            "fallback_used": "true" if r.fallback_used else "false",
            "branch_trace": ";".join(r.branch_trace),
            "subgraph_edges": " ".join(f"{u}-{v}" for u, v in r.subgraph_edges),
        }
        return "\t".join(row) + "\n" + "\t".join(row.values())
    raise ValueError(f"unknown format {format!r}")


def _typed(x, t: type = int):
    """x as is if its type is exactly t; a float or boolean for an int is a TypeError."""
    if type(x) is not t:
        raise TypeError(f"{x!r} is not of type {t.__name__}")
    return x


def parse_result_json(text: str) -> ResultDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad result JSON: {exc}") from None
    try:
        if doc["statement"] not in STATEMENTS:
            raise ValueError(f"unknown statement {doc['statement']!r}")
        return ResultDocument(
            input_name=_typed(doc["input_name"], str),
            n=_typed(doc["n"]),
            statement=doc["statement"],
            target_profile=DegreeProfile(tuple(map(_typed, doc["target_profile"]))),
            achieved_profile=DegreeProfile(tuple(map(_typed, doc["achieved_profile"]))),
            subgraph_edges=tuple((_typed(u), _typed(v)) for u, v in doc["subgraph_edges"]),
            max_deviation=parse_rational(doc["max_deviation"]),
            branch_trace=tuple(_typed(b, str) for b in _typed(doc["branch_trace"], list)),
            fallback_used=_typed(doc["fallback_used"], bool),
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"result document missing/invalid field: {exc}") from None
