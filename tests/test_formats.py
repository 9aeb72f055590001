import hashlib
import json
import random
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degbal.cli import _document, main
from degbal.errors import DegbalError, ParseError
from degbal.formats import (
    GRAPH6_HEADER,
    ResultDocument,
    encode_graph6,
    parse_edge_list,
    parse_graph6,
    parse_rational,
    parse_result_json,
    render_result,
)
from degbal.gen import named, random_cubic
from degbal.general import decompose
from degbal.graphs import Graph, build_graph

from conftest import corpus_lines


def reference_encode(g) -> str:
    """Independent graph6 encoder built from the published byte layout."""
    bits = ""
    for col in range(1, g.n):
        for row in range(col):
            bits += "1" if g.has_edge(row, col) else "0"
    bits += "0" * (-len(bits) % 6)
    if g.n < 63:
        prefix = chr(g.n + 63)
    else:
        prefix = "~" + "".join(
            chr(((g.n >> shift) & 63) + 63) for shift in (12, 6, 0)
        )
    return prefix + "".join(
        chr(int(bits[i : i + 6], 2) + 63) for i in range(0, len(bits), 6)
    )


# str.translate table: each graph6 data character to its six bits, MSB first.
_REFERENCE_BITS = {63 + v: format(v, "06b") for v in range(64)}


def reference_decode(line: str):
    """Per-bit graph6 decoder: expands the body to one '0'/'1' character per
    bit of the upper triangle and walks the set ones column by column."""
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise ParseError("empty graph6 line")
    if min(s) < "?" or max(s) > "~":
        ch = next(c for c in s if not "?" <= c <= "~")
        raise ParseError(f"character {ch!r} out of graph6 range 63..126")

    n, body = ord(s[0]) - 63, s[1:]
    if n == 63:
        if s[1:2] == "~":
            raise DegbalError("8-byte graph6 order prefix (n > 258047)")
        if len(s) < 4:
            raise ParseError("truncated long-form order prefix")
        n = (ord(s[1]) - 63 << 12) | (ord(s[2]) - 63 << 6) | (ord(s[3]) - 63)
        if n < 63:
            raise ParseError(f"non-canonical long-form prefix for n={n}")
        body = s[4:]

    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(body) != expect:
        raise ParseError(f"expected {expect} data bytes for n={n}, got {len(body)}")
    bits = body.translate(_REFERENCE_BITS)
    if "1" in bits[nbits:]:
        raise ParseError("nonzero padding bits")

    edges = []
    v, column_start, column_end = 1, 0, 1  # column v holds bits [v(v-1)/2, v(v+1)/2)
    pos = bits.find("1")
    while pos != -1:
        while pos >= column_end:
            v += 1
            column_start, column_end = column_end, column_end + v
        edges.append((pos - column_start, v))
        pos = bits.find("1", pos + 1)
    return build_graph(n, edges)


def decode_outcome(decode, line):
    """The decoded graph with its adjacency, or the exception's type and message."""
    try:
        g = decode(line)
    except Exception as exc:
        return type(exc), str(exc)
    return g, g.adjacency


def long_form_lines() -> list[str]:
    """Seeded random graphs at n = 63..70, the first orders of the long form."""
    rng = random.Random(63)
    lines = []
    for n in range(63, 71):
        edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.08]
        lines.append(encode_graph6(build_graph(n, edges)))
    return lines


def mutated_records(rng: random.Random, line: str, count: int) -> list[str]:
    """Seeded mutations of one graph6 line: replaced, inserted, deleted and
    bit-flipped characters (DEL, non-ASCII and whitespace among them), set
    padding bits, truncations, and broken or non-canonical long forms."""
    pool = "?@_~ \t\x00\x1f\x7f\x80\xffé\u3000>"
    out = []
    for _ in range(count):
        i = rng.randrange(len(line) + 1)
        kind = rng.randrange(7)
        if kind == 0:
            ch = rng.choice(pool) if rng.random() < 0.5 else chr(rng.randrange(256))
            out.append(line[:i] + ch + line[i + 1:])
        elif kind == 1:
            out.append(line[:i] + rng.choice(pool) + line[i:])
        elif kind == 2:
            out.append(line[:i] + line[i + 1:])
        elif kind == 3 and i < len(line):
            flipped = (ord(line[i]) - 63 ^ 1 << rng.randrange(6)) + 63
            out.append(line[:i] + chr(flipped) + line[i + 1:])
        elif kind == 4:
            out.append(line[:-1] + chr((ord(line[-1]) - 63 | 1 << rng.randrange(6)) + 63))
        elif kind == 5:
            out.append(line[:i])
        else:
            prefix = "~" + "".join(chr(63 + rng.randrange(64)) for _ in range(rng.randrange(4)))
            out.append(prefix + line[rng.randrange(1, 5):])
    return out


# SHA-256 over encode_graph6 of every fixture line and of random_cubic(500, s)
# for each seed below, one line each: the encoder's output is byte-stable.
ENCODE_SHA256 = "e38d60739063c157ddffaea6b11a3fb3866a7604f2cef57c3475cb1d3e4af495"
ENCODE_SEEDS = (1, 2, 3)


class TestGraph6:
    def test_empty_graph(self):
        assert parse_graph6("?").n == 0
        assert encode_graph6(build_graph(0, [])) == "?"

    def test_k4_golden(self):
        # derived from the reference encoder, frozen
        assert reference_encode(named("K4")) == "C~"
        assert encode_graph6(named("K4")) == "C~"
        assert parse_graph6("C~").edges == named("K4").edges

    def test_header_stripped(self):
        assert parse_graph6(">>graph6<<C~").edges == named("K4").edges

    def test_reference_encoder_agrees_on_corpus(self):
        for line in corpus_lines():
            g = parse_graph6(line)
            assert reference_encode(g) == line

    def test_round_trip_corpus(self):
        for line in corpus_lines():
            assert encode_graph6(parse_graph6(line)) == line

    def test_padding_mutations_rejected(self):
        for line in corpus_lines():
            g = parse_graph6(line)
            nbits = g.n * (g.n - 1) // 2
            pad = (-nbits) % 6
            if pad == 0:
                continue
            group = ord(line[-1]) - 63
            for bit in range(pad):
                mutated = line[:-1] + chr((group | (1 << bit)) + 63)
                assert mutated != line  # padding bits are zero in valid lines
                with pytest.raises(ParseError, match="padding"):
                    parse_graph6(mutated)

    def test_character_out_of_range(self):
        with pytest.raises(ParseError):
            parse_graph6("C\x1f")
        with pytest.raises(ParseError):
            parse_graph6("C\x7f~")

    def test_truncated(self):
        with pytest.raises(ParseError):
            parse_graph6("C")
        with pytest.raises(ParseError):
            parse_graph6("C~~")

    def test_long_form_round_trip(self):
        g = build_graph(63, [(i, i + 1) for i in range(62)])
        line = encode_graph6(g)
        assert line.startswith("~")
        assert parse_graph6(line).edges == g.edges
        assert reference_encode(g) == line
        for line in long_form_lines():
            g = parse_graph6(line)
            assert line.startswith("~") and reference_encode(g) == encode_graph6(g) == line

    def test_non_canonical_long_form_rejected(self):
        with pytest.raises(ParseError):
            parse_graph6("~??C" + "?")  # long form used for n = 4

    def test_order_too_large(self):
        with pytest.raises(DegbalError, match=r"^8-byte graph6 order prefix \(n > 258047\)$"):
            parse_graph6("~~?????")
        # Edgeless, so cheap to build; the size check comes before any allocation.
        with pytest.raises(DegbalError, match="^n=258048 exceeds graph6 3-byte form$"):
            encode_graph6(Graph(258048, (), ()))

    @settings(max_examples=40)
    @given(seed=st.integers(0, 5000), n=st.sampled_from([8, 10, 14, 20]))
    def test_round_trip_random(self, seed, n):
        g = random_cubic(n, seed)
        assert parse_graph6(encode_graph6(g)).edges == g.edges

    def test_encoding_matches_golden_digest(self):
        lines = corpus_lines()
        graphs = [parse_graph6(line) for line in lines]
        graphs += [random_cubic(500, seed) for seed in ENCODE_SEEDS]
        digest = hashlib.sha256()
        for g in graphs:
            line = encode_graph6(g)
            assert line == reference_encode(g)
            digest.update(line.encode("ascii") + b"\n")
        assert len(lines) == 54
        assert digest.hexdigest() == ENCODE_SHA256

    @pytest.mark.parametrize(
        "line",
        ["Cé~", "C\x7f~", "C~\x7f", "\x7f", "C\x1f", "C_", "C^", "~", "~?", "~??",
         "~??C?", "~~?????", "~?@?" + "?" * 336, ">>graph6<<", ">>graph6<<Cé~", " C~\n"],
    )
    def test_reference_decoder_agrees_on_malformed(self, line):
        assert decode_outcome(parse_graph6, line) == decode_outcome(reference_decode, line)

    def test_reference_decoder_agrees_on_mutations(self):
        rng = random.Random(2024)
        bases = corpus_lines() + long_form_lines()
        records = []
        for line in bases:
            records += mutated_records(rng, line, 40)
        assert len(records) >= 2400
        for record in bases + records:
            for text in (record, GRAPH6_HEADER + record, record + "\n"):
                want = decode_outcome(reference_decode, text)
                assert decode_outcome(parse_graph6, text) == want, repr(text)

    def test_codec_peak_memory_below_one_byte_per_bit(self):
        g = random_cubic(2000, 1)
        nbits = g.n * (g.n - 1) // 2

        def peak(fn, arg):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = fn(arg)
                return out, tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        line, encode_peak = peak(encode_graph6, g)
        parsed, parse_peak = peak(parse_graph6, line)
        assert parsed == g
        assert encode_peak < nbits, f"encode peaked at {encode_peak / nbits:.2f} bytes per bit"
        assert parse_peak < nbits, f"parse peaked at {parse_peak / nbits:.2f} bytes per bit"

    def test_round_trip_n1000_is_fast(self):
        g = random_cubic(1000, 1)
        start = time.perf_counter()
        line = encode_graph6(g)
        parsed = parse_graph6(line)
        elapsed = time.perf_counter() - start
        assert parsed.edges == g.edges
        assert elapsed < 2, f"encode + parse took {elapsed:.2f} s at n = 1000"


class TestEdgeList:
    def test_k4(self):
        text = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3"
        assert parse_edge_list(text).edges == named("K4").edges

    def test_loop_propagates(self):
        with pytest.raises(DegbalError, match="^loop at vertex 0$"):
            parse_edge_list("2 1\n0 0")

    def test_isolated_vertices(self):
        g = parse_edge_list("3 0")
        assert g.n == 3 and g.m == 0

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_edge_list("4\n0 1")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_edge_list("4 2\n0 1")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty edge-list input"),
            ("4\n", "header must be 'n m', got '4'"),
            ("4 x\n", "non-integer header '4 x'"),
            ("4 1\n0 1 2\n", "edge line must be 'u v', got '0 1 2'"),
            ("4 1\n0 a\n", "non-integer edge line '0 a'"),
        ],
        ids=["empty", "header-fields", "header-integer", "edge-fields", "edge-integer"],
    )
    def test_parse_errors(self, tmp_path, capsys, text, message):
        with pytest.raises(ParseError) as exc:
            parse_edge_list(text)
        assert str(exc.value) == message
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["decompose", "-i", str(path)]) == 4

    def test_negative_order(self, tmp_path, capsys):
        with pytest.raises(DegbalError, match="^negative vertex count -4$"):
            parse_edge_list("-4 0\n")
        # The CLI reads a text that starts with a signed integer as an edge list.
        path = tmp_path / "negative.txt"
        path.write_text("-4 0\n")
        assert main(["decompose", "-i", str(path)]) == 4
        assert capsys.readouterr().err == f"parse error: {path}: negative vertex count -4\n"


class TestRational:
    def test_format(self):
        g = named("PRISM")
        doc = _document("prism", g, decompose(g, "III"))
        for x, text in [(Fraction(1, 2), "1/2"), (Fraction(3, 2), "3/2"),
                        (Fraction(1), "1"), (Fraction(0), "0")]:
            doc = replace(doc, max_deviation=x)
            assert f'"max_deviation":"{text}"' in render_result(doc, "json")
            header, row = render_result(doc, "tsv").split("\n")
            assert dict(zip(header.split("\t"), row.split("\t")))["max_deviation"] == text

    def test_parse(self):
        assert parse_rational("3/2") == Fraction(3, 2)
        assert parse_rational("1") == 1


class TestRenderResult:
    def _doc(self, g, name, res):
        return ResultDocument(
            input_name=name,
            n=g.n,
            statement=res.statement,
            target_profile=res.target,
            achieved_profile=res.achieved,
            subgraph_edges=tuple(res.subset.edges(g)),
            max_deviation=res.max_deviation,
            branch_trace=res.branch_trace,
            fallback_used=res.fallback_used,
        )

    def test_prism_profile_in_json(self):
        g = named("PRISM")
        doc = self._doc(g, "prism", decompose(g, "III"))
        assert '"achieved_profile":[1,2,1,2]' in render_result(doc, "json")

    def test_k33_balanced_deviation(self):
        g = named("K33")
        doc = self._doc(g, "k33", decompose(g, "BALANCED"))
        assert '"max_deviation":"3/2"' in render_result(doc, "json")

    def test_petersen_balanced_deviation(self):
        g = named("PETERSEN")
        doc = self._doc(g, "petersen", decompose(g, "BALANCED"))
        assert '"max_deviation":"1/2"' in render_result(doc, "json")

    def test_json_round_trip(self):
        g = named("CUBE")
        doc = self._doc(g, "cube", decompose(g, "BALANCED"))
        assert parse_result_json(render_result(doc, "json")) == doc

    def test_tsv_deterministic(self):
        g = named("CUBE")
        doc = self._doc(g, "cube", decompose(g, "BALANCED"))
        assert render_result(doc, "tsv") == render_result(doc, "tsv")
        assert render_result(doc, "tsv").splitlines()[0].startswith("input_name\t")

    def test_unknown_format_rejected(self):
        g = named("K4")
        doc = self._doc(g, "k4", decompose(g, "II"))
        with pytest.raises(ValueError, match="^unknown format 'xml'$"):
            render_result(doc, "xml")

    def test_injective_within_run(self):
        docs = []
        for name in ("K4", "PRISM", "CUBE", "PETERSEN", "HEAWOOD"):
            g = named(name)
            docs.append(self._doc(g, name.lower(), decompose(g, "BALANCED")))
        rendered = [render_result(d, "json") for d in docs]
        assert len(set(rendered)) == len(rendered)
        rendered_tsv = [render_result(d, "tsv") for d in docs]
        assert len(set(rendered_tsv)) == len(rendered_tsv)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 4.0),
            ("n", True),
            ("target_profile", [0.0, 0, 2, 2]),
            ("achieved_profile", [0, False, 2, 2]),
            ("subgraph_edges", [[0.0, 1]]),
            ("subgraph_edges", [[0, True]]),
        ],
    )
    def test_non_integer_field_rejected(self, field, value):
        g = named("K4")
        doc = json.loads(render_result(self._doc(g, "k4", decompose(g, "II")), "json"))
        doc[field] = value
        with pytest.raises(ParseError):
            parse_result_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("input_name", 7),
            ("statement", "IX"),
            ("branch_trace", "xyz"),
            ("branch_trace", ["base:K4:single-edge", 1]),
            ("fallback_used", "no"),
        ],
    )
    def test_mistyped_field_rejected(self, field, value):
        g = named("K4")
        doc = json.loads(render_result(self._doc(g, "k4", decompose(g, "II")), "json"))
        doc[field] = value
        with pytest.raises(ParseError):
            parse_result_json(json.dumps(doc))

    def test_bad_json_rejected(self):
        with pytest.raises(ParseError):
            parse_result_json("{not json")
        with pytest.raises(ParseError):
            parse_result_json('{"input_name": "x"}')
