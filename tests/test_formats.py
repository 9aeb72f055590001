import hashlib
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degbal.connected import Statement
from degbal.errors import LoopEdge, ParseError, UnsupportedOrder
from degbal.formats import (
    ResultDocument,
    encode_graph6,
    format_rational,
    parse_edge_list,
    parse_graph6,
    parse_rational,
    parse_result_json,
    render_result,
)
from degbal.gen import named, random_cubic
from degbal.general import decompose_balanced, decompose_result
from degbal.graphs import build_graph

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

    def test_bytes_input(self):
        assert parse_graph6(b"C~").n == 4

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

    def test_non_canonical_long_form_rejected(self):
        with pytest.raises(ParseError):
            parse_graph6("~??C" + "?")  # long form used for n = 4

    def test_order_too_large(self):
        with pytest.raises(UnsupportedOrder):
            parse_graph6("~~?????")

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
        with pytest.raises(LoopEdge):
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


class TestRational:
    def test_format(self):
        assert format_rational(Fraction(1, 2)) == "1/2"
        assert format_rational(Fraction(3, 2)) == "3/2"
        assert format_rational(Fraction(1)) == "1"
        assert format_rational(Fraction(0)) == "0"

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
        from degbal.connected import Statement

        g = named("PRISM")
        doc = self._doc(g, "prism", decompose_result(g, Statement.III))
        assert '"achieved_profile":[1,2,1,2]' in render_result(doc, "json")

    def test_k33_balanced_deviation(self):
        g = named("K33")
        doc = self._doc(g, "k33", decompose_balanced(g))
        assert '"max_deviation":"3/2"' in render_result(doc, "json")

    def test_petersen_balanced_deviation(self):
        g = named("PETERSEN")
        doc = self._doc(g, "petersen", decompose_balanced(g))
        assert '"max_deviation":"1/2"' in render_result(doc, "json")

    def test_json_round_trip(self):
        g = named("CUBE")
        doc = self._doc(g, "cube", decompose_balanced(g))
        assert parse_result_json(render_result(doc, "json")) == doc

    def test_tsv_deterministic(self):
        g = named("CUBE")
        doc = self._doc(g, "cube", decompose_balanced(g))
        assert render_result(doc, "tsv") == render_result(doc, "tsv")
        assert render_result(doc, "tsv").splitlines()[0].startswith("input_name\t")

    def test_injective_within_run(self):
        docs = []
        for name in ("K4", "PRISM", "CUBE", "PETERSEN", "HEAWOOD"):
            g = named(name)
            docs.append(self._doc(g, name.lower(), decompose_balanced(g)))
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
        doc = json.loads(render_result(self._doc(g, "k4", decompose_result(g, Statement.II)), "json"))
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
        doc = json.loads(render_result(self._doc(g, "k4", decompose_result(g, Statement.II)), "json"))
        doc[field] = value
        with pytest.raises(ParseError):
            parse_result_json(json.dumps(doc))

    def test_bad_json_rejected(self):
        with pytest.raises(ParseError):
            parse_result_json("{not json")
        with pytest.raises(ParseError):
            parse_result_json('{"input_name": "x"}')
