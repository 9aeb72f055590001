import contextlib
import functools
import hashlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from degbal import cli
from degbal.cli import _document, main
from degbal.errors import DegbalError, InternalStuck
from degbal.formats import encode_graph6, parse_graph6, render_result
from degbal.gen import CATALOG_NAMES, cycles, disjoint_union, named, random_cubic
from degbal.general import decompose

from conftest import FIXTURES


def _empty_subgraph_document(name, statement, n, degree):
    """A self-consistent result document whose subgraph has no edges."""
    profile = [0] * degree + [n]
    return {
        "input_name": name,
        "n": n,
        "statement": statement,
        "target_profile": profile,
        "achieved_profile": profile,
        "subgraph_edges": [],
        "max_deviation": str(Fraction(n) - Fraction(n, degree + 1)),
        "branch_trace": [],
        "fallback_used": False,
    }


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_stdout(argv, stdin=""):
    """main's exit code and stdout for argv, with stdin reading the given text."""
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            return main(list(argv)), out.getvalue()
    finally:
        sys.stdin = saved


class TestDecomposeCommand:
    def test_petersen_balanced(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--named", "petersen", "--statement", "balanced")
        assert code == 0
        doc = json.loads(out)
        assert doc["max_deviation"] == "1/2"
        assert doc["statement"] == "BALANCED"

    @pytest.mark.parametrize("name, statement, kind", [("k33", "iii", "K33_III"), ("k4", "i", "K4_I")],
                             ids=["k33-iii", "k4-i"])
    def test_exception_graph_exit_2(self, capsys, name, statement, kind):
        code, _, err = run_cli(capsys, "decompose", "--named", name, "--statement", statement)
        assert code == 2
        assert kind in err

    def test_prism_iii_profile(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--named", "prism", "--statement", "iii")
        assert code == 0
        assert json.loads(out)["achieved_profile"] == [1, 2, 1, 2]

    def test_parity_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "--named", "cube", "--statement", "iii")
        assert code == 3

    @pytest.mark.parametrize("exc", [InternalStuck("x"), AssertionError("y")],
                             ids=["internal-stuck", "assertion"])
    def test_internal_failure_exit_5(self, capsys, monkeypatch, exc):
        def failing(g, statement):
            raise exc

        monkeypatch.setattr(cli, "decompose", failing)
        code, out, err = run_cli(capsys, "decompose", "--named", "petersen")
        assert (code, out, err) == (5, "", f"internal invariant failure: {exc}\n")

    def test_bad_statement_is_usage_error_exit_1(self, capsys):
        # 2 means an exception graph; a usage error is a generic failure.
        code, out, err = run_cli(capsys, "decompose", "--named", "k4", "--statement", "v")
        assert code == 1 and not out
        assert "statement must be" in err

    def test_parse_error_exit_4(self, capsys, tmp_path):
        bad = tmp_path / "bad.g6"
        bad.write_text("C~\n\x05bad\n")
        code, _, err = run_cli(capsys, "decompose", "--input", str(bad))
        assert code == 4
        assert ":2" in err  # failing line number
        assert run_cli(capsys, "decompose") == (
            4, "", "parse error: no input: pass --named NAME or --input PATH (or '-')\n"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("4 2\n0 1\n0 1\n", "listed twice"),
            ("4 1\n2 2\n", "loop"),
            ("4 1\n0 4\n", "outside"),
        ],
        ids=["duplicate", "loop", "out-of-range"],
    )
    def test_malformed_edge_list_exit_4(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, _, err = run_cli(capsys, "decompose", "--input", str(path))
        assert code == 4
        assert message in err and str(path) in err

    @pytest.mark.parametrize("command", ["decompose", "batch"])
    def test_non_ascii_file_is_parse_error(self, capsys, tmp_path, monkeypatch, command):
        data = "C~\nC\u00e9\n".encode("utf-8")
        path = tmp_path / "bad.g6"
        path.write_bytes(data)
        code, _, err = run_cli(capsys, command, "--input", str(path))
        assert code == 4
        assert f"{path}:2: character 'é' out of graph6 range" in err
        monkeypatch.setattr(sys, "stdin", io.StringIO(data.decode("utf-8")))
        code, _, err = run_cli(capsys, command, "--input", "-")
        assert code == 4
        assert "stdin:2: character 'é' out of graph6 range" in err

    @pytest.mark.parametrize("command", ["decompose", "batch"])
    def test_undecodable_stdin_is_parse_error(self, capsys, monkeypatch, command):
        # A strict decoder on stdin must not turn a bad byte into exit 1.
        stdin = io.TextIOWrapper(io.BytesIO(b"C~\nC\xff\n"), encoding="utf-8", errors="strict")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, _, err = run_cli(capsys, command, "--input", "-")
        assert code == 4
        assert "stdin:2: character '\ufffd' out of graph6 range" in err

    def test_file_input_multiple_graphs(self, capsys, tmp_path):
        path = tmp_path / "two.g6"
        path.write_text(encode_graph6(named("CUBE")) + "\n" + encode_graph6(named("PETERSEN")) + "\n")
        code, out, _ = run_cli(capsys, "decompose", "--input", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["n"] == 8
        assert json.loads(lines[1])["n"] == 10

    def test_edge_list_input(self, capsys, tmp_path):
        path = tmp_path / "k4.txt"
        path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        code, out, _ = run_cli(capsys, "decompose", "--input", str(path), "--statement", "ii")
        assert code == 0
        assert json.loads(out)["achieved_profile"] == [0, 0, 2, 2]

    @pytest.mark.parametrize(
        "text, code, err",
        [
            ("-4 0\n", 4, "parse error: {path}: negative vertex count -4\n"),
            ("+4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n", 0, ""),
            ("-x\n", 4, "parse error: {path}:1: character '-' out of graph6 range 63..126\n"),
        ],
        ids=["negative-order", "plus-signed-order", "sign-then-letter"],
    )
    def test_signed_integer_opens_an_edge_list(self, capsys, tmp_path, text, code, err):
        path = tmp_path / "signed.txt"
        path.write_text(text)
        got, out, stderr = run_cli(capsys, "decompose", "--input", str(path), "-s", "ii")
        assert (got, stderr) == (code, err.format(path=path))
        if code == 0:
            assert json.loads(out)["achieved_profile"] == [0, 0, 2, 2]

    def test_tsv_single_header(self, capsys, tmp_path):
        path = tmp_path / "two.g6"
        path.write_text(encode_graph6(named("CUBE")) + "\n" + encode_graph6(named("CUBE")) + "\n")
        code, out, _ = run_cli(capsys, "decompose", "--input", str(path), "--format", "tsv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("input_name\t")

    def test_600_prisms_edge_list(self, capsys, tmp_path):
        g = disjoint_union([named("PRISM")] * 600)
        path = tmp_path / "prisms.txt"
        path.write_text(f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
        code, out, _ = run_cli(capsys, "decompose", "--input", str(path))
        assert code == 0
        docs = out.strip().splitlines()
        assert len(docs) == 1
        assert json.loads(docs[0])["max_deviation"] == "0"

    def test_two_regular_statement(self, capsys, tmp_path):
        path = tmp_path / "c9.txt"
        path.write_text("9 9\n" + "\n".join(f"{i} {(i + 1) % 9}" for i in range(9)))
        code, out, _ = run_cli(capsys, "decompose", "--input", str(path), "--statement", "two-regular")
        assert code == 0
        assert json.loads(out)["statement"] == "TWO_REGULAR"


class TestVerifyCommand:
    def _decompose_to_file(self, capsys, tmp_path, name, statement):
        code, out, _ = run_cli(capsys, "decompose", "--named", name, "--statement", statement)
        assert code == 0
        path = tmp_path / "result.json"
        path.write_text(out)
        return path

    def test_valid_document_passes(self, capsys, tmp_path):
        path = self._decompose_to_file(capsys, tmp_path, "petersen", "iii")
        code, out, _ = run_cli(capsys, "verify", "--named", "petersen", "--result", str(path))
        assert code == 0 and out.startswith("PASS")

    def test_tampered_document_fails_with_diff(self, capsys, tmp_path):
        path = self._decompose_to_file(capsys, tmp_path, "petersen", "iii")
        doc = json.loads(path.read_text())
        doc["subgraph_edges"] = doc["subgraph_edges"][:-1]  # drop one edge
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--named", "petersen", "--result", str(path))
        assert code == 1
        assert "degree" in out  # lists the differing degrees

    def test_edge_listed_twice_fails(self, capsys, tmp_path):
        path = self._decompose_to_file(capsys, tmp_path, "petersen", "iii")
        doc = json.loads(path.read_text())
        doc["subgraph_edges"].append(doc["subgraph_edges"][0])
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--named", "petersen", "--result", str(path))
        assert code == 1
        assert out.startswith("FAIL:") and "listed more than once" in out

    def test_reversed_edges_pass(self, capsys, tmp_path):
        path = self._decompose_to_file(capsys, tmp_path, "petersen", "iii")
        doc = json.loads(path.read_text())
        doc["subgraph_edges"] = [[v, u] for u, v in doc["subgraph_edges"]]
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--named", "petersen", "--result", str(path))
        assert code == 0 and out.startswith("PASS")

    def test_wrong_graph_fails(self, capsys, tmp_path):
        path = self._decompose_to_file(capsys, tmp_path, "petersen", "iii")
        code, out, _ = run_cli(capsys, "verify", "--named", "desargues", "--result", str(path))
        assert code == 1

    def test_zero_denominator_is_parse_error(self, capsys, tmp_path):
        path = self._decompose_to_file(capsys, tmp_path, "petersen", "iii")
        doc = json.loads(path.read_text())
        doc["max_deviation"] = "1/0"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", "--named", "petersen", "--result", str(path))
        assert code == 4
        assert err.startswith("parse error: ")

    def test_non_integer_fields_are_parse_errors(self, capsys, tmp_path):
        # Each value compares equal to the integer it replaces, so only a
        # type check tells this document from the real one.
        path = self._decompose_to_file(capsys, tmp_path, "k4", "ii")
        doc = json.loads(path.read_text())
        doc["n"] = 4.0
        doc["target_profile"][0] = 0.0
        doc["subgraph_edges"] = [[0.0, True]]
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--named", "k4", "--result", str(path))
        assert code == 4 and not out
        assert err.startswith("parse error: ")

    def test_negative_endpoint_not_present(self, capsys, tmp_path):
        path = self._decompose_to_file(capsys, tmp_path, "k4", "ii")
        doc = json.loads(path.read_text())
        assert doc["subgraph_edges"] == [[0, 1]]
        doc["subgraph_edges"] = [[-1, 2]]
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--named", "k4", "--result", str(path))
        assert code == 1
        assert out.startswith("FAIL: subgraph edge not present in host graph")

    def test_statement_relabeled_fails(self, capsys, tmp_path):
        # K4 has no statement-I decomposition; the II document is consistent
        # in itself, so only its target against statement I's tells.
        path = self._decompose_to_file(capsys, tmp_path, "k4", "ii")
        path.write_text(path.read_text().replace('"statement":"II"', '"statement":"I"'))
        code, out, _ = run_cli(capsys, "verify", "--named", "k4", "--result", str(path))
        assert code == 1
        assert out == "FAIL: target is not statement I's (1, 1, 1, 1)\n"

    def test_document_on_a_graph_of_the_wrong_degree_fails(self, capsys, tmp_path):
        # A statement-I document on 4-regular K4,4 that agrees with itself;
        # verify refuses the graph as decompose -s i does.
        host = tmp_path / "k44.txt"
        host.write_text("8 16\n" + "".join(f"{u} {v}\n" for u in range(4) for v in range(4, 8)))
        doc = {
            "input_name": "k44",
            "n": 8,
            "statement": "I",
            "target_profile": [2, 2, 2, 2],
            "achieved_profile": [2, 2, 2, 2],
            "subgraph_edges": [[0, 4], [0, 5], [0, 7], [1, 4], [1, 5], [1, 6]],
            "max_deviation": "8/5",
            "branch_trace": [],
            "fallback_used": False,
        }
        path = tmp_path / "k44-i.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--input", str(host), "--result", str(path))
        assert code == 1 and not out
        assert err == "error: graph is not 3-regular\n"
        assert run_cli(capsys, "decompose", "--input", str(host), "-s", "i") == (1, "", err)

    def test_statement_not_fitting_n_is_parity_mismatch(self, capsys, tmp_path):
        path = self._decompose_to_file(capsys, tmp_path, "petersen", "iv")
        path.write_text(path.read_text().replace('"statement":"IV"', '"statement":"I"'))
        code, out, err = run_cli(capsys, "verify", "--named", "petersen", "--result", str(path))
        assert code == 3 and not out
        assert err.startswith("parity mismatch: ")

    def test_every_decompose_output_verifies(self, capsys, tmp_path):
        # Under BALANCED, and the small base cases read off vertex 0.
        runs = [(name, "balanced") for name in ("k4", "k33", "prism", "cube", "petersen", "heawood")]
        for name, statement in runs + [("prism", "iii"), ("k33", "iv")]:
            code, out, _ = run_cli(capsys, "decompose", "--named", name, "--statement", statement)
            assert code == 0
            path = tmp_path / f"{name}-{statement}.json"
            path.write_text(out)
            code, out, _ = run_cli(capsys, "verify", "--named", name, "--result", str(path))
            assert code == 0, (name, statement, out)
        host = tmp_path / "c345.g6"
        host.write_text(encode_graph6(cycles([3, 4, 5])) + "\n")
        code, out, _ = run_cli(capsys, "decompose", "-i", str(host), "-s", "two-regular")
        assert code == 0
        path = tmp_path / "c345.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "verify", "-i", str(host), "--result", str(path))
        assert code == 0, ("c345", out)

    def test_forged_balanced_document_fails(self, capsys, tmp_path):
        # The empty subgraph of the Petersen graph agrees with itself:
        # target = achieved = (0,0,0,10), deviation 10 - 10/4.  Only the
        # statement's own target tells it from a real BALANCED document.
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(_empty_subgraph_document("petersen", "BALANCED", 10, 3)))
        code, out, _ = run_cli(capsys, "verify", "--named", "petersen", "--result", str(path))
        assert code == 1
        assert out == "FAIL: target is not statement BALANCED's (2, 3, 2, 3)\n"

    def test_forged_two_regular_document_fails(self, capsys, tmp_path):
        host = tmp_path / "c345.g6"
        host.write_text(encode_graph6(cycles([3, 4, 5])) + "\n")
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(_empty_subgraph_document("c345", "TWO_REGULAR", 12, 2)))
        code, out, _ = run_cli(capsys, "verify", "-i", str(host), "--result", str(path))
        assert code == 1
        assert out == "FAIL: target is not statement TWO_REGULAR's (4, 4, 4)\n"


    def test_subgraph_degree_above_document_degree_fails(self, capsys, tmp_path):
        # K5 host, degree-3 document listing every edge: each vertex has
        # subgraph degree 4, which the document's profile has no slot for.
        host = tmp_path / "k5.txt"
        host.write_text("5 10\n" + "".join(f"{u} {v}\n" for u in range(5) for v in range(u + 1, 5)))
        doc = {
            "input_name": "k5",
            "n": 5,
            "statement": "I",
            "target_profile": [1, 1, 1, 2],
            "achieved_profile": [1, 1, 1, 2],
            "subgraph_edges": [[u, v] for u in range(5) for v in range(u + 1, 5)],
            "max_deviation": "3/4",
            "branch_trace": [],
            "fallback_used": False,
        }
        result = tmp_path / "result.json"
        result.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--input", str(host), "--result", str(result))
        assert code == 1
        assert "FAIL: achieved profile mismatch: degree 4: document 0, recomputed 5" in out


class TestOracleCommand:
    def test_k4_full_report(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--named", "k4")
        assert code == 0
        doc = json.loads(out)
        assert doc["achievable_count"] == 11
        assert doc["min_max_deviation"] == "1"

    def test_k33_profile_query(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--named", "k33", "--profile", "1,2,1,2")
        assert code == 0
        assert json.loads(out)["achievable"] is False

    @pytest.mark.parametrize("profile", ["1,2", "1,x", "0,0,2,-2", ""])
    def test_bad_profile_exit_4(self, capsys, profile):
        code, out, err = run_cli(capsys, "oracle", "--named", "k4", "--profile", profile)
        assert code == 4 and not out
        assert "--profile" in err

    @pytest.mark.parametrize("graph", ["k4", "r16"])
    def test_profile_queries_return_the_report_witnesses(self, graph):
        # K4's (0,0,0,4) witness is [], not null.  On r16 (m = 24) the report's
        # dynamic program and the query's search agree on all, (4,4,4,4) too.
        argv, stdin = (("--named", "k4"), "") if graph == "k4" else (("-i", "-"), stdin_text(R16))
        witnesses = json.loads(cli_stdout(("oracle", *argv), stdin)[1])["witnesses"]
        if graph == "k4":
            assert witnesses["0,0,0,4"] == []
        for profile, witness in witnesses.items():
            code, out = cli_stdout(("oracle", *argv, "--profile", profile), stdin)
            doc = json.loads(out)
            assert code == 0 and doc["achievable"] is True, profile
            assert doc["witness"] == witness, profile

    def test_graph_with_no_vertices_profile_query(self):
        # The full report lists [[0]]; the query for (0) agrees.
        code, out = cli_stdout(("oracle", "-i", "-", "--profile", "0"), "0 0\n")
        assert code == 0
        assert json.loads(out) == {
            "input_name": "stdin", "n": 0, "profile": [0], "achievable": True, "witness": [],
        }

    def test_k4_min_deviation(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--named", "k4", "--min-deviation")
        assert json.loads(out)["min_max_deviation"] == "1"

    def test_profile_and_min_deviation_are_a_usage_error_exit_1(self, capsys):
        code, out, err = run_cli(
            capsys, "oracle", "--named", "k4", "--min-deviation", "--profile", "1,1,1,1"
        )
        assert code == 1 and not out
        assert "not allowed with argument" in err

    def test_edge_cap_flag(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--named", "k4", "--edge-cap", "3")
        assert code == 1
        assert "cap" in err

    def test_bad_edge_cap_is_usage_error_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--named", "k4", "--edge-cap", "x")
        assert code == 1 and not out
        assert "--edge-cap" in err


class TestGenCommand:
    def test_named(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--named", "k4")
        assert code == 0 and out.strip() == "C~"

    def test_union(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--union", "k4,k4,k4")
        g = parse_graph6(out.strip())
        assert g.n == 12
        assert g.edges == disjoint_union([named("K4")] * 3).edges

    def test_cycles(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--cycles", "3,4")
        assert parse_graph6(out.strip()).n == 7

    @pytest.mark.parametrize("lengths, field", [("", "''"), ("3,x", "'x'"), ("3,,4", "''")])
    def test_bad_cycle_length_is_parse_error_exit_4(self, capsys, lengths, field):
        code, out, err = run_cli(capsys, "gen", "--cycles", lengths)
        assert code == 4 and out == ""
        assert err == f"parse error: --cycles needs integer lengths, got field {field}\n"

    def test_random_deterministic(self, capsys):
        code, out1, _ = run_cli(capsys, "gen", "--random", "12", "--count", "3", "--seed", "5")
        code, out2, _ = run_cli(capsys, "gen", "--random", "12", "--count", "3", "--seed", "5")
        assert out1 == out2
        assert len(out1.strip().splitlines()) == 3

    def test_random_connected_filter(self, capsys):
        from degbal.graphs import connected_components

        code, out, _ = run_cli(
            capsys, "gen", "--random", "10", "--count", "5", "--seed", "0", "--connected"
        )
        for line in out.strip().splitlines():
            assert len(connected_components(parse_graph6(line))) == 1

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_random_count_below_one_rejected(self, capsys, count):
        code, out, err = run_cli(capsys, "gen", "--random", "8", "--count", count)
        assert code == 1
        assert "count must be >= 1" in err
        assert out == ""

    @pytest.mark.parametrize(
        "order, err",
        [("258046", "drawn"), ("258047", "order must be an even integer >= 4, got 258047"),
         ("258048", "n=258048 exceeds graph6 3-byte form"),
         ("100000000000000000000", "n=100000000000000000000 exceeds graph6 3-byte form")],
    )
    def test_random_order_graph6_cannot_hold_is_refused_before_the_draw(
        self, capsys, monkeypatch, order, err
    ):
        def draw(n, seed):
            if n % 2:
                return random_cubic(n, seed)  # refuses an odd order without drawing
            raise DegbalError("drawn")

        monkeypatch.setattr("degbal.gen.random_cubic", draw)
        code, out, stderr = run_cli(capsys, "gen", "--random", order)
        assert code == 1 and out == ""
        assert stderr == f"error: {err}\n"

    @pytest.mark.parametrize(
        "argv, code, err",
        [(("--cycles", "258047"), 1, "error: built"),
         (("--cycles", "3,3,258042"), 1, "error: n=258048 exceeds graph6 3-byte form"),
         (("--cycles", "3000000"), 1, "error: n=3000000 exceeds graph6 3-byte form"),
         (("--cycles", "3000000,2"), 1, "error: cycle length 2 < 3"),
         (("--cycles", "3000000,x"), 4,
          "parse error: --cycles needs integer lengths, got field 'x'"),
         (("--union", "k4,petersen"), 1, "error: built"),
         (("--union", ",".join(["DESARGUES"] * 12903)), 1,
          "error: n=258060 exceeds graph6 3-byte form"),
         (("--union", ",".join(["K4"] * 64512 + ["K5"])), 1,
          f"error: unknown graph 'K5'; catalog: {', '.join(CATALOG_NAMES)}")],
        ids=["cycles-258047", "cycles-258048", "cycles-3M", "cycles-short", "cycles-field",
             "union-small", "union-258060", "union-unknown"],
    )
    def test_cycles_or_union_graph6_cannot_hold_is_refused_before_the_build(
        self, capsys, monkeypatch, argv, code, err
    ):
        def ring(lengths):
            if min(lengths) < 3:
                return cycles(lengths)  # refuses a short length without building
            raise DegbalError("built")

        def union(parts):
            raise DegbalError("built")

        monkeypatch.setattr("degbal.gen.cycles", ring)
        monkeypatch.setattr("degbal.gen.disjoint_union", union)
        monkeypatch.setattr("degbal.gen.named", functools.cache(named))  # 64,513 names, 9 built
        got, out, stderr = run_cli(capsys, "gen", *argv)
        assert got == code and out == ""
        assert stderr == f"{err}\n"

    @pytest.mark.parametrize(
        "argv",
        [("--named", "k4", "--random", "8"), ("--random", "8", "--count", "2", "--cycles", "3,4")],
        ids=["named-and-random", "random-and-cycles"],
    )
    def test_second_source_is_usage_error_exit_1(self, capsys, argv):
        code, out, err = run_cli(capsys, "gen", *argv)
        assert code == 1 and out == ""
        assert "not allowed with argument" in err

    def test_no_source_is_usage_error_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--count", "2")
        assert code == 1 and out == ""
        assert "one of the arguments --named --random --cycles --union is required" in err


class TestBatchCommand:
    def _write_corpus(self, tmp_path):
        path = tmp_path / "corpus.g6"
        lines = [
            encode_graph6(named("K4")),
            encode_graph6(named("CUBE")),
            encode_graph6(named("PETERSEN")),
            encode_graph6(disjoint_union([named("K4")] * 2)),
        ]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_rows_and_summary(self, capsys, tmp_path):
        path = self._write_corpus(tmp_path)
        code, out, _ = run_cli(capsys, "batch", "--input", str(path), "--statement", "balanced")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("name\t")
        assert len(lines) == 6  # header + 4 rows + summary
        assert lines[-1].startswith("# total=4 ok=4")

    def test_exception_flagged_not_failed(self, capsys, tmp_path):
        path = tmp_path / "corpus.g6"
        path.write_text(encode_graph6(named("K4")) + "\n" + encode_graph6(named("CUBE")) + "\n")
        code, out, _ = run_cli(capsys, "batch", "--input", str(path), "--statement", "i")
        assert code == 0  # exceptions are not failures
        assert "exception:K4_I" in out
        assert "failures=0" in out

    def test_jobs_zero_rejected(self, capsys, tmp_path):
        path = self._write_corpus(tmp_path)
        code, out, err = run_cli(capsys, "batch", "--input", str(path), "--jobs", "0")
        assert code == 1
        assert "jobs must be >= 1" in err
        assert out == ""

    def test_jobs_independent_output(self, capsys, tmp_path):
        path = self._write_corpus(tmp_path)
        _, out1, _ = run_cli(
            capsys, "batch", "--input", str(path), "--no-timing", "--jobs", "1"
        )
        _, out2, _ = run_cli(
            capsys, "batch", "--input", str(path), "--no-timing", "--jobs", "3"
        )
        assert out1 == out2

    @pytest.mark.parametrize(
        "records, cpus, want",
        [(2, 64, 2), (6, 3, 3), (6, None, None), (6, 1, None), (1, 64, None)],
    )
    def test_pool_capped_by_tasks_and_cpus(
        self, capsys, tmp_path, monkeypatch, records, cpus, want
    ):
        # -j 5000 must not ask for 5000 workers; a cap of 1 runs serially.
        import degbal.cli as cli_mod

        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)  # imported lazily
        monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: cpus)
        path = tmp_path / "corpus.g6"
        path.write_text((encode_graph6(named("PETERSEN")) + "\n") * records)
        code, out, _ = run_cli(capsys, "batch", "--input", str(path), "--no-timing", "-j", "5000")
        assert code == 0
        assert out.splitlines()[-1].startswith(f"# total={records} ok={records}")
        assert pools == ([] if want is None else [want])

    def test_each_record_parsed_once(self, capsys, tmp_path, monkeypatch):
        import degbal.cli as cli_mod

        calls = []

        def counting_parse(line):
            calls.append(line)
            return parse_graph6(line)

        monkeypatch.setattr(cli_mod, "parse_graph6", counting_parse)
        path = self._write_corpus(tmp_path)
        code, out, _ = run_cli(capsys, "batch", "--input", str(path), "--jobs", "1")
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("# total=4 ok=4")
        assert calls == path.read_text().splitlines()

    def test_malformed_line_aborts_with_lineno(self, capsys, tmp_path):
        path = tmp_path / "corpus.g6"
        path.write_text("C~\nC\x05\n")
        code, _, err = run_cli(capsys, "batch", "--input", str(path))
        assert code == 4
        assert err.startswith(f"parse error: {path}:2: ")

    def test_edge_list_input_one_row(self, capsys, tmp_path):
        path = tmp_path / "k4.txt"
        path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        code, out, _ = run_cli(capsys, "batch", "--input", str(path), "-s", "ii", "--no-timing")
        assert code == 0
        assert out.splitlines()[1:] == [
            f"{path}\t4\tii\tok\t1\tfalse\t-",
            "# total=1 ok=1 exceptions=0 parity-skipped=0 failures=0",
        ]

    @pytest.mark.parametrize("command", ["batch", "decompose"])
    def test_empty_input_exit_4(self, capsys, tmp_path, monkeypatch, command):
        path = tmp_path / "empty.g6"
        path.write_text("\n  \n")
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        for source in (str(path), "-"):
            code, out, err = run_cli(capsys, command, "--input", source)
            assert (code, out) == (4, "")
            assert "parse error: empty input" in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_every_outcome_kind_counted(self, capsys, tmp_path, jobs):
        # Under statement I: an exception graph, a decomposition, a parity
        # refusal (n = 10 is not 4t) and a 2-regular graph, which fails.
        path = tmp_path / "mixed.g6"
        graphs = [named("K4"), named("CUBE"), named("PETERSEN"), cycles([4])]
        path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
        code, out, err = run_cli(
            capsys, "batch", "-i", str(path), "-s", "i", "--no-timing", "--jobs", jobs
        )
        assert code == 1 and err == ""
        assert out == (
            "name\tn\tstatement\tstatus\tdeviation\tfallback_used\tms\n"
            f"{path}:1\t4\ti\texception:K4_I\t-\t-\t-\n"
            f"{path}:2\t8\ti\tok\t0\tfalse\t-\n"
            f"{path}:3\t10\ti\tparity-mismatch\t-\t-\t-\n"
            f"{path}:4\t4\ti\tfailed:NotRegular\t-\t-\t-\n"
            "# total=4 ok=1 exceptions=1 parity-skipped=1 failures=1\n"
        )


UNKNOWN_NOSUCH = (
    "error: unknown graph 'nosuch'; catalog: K4, K33, PRISM, CUBE, PETERSEN, HEAWOOD, PAPPUS,"
    " DESARGUES, MOEBIUS_KANTOR\n"
)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("gen", "--random", "8", "--count", "0"), "error: count must be >= 1\n"),
        (("batch", "-i", "{path}", "--jobs", "0"), "error: jobs must be >= 1\n"),
        (
            ("batch", "-i", "{path}", "-s", "bogus"),
            "error: statement must be i/ii/iii/iv/balanced/two-regular, got 'bogus'\n",
        ),
        (("oracle", "-i", "{pair}"), "error: oracle expects exactly one graph\n"),
        (("verify", "-i", "{pair}", "-r", "{path}"), "error: verify expects exactly one graph\n"),
        (("gen", "--named", "nosuch"), UNKNOWN_NOSUCH),
        (("decompose", "--named", "nosuch"), UNKNOWN_NOSUCH),
        (("gen", "--cycles", "2,3"), "error: cycle length 2 < 3\n"),
        (("gen", "--random", "7"), "error: order must be an even integer >= 4, got 7\n"),
    ],
    ids=["gen-count-0", "batch-jobs-0", "batch-bogus-statement", "oracle-two-graphs",
         "verify-two-graphs", "gen-unknown-name", "decompose-unknown-name",
         "gen-cycle-too-short", "gen-odd-order"],
)
def test_usage_error_is_one_stderr_line_exit_1(capsys, tmp_path, argv, message):
    path, pair = tmp_path / "k4.g6", tmp_path / "pair.g6"
    path.write_text(encode_graph6(named("K4")) + "\n")
    pair.write_text(2 * path.read_text())
    code, out, err = run_cli(capsys, *(arg.format(path=path, pair=pair) for arg in argv))
    assert (code, out, err) == (1, "", message)


def test_graph6_order_past_the_long_form_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "huge.g6"
    path.write_text("~~??????\n")
    assert run_cli(capsys, "decompose", "-i", str(path)) == (
        4, "", f"parse error: {path}:1: 8-byte graph6 order prefix (n > 258047)\n"
    )


# SHA-256 of `batch --no-timing` stdout over every fixture corpus in name
# order, each fed on stdin so row names read `stdin:N` wherever the
# checkout lives.  Pinned before the CLI read every input through one loader.
BATCH_SHA256 = {
    "balanced": "fb9d6ea56ce6d8c924b06a1adb8e3b73a756fa99dbc8bbf55d1dcd037cd135ee",
    "i": "b0b791d1ca9b1d5d21e904f37d559955ff7c493dd2aae0b7d7e6ac7e90400839",
    "ii": "7ed24103e6a207363fa64c238c36fc00414f481dc48ddb8be0baa327fceacf39",
    "iii": "79ad1e73c012201b056ade0ac39223db2cd76596a531200269d10c1e4bb0ec9c",
    "iv": "658cbc6d3dc83e4037638f54a85d5a043c20cd2c4738d6e95403173a74ca6f08",
}


@pytest.mark.parametrize("statement", sorted(BATCH_SHA256))
def test_batch_output_digest(statement):
    digest = hashlib.sha256()
    for path in sorted(FIXTURES.glob("*.g6")):
        code, out = cli_stdout(("batch", "-i", "-", "-s", statement, "--no-timing"), path.read_text())
        assert code == 0, path.name
        digest.update(f"{path.name}\n{out}".encode("ascii"))
    assert digest.hexdigest() == BATCH_SHA256[statement]


@functools.cache
def stdin_text(source):
    """A CLI_PINS row's stdin: a literal text, or the stdout of a gen argv."""
    return source if isinstance(source, str) else cli_stdout(source)[1]


R3002 = ("gen", "--random", "3002", "--seed", "7")
R3000 = ("gen", "--random", "3000", "--seed", "7", "--connected")
R16 = ("gen", "--random", "16", "--seed", "1", "--connected")
CASE1 = ("gen", "--union", ",".join(["petersen"] * 60 + ["prism"] * 40))
CASE2 = ("gen", "--union", ",".join(["k4"] * 31 + ["k33"] * 20))
DECOMPOSE = ("decompose", "-i", "-", "-s")

# SHA-256 of main's stdout, the same on every Python: (argv, stdin source,
# digest).  Documents read stdin, since input_name holds an input's path.
CLI_PINS = {
    # random_cubic's packed splitmix64 kernel matches the scalar stream.
    "gen-r3002": (R3002, "", "abde8bbe95193023be90221e39dc3a957cb3882e3c48a12192aaa03cb7ae3687"),
    "gen-r8x50": (("gen", "--random", "8", "--count", "50", "--seed", "0"), "",
                  "2c16ce4426daed6692d09828feea479d5208916a7ae1f8f55f04a54f76c31858"),
    # The connected path (seed cycle, stages 1-3, render): BALANCED and
    # IV at n = 3002, and BALANCED (statement I) and II at n = 3000 = 4t.
    "r3002-balanced": ((*DECOMPOSE, "balanced"), R3002,
                       "20c6b9cf64349ca4b24972f79d1ce57beebdc502e1e7564a716bc923c2fac3a7"),
    "r3002-iv": ((*DECOMPOSE, "iv"), R3002,
                 "8f5d24766ce4da40f96f26fe294c7bcb5a1c523de7f80bbc186376d10f2a063b"),
    "r3000-balanced": ((*DECOMPOSE, "balanced"), R3000,
                       "7039a88783e6566f89103003f46dae20061bcd37a06e0cb5c08670253e6c3ef7"),
    "r3000-ii": ((*DECOMPOSE, "ii"), R3000,
                 "25fdcce0abb0d3dd96bd588ec208aec591e5ef18db81b5c32a7ba2ec08520cd7"),
    # Many components: case 1's peel order (60 Petersen + 40 prism) and
    # case 2's K4/K3,3 tables (31 K4 + 20 K3,3).
    "case1-balanced": ((*DECOMPOSE, "balanced"), CASE1,
                       "b7f928483bd4fa3fddbbd84f9f303e03362d03e452bf3e236f9118e3b9ab46a1"),
    "case1-ii": ((*DECOMPOSE, "ii"), CASE1,
                 "8c43b824ebb38b1376c648f34482081f464ed6343257a9890bf378188a0f17f4"),
    "case2-balanced": ((*DECOMPOSE, "balanced"), CASE2,
                       "8591f89d4b3668c2cef6974e154e9700c5235f8dd639a5709403978978c20db5"),
    "case2-ii": ((*DECOMPOSE, "ii"), CASE2,
                 "2abc851f39fdab823d248a646af1f4084733b09291abfdd98e732f9b9112044c"),
    # TWO_REGULAR: twelve triangles (full cycles), and three triangles with
    # a C31 (a host with four paths).
    "c3x12-two-regular": ((*DECOMPOSE, "two-regular"), ("gen", "--cycles", ",".join(["3"] * 12)),
                          "dba6d97fd0aa998ad3f92e210d0f74b9675854b6f24116a4f24a24aa14475d04"),
    "c3x3+c31-two-regular": ((*DECOMPOSE, "two-regular"), ("gen", "--cycles", "3,3,3,31"),
                             "cbf0c33aaf047588e50f4f6db26587ee91ebb6d87beda161eee69d734af16871"),
    # Oracle reports: r16 (m = 24), and the d = 4 circulant C13(1,5)
    # (m = 26), whose groups meet in frames that differ in both directions.
    "r16-oracle": (("oracle", "-i", "-"), R16,
                   "77c0cf17f51e80fac2f6961776f7ec67038c52b8b130d07b63dcc9da2d054753"),
    "c13-oracle": (("oracle", "-i", "-"), "LhEIHEPQHGaPaP\n",
                   "c443616e4f8c3245feda65c0c8a2c3536ba72de277157b947dbffbbcc27eae42"),
    "heawood-oracle": (("oracle", "--named", "heawood"), "",
                       "b75522547e05af9a65238ae877abdc42bfd2e7e192593475ce60475632316e7e"),
    # Single-profile queries: r16's balanced profile, which it has, and a
    # near-balanced profile C13(1,5) lacks, whose search runs to the end.
    "r16-profile": (("oracle", "-i", "-", "--profile", "4,4,4,4"), R16,
                    "f30576747fb307c731027601a4df3c662f340f91489ec66f202595139d00a461"),
    "c13-profile-none": (("oracle", "-i", "-", "--profile", "3,2,2,2,4"), "LhEIHEPQHGaPaP\n",
                         "7358a65112e7984e708b051b8b73332fe70b39973e724e868defb5c603f6a63e"),
}
DECOMPOSE_ROWS = [row for row, (argv, _, _) in CLI_PINS.items() if argv[0] == "decompose"]


@pytest.mark.parametrize("row", list(CLI_PINS))
def test_cli_output_digest(tmp_path, row):
    argv, source, want = CLI_PINS[row]
    code, out = cli_stdout(argv, stdin_text(source))
    got = hashlib.sha256(out.encode("ascii")).hexdigest()
    assert (code, got) == (0, want), f"{row}: sha256 {got}"
    if row in DECOMPOSE_ROWS:
        path = tmp_path / "result.json"
        path.write_text(out)
        code, report = cli_stdout(("verify", "-i", "-", "-r", str(path)), stdin_text(source))
        assert code == 0 and report.startswith("PASS"), (row, report)


# Case 1's digests before the branch label became cycle=<L>.  Every Petersen
# component is staged, so each document carries the label 60 times; with
# girth= written back the documents hash as they did, so no subset moved.
CASE1_GIRTH_LABEL_SHA256 = {
    "case1-balanced": "73d81ee5b07404fe996aeaa679b3607d98e3033da4abe9a6d51f150b0ac8bc7f",
    "case1-ii": "880ad0f811d1e266aa6af972b38385f348e6a123606e9fc42765ef905ebdeb12",
}


@pytest.mark.parametrize("row", sorted(CASE1_GIRTH_LABEL_SHA256))
def test_case1_documents_moved_by_the_label_alone(row):
    argv, source, _ = CLI_PINS[row]
    code, out = cli_stdout(argv, stdin_text(source))
    assert code == 0 and out.count(":cycle=") == 60
    old = out.replace(":cycle=", ":girth=").encode("ascii")
    assert hashlib.sha256(old).hexdigest() == CASE1_GIRTH_LABEL_SHA256[row]


# One parsed Graph decomposed under several statements in turn keeps its
# component split, and each document its row's bytes.
SAME_GRAPH = (("r3000-balanced", "r3000-ii", "r3000-balanced"), ("r3002-balanced", "r3002-iv"))


def decompose_digests():
    """[row, sha256] for each decompose row through main, then for each SAME_GRAPH
    row on one parsed Graph.  tests/test_golden.py runs it with and without -O."""
    texts = [(row, cli_stdout(CLI_PINS[row][0], stdin_text(CLI_PINS[row][1]))[1])
             for row in DECOMPOSE_ROWS]
    for rows in SAME_GRAPH:
        g = parse_graph6(stdin_text(CLI_PINS[rows[0]][1]).strip())
        for row in rows:
            doc = _document("stdin:1", g, decompose(g, CLI_PINS[row][0][-1].upper()))
            texts.append((row, render_result(doc) + "\n"))
    return [[row, hashlib.sha256(text.encode("ascii")).hexdigest()] for row, text in texts]


class TestBatchCorpus:
    def _catalog_corpus(self, tmp_path):
        lines = []
        for n in (4, 6, 8, 10):
            lines.extend(
                (FIXTURES / f"connected_cubic_{n:02d}.g6").read_text().splitlines()
            )
        path = tmp_path / "catalogs.g6"
        path.write_text("\n".join(lines) + "\n")
        return path, len(lines)

    @pytest.mark.parametrize("statement", ["i", "ii", "iii", "iv"])
    def test_catalog_statements_no_failures_no_fallbacks(self, capsys, tmp_path, statement):
        path, total = self._catalog_corpus(tmp_path)
        code, out, _ = run_cli(capsys, "batch", "--input", str(path), "--statement", statement)
        assert code == 0
        rows = [ln.split("\t") for ln in out.strip().splitlines()[1:-1]]
        for row in rows:
            status, fallback = row[3], row[5]
            assert not status.startswith("failed"), row
            if status == "ok":
                assert fallback == "false", row
            else:
                # only parity skips and the two single-graph exceptions
                assert status in ("parity-mismatch", "exception:K4_I", "exception:K33_III"), row
        assert "failures=0" in out.strip().splitlines()[-1]

    def test_random_20_decompose_then_verify(self, capsys, tmp_path):
        for seed in range(20):
            g = random_cubic(20, seed)
            path = tmp_path / "g.g6"
            path.write_text(encode_graph6(g) + "\n")
            for statement in ("i", "ii"):
                code, out, _ = run_cli(
                    capsys, "decompose", "--input", str(path), "--statement", statement
                )
                if code == 2:  # random multiple of K4 components; legal
                    continue
                assert code == 0
                result = tmp_path / "res.json"
                result.write_text(out)
                code, out, _ = run_cli(
                    capsys, "verify", "--input", str(path), "--result", str(result)
                )
                assert code == 0, out


class TestParsePaths:
    """main parses an argv whose first word is a command with that command's
    subparser alone, and any other argv with the full parser; both must read
    every argv alike, or fail with the same exit code and the same text."""

    # Each command's options with values to draw: a value of None marks a
    # flag; each value list holds a bad one where the option has a type.
    OPTIONS = {
        "decompose": {"--input": ["-", "g.g6"], "--named": ["k4", "petersen"],
                      "--statement": ["ii", "Two_Regular", "bogus"], "--format": ["tsv", "xml"]},
        "verify": {"--input": ["-"], "--named": ["k4"], "--result": ["r.json"]},
        "oracle": {"--input": ["-"], "--named": ["k33"], "--profile": ["1,2,1,2"],
                   "--min-deviation": None, "--edge-cap": ["12", "x"]},
        "gen": {"--named": ["k4"], "--random": ["8", "x"], "--cycles": ["3,3"], "--union": ["k4,k33"],
                "--count": ["2"], "--seed": ["-1", "3"], "--connected": None},
        "batch": {"--input": ["-"], "--statement": ["ii", "bogus"], "--jobs": ["2", "0"],
                  "--no-timing": None},
    }
    SHORT = {"--input": "-i", "--statement": "-s", "--format": "-f", "--result": "-r", "--jobs": "-j"}
    STRAYS = ["-h", "--help", "--", "--bogus", "-z", "extra", "-1", "decompose", "--inp", "--n"]

    TABLE = [
        [], ["-h"], ["--help"], ["--he"], ["bogus"], ["bogus", "-i", "-"], ["--bogus", "decompose"],
        ["-i", "-", "decompose"], ["decompose"], ["decompose", "-h"], ["gen", "--help"],
        ["decompose", "--inp", "-"], ["decompose", "--stat", "ii", "--inp", "-"],
        ["decompose", "--stat=ii", "-sIII", "-i-"], ["decompose", "--n", "k4"],
        ["decompose", "-i", "-", "extra"], ["decompose", "--named", "k4", "--bogus"],
        ["decompose", "--bogus", "-s", "bogus"], ["decompose", "-i", "-", "--", "-i"],
        ["decompose", "-s", "bogus"], ["batch", "-i", "-", "-s", "bogus"], ["batch", "--no", "-i", "-"],
        ["oracle", "--named", "k4", "--profile", "1,2,1,2", "--min-deviation"],
        ["oracle", "--min", "--prof", "1,1,1,1"], ["oracle", "--edge-cap", "x"],
        ["verify", "-i", "-"], ["gen"], ["gen", "--random", "8", "--named", "k4"],
        ["gen", "--seed", "-1", "--random", "8"], ["gen", "--random", "8", "decompose"],
    ]

    @classmethod
    def random_argv(cls, rng):
        command = rng.choice(list(cls.OPTIONS))
        argv = [command]
        for option in rng.sample(list(cls.OPTIONS[command]), rng.randint(0, 3)):
            values = cls.OPTIONS[command][option]
            spelling = rng.choice([option, option[:rng.randint(3, len(option))],
                                   cls.SHORT.get(option, option)])
            if values is None:
                argv.append(spelling)
            elif rng.random() < 0.2 and spelling.startswith("--"):
                argv.append(f"{spelling}={rng.choice(values)}")
            else:
                argv += [spelling, rng.choice(values)]
        for _ in range(rng.choice([0, 0, 0, 1, 2])):  # a stray word, or a word lost
            if rng.random() < 0.7:
                argv.insert(rng.randint(1, len(argv)), rng.choice(cls.STRAYS))
            elif len(argv) > 1:
                del argv[rng.randrange(1, len(argv))]
        if rng.random() < 0.1:
            argv[0] = rng.choice(["bogus", "-h", "--named", "Decompose"])
        return argv

    @staticmethod
    def outcome(parse, argv):
        """vars() of the parse, or the exit code; with whatever it printed."""
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                result = vars(parse(list(argv)))
            except SystemExit as exc:
                result = exc.code
        return result, out.getvalue(), err.getvalue()

    def assert_same(self, argv):
        got = self.outcome(cli._parse_args, argv)
        assert got == self.outcome(cli._PARSER.parse_args, argv), argv
        return got

    @pytest.mark.parametrize("argv", TABLE, ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_table_parses_alike(self, argv):
        self.assert_same(argv)

    def test_random_argvs_parse_alike(self):
        rng = random.Random(45)
        parsed = sum(isinstance(self.assert_same(self.random_argv(rng))[0], dict)
                     for _ in range(600))
        assert parsed >= 100  # the draw reaches the one-pass path, not only usage errors

    def test_well_formed_argvs_skip_the_full_parser(self, capsys, monkeypatch, tmp_path):
        class FullParse(Exception):
            pass

        def refuse(*args, **kwargs):
            raise FullParse

        monkeypatch.setattr(cli._PARSER, "parse_args", refuse)
        k4 = tmp_path / "k4.g6"
        k4.write_text(encode_graph6(named("K4")) + "\n")
        code, out = cli_stdout(("decompose", "--input", "-"), k4.read_text())
        assert code == 0
        result = tmp_path / "r.json"
        result.write_text(out)
        for argv in (["verify", "-i", str(k4), "-r", str(result)], ["oracle", "--named", "k4"],
                     ["gen", "--named", "k4"], ["batch", "-i", str(k4), "--no-timing"]):
            assert run_cli(capsys, *argv)[0] == 0, argv
        with pytest.raises(FullParse):
            main(["decompose", "--bogus"])


class TestEntryPoint:
    def test_only_a_pool_imports_multiprocessing(self):
        code = (
            "import sys\n"
            "from degbal.cli import main\n"
            "assert main(['decompose', '--named', 'petersen']) == 0\n"
            "assert main(['gen', '--random', '8']) == 0\n"
            "assert 'multiprocessing' not in sys.modules, 'multiprocessing was imported'\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_parser_built_once(self, capsys, monkeypatch):
        import degbal.cli as cli_mod

        def refuse():
            raise AssertionError("parser rebuilt")

        monkeypatch.setattr(cli_mod, "build_parser", refuse)
        for _ in range(2):
            code, out, _ = run_cli(capsys, "decompose", "--named", "k4")
            assert code == 0 and json.loads(out)["max_deviation"] == "1"

    @pytest.mark.parametrize("argv", [["--help"], ["decompose", "--help"]])
    def test_help_exit_0(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.startswith("usage:")

    def test_installed_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "degbal.cli", "decompose", "--named", "k4", "--statement", "balanced"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["max_deviation"] == "1"

    def test_stdin_input(self):
        proc = subprocess.run(
            [sys.executable, "-m", "degbal.cli", "decompose", "--input", "-", "--statement", "i"],
            input=encode_graph6(named("CUBE")) + "\n",
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["achieved_profile"] == [2, 2, 2, 2]

    def test_corpus_fixture_batch(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "degbal.cli", "batch",
                "--input", str(FIXTURES / "named_catalog.g6"),
                "--statement", "balanced", "--no-timing",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "failures=0" in proc.stdout


class TestFuzz:
    """Seeded byte mutations of the named catalog's graph6 lines and of one
    edge list, read from stdin by four commands: each exits 0-4, and no
    exception escapes main."""

    COMMANDS = (
        ["decompose"],
        ["decompose", "-s", "two-regular"],
        ["oracle", "--min-deviation"],
        ["batch"],
    )

    @staticmethod
    def mutate(rng, data):
        # At most three one-byte edits keep a header's n below 10^5.
        data = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            i, op = rng.randrange(len(data) + 1), rng.randrange(4)
            if op == 0:
                data.insert(i, rng.choice(b"0123456789 \n-+_?~") if rng.random() < 0.5
                            else rng.randrange(256))
            elif op == 1:
                del data[i:i + rng.randint(1, 4)]
            elif i < len(data):
                if op == 2:  # a digit stays a digit, a graph6 byte a graph6 byte
                    c = data[i]
                    data[i] = (rng.randrange(48, 58) if 48 <= c < 58 else
                               rng.randrange(63, 127) if 63 <= c < 127 else rng.randrange(256))
                else:
                    data[i - 1:i + 1] = data[i - 1:i + 1][::-1]
        return bytes(data)

    def test_mutated_inputs_exit_0_to_4(self, monkeypatch):
        lines = (FIXTURES / "named_catalog.g6").read_bytes().splitlines()
        petersen = named("PETERSEN")
        edge_list = "".join(f"{u} {v}\n" for u, v in petersen.edges)
        edge_list = f"{petersen.n} {petersen.m}\n{edge_list}".encode()
        rng = random.Random(20240601)
        for case in range(1000):
            data = self.mutate(rng, edge_list if case % 2 else rng.choice(lines))
            for command in self.COMMANDS:
                monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()) as err:
                    code = main([*command, "-i", "-"])
                assert 0 <= code <= 4, (data, command, err.getvalue())
