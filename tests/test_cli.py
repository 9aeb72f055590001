import hashlib
import io
import json
import subprocess
import sys

import pytest

from degbal.cli import main
from degbal.formats import encode_graph6, parse_graph6
from degbal.gen import disjoint_union, named

from conftest import FIXTURES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecomposeCommand:
    def test_petersen_balanced(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--named", "petersen", "--statement", "balanced")
        assert code == 0
        doc = json.loads(out)
        assert doc["max_deviation"] == "1/2"
        assert doc["statement"] == "BALANCED"

    def test_k33_iii_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "--named", "k33", "--statement", "iii")
        assert code == 2
        assert "K33_III" in err

    def test_prism_iii_profile(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--named", "prism", "--statement", "iii")
        assert code == 0
        assert json.loads(out)["achieved_profile"] == [1, 2, 1, 2]

    def test_parity_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "--named", "cube", "--statement", "iii")
        assert code == 3

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

    def test_every_decompose_output_verifies(self, capsys, tmp_path):
        for name in ("k4", "k33", "prism", "cube", "petersen", "heawood"):
            code, out, _ = run_cli(capsys, "decompose", "--named", name, "--statement", "balanced")
            assert code == 0
            path = tmp_path / f"{name}.json"
            path.write_text(out)
            code, out, _ = run_cli(capsys, "verify", "--named", name, "--result", str(path))
            assert code == 0, (name, out)


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

    @pytest.mark.parametrize("profile", ["1,2", "1,x", "0,0,2,-2"])
    def test_bad_profile_exit_4(self, capsys, profile):
        code, out, err = run_cli(capsys, "oracle", "--named", "k4", "--profile", profile)
        assert code == 4 and not out
        assert "--profile" in err

    def test_k4_min_deviation(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--named", "k4", "--min-deviation")
        assert json.loads(out)["min_max_deviation"] == "1"

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

    def test_empty_input_exit_4(self, capsys, tmp_path):
        path = tmp_path / "empty.g6"
        path.write_text("\n  \n")
        code, out, err = run_cli(capsys, "batch", "--input", str(path))
        assert code == 4
        assert out == ""
        assert "parse error: empty input" in err


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
def test_batch_output_digest(capsys, monkeypatch, statement):
    digest = hashlib.sha256()
    for path in sorted(FIXTURES.glob("*.g6")):
        monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
        code, out, _ = run_cli(capsys, "batch", "-i", "-", "-s", statement, "--no-timing")
        assert code == 0, path.name
        digest.update(f"{path.name}\n{out}".encode("ascii"))
    assert digest.hexdigest() == BATCH_SHA256[statement]


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
        from degbal.gen import random_cubic

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


class TestEntryPoint:
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
