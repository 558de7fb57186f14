import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leavitt
from leavitt.cli import main
from leavitt.graphs import rose

from conftest import infinite_order_graph


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def run_module(*argv, text=True):
    """``python -m leavitt`` in a child that imports the package under test."""
    src = str(Path(leavitt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "leavitt", *argv],
        capture_output=True,
        text=text,
        env={**os.environ, "PYTHONPATH": path},
    )


def write_graph(tmp_path, name, graph):
    path = tmp_path / name
    path.write_text(graph.to_json() + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def rose5(tmp_path):
    return write_graph(tmp_path, "rose5.json", rose(5))


@pytest.fixture
def rose1(tmp_path):
    return write_graph(tmp_path, "rose1.json", rose(1))


@pytest.fixture
def einf_file(tmp_path):
    return write_graph(tmp_path, "einf.json", infinite_order_graph())


class TestAnalyze:
    def test_rose5(self, capsys, rose5):
        code, out = run_cli(capsys, ["analyze", "--graph", rose5])
        assert code == 0
        doc = json.loads(out)
        assert doc["unit_order"] == 4
        assert doc["invariant_factors"] == [4]
        assert doc["free_rank"] == 0
        assert doc["pis"]["purely_infinite_simple"] is True

    def test_rose5_readme_bytes(self, capsys, rose5):
        # README shows this line with "pis" elided; the rest is verbatim
        code, out = run_cli(capsys, ["analyze", "--graph", rose5])
        assert code == 0
        assert out == (
            '{"pis": {"every_cycle_has_exit": true, "trivial_hereditary_saturated": true, '
            '"every_vertex_connects_to_cycle": true, "purely_infinite_simple": true}, '
            '"invariant_factors": [4], "free_rank": 0, "unit_coords": [3], "unit_order": 4}\n'
        )

    def test_infinite(self, capsys, einf_file):
        code, out = run_cli(capsys, ["analyze", "--graph", einf_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["unit_order"] == "infinite"
        assert doc["free_rank"] == 1

    def test_non_pis_still_reports(self, capsys, rose1):
        code, out = run_cli(capsys, ["analyze", "--graph", rose1])
        assert code == 0
        assert json.loads(out)["pis"]["purely_infinite_simple"] is False

    def test_stdin(self, capsys, monkeypatch):
        code, out = run_cli(
            capsys,
            ["analyze", "--graph", "-"],
            stdin=rose(5).to_json(),
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["unit_order"] == 4

    def test_determinism(self, capsys, rose5):
        _, first = run_cli(capsys, ["analyze", "--graph", rose5])
        _, second = run_cli(capsys, ["analyze", "--graph", rose5])
        assert first == second


class TestMatrixType:
    def test_equal_sizes(self, capsys, rose5):
        code, out = run_cli(
            capsys, ["matrix-type", "--graph", rose5, "--c", "2", "--d", "6"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {"verdict": True, "regime": "finite", "n": 4}

    def test_unequal_sizes(self, capsys, rose5):
        code, out = run_cli(
            capsys, ["matrix-type", "--graph", rose5, "--c", "2", "--d", "4"]
        )
        assert code == 0
        assert json.loads(out)["verdict"] is False

    def test_infinite_regime(self, capsys, einf_file):
        code, out = run_cli(
            capsys, ["matrix-type", "--graph", einf_file, "--c", "3", "--d", "5"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {"verdict": False, "regime": "infinite", "n": None}

    def test_hypothesis_failure_exit_3(self, capsys, rose1):
        code, out = run_cli(
            capsys, ["matrix-type", "--graph", rose1, "--c", "1", "--d", "1"]
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["error"] == 3
        assert "message" in doc


class TestClasses:
    def test_rose5(self, capsys, rose5):
        code, out = run_cli(capsys, ["classes", "--graph", rose5, "--max", "8"])
        assert code == 0
        assert json.loads(out) == [[1, 3, 5, 7], [2, 6], [4, 8]]

    def test_infinite(self, capsys, einf_file):
        code, out = run_cli(capsys, ["classes", "--graph", einf_file, "--max", "3"])
        assert code == 0
        assert json.loads(out) == [[1], [2], [3]]


class TestMGraph:
    def test_writes_file(self, capsys, rose5, tmp_path):
        out_path = tmp_path / "out.json"
        code, out = run_cli(
            capsys, ["mgraph", "--graph", rose5, "--m", "3", "--out", str(out_path)]
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert len(doc["vertices"]) == 3
        assert json.loads(out) == doc

    def test_stdout_only(self, capsys, rose5):
        code, out = run_cli(
            capsys, ["mgraph", "--graph", rose5, "--m", "2", "--out", "-"]
        )
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 2


class TestCompare:
    def test_match(self, capsys, rose5):
        code, out = run_cli(
            capsys, ["compare", "--graph-a", rose5, "--graph-b", rose5]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["isomorphic"] is True
        assert doc["reason"] == "unit_orbit_match"

    def test_group_mismatch(self, capsys, rose5, einf_file):
        code, out = run_cli(
            capsys, ["compare", "--graph-a", rose5, "--graph-b", einf_file]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "isomorphic": False,
            "reason": "group_mismatch",
            "witness": None,
        }

    def test_bound_exceeded_exit_4(self, capsys, rose5):
        code, out = run_cli(
            capsys,
            ["compare", "--graph-a", rose5, "--graph-b", rose5, "--bound", "2"],
        )
        assert code == 4
        assert json.loads(out)["reason"] == "undecided_bound_exceeded"


class TestSnf:
    def test_stdin(self, capsys, monkeypatch):
        code, out = run_cli(
            capsys, ["snf"], stdin="[[2,0],[0,3]]", monkeypatch=monkeypatch
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["diagonal"] == [1, 6]
        assert set(doc) == {"U", "D", "V", "diagonal"}

    def test_stdin_readme_bytes(self, capsys, monkeypatch):
        code, out = run_cli(
            capsys, ["snf"], stdin="[[2,0],[0,3]]", monkeypatch=monkeypatch
        )
        assert code == 0
        assert out == (
            '{"U": [[1, 1], [3, 2]], "D": [[1, 0], [0, 6]], '
            '"V": [[-1, 3], [1, -2]], "diagonal": [1, 6]}\n'
        )

    def test_file(self, capsys, tmp_path):
        path = tmp_path / "mat.json"
        path.write_text("[[-2,-2],[-1,-1]]")
        code, out = run_cli(capsys, ["snf", "--file", str(path)])
        assert code == 0
        assert json.loads(out)["diagonal"] == [1, 0]

    def test_malformed_matrix(self, capsys, monkeypatch):
        code, out = run_cli(
            capsys, ["snf"], stdin="[[1,2],[3]]", monkeypatch=monkeypatch
        )
        assert code == 2
        assert json.loads(out)["error"] == 2


class TestOracle:
    def test_gcd_oracle_agreement(self, capsys):
        code, out = run_cli(
            capsys,
            ["oracle", "lemma1", "--factors", "4", "--x", "1", "--c", "2", "--d", "6"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {"criterion": True, "bruteforce": True, "agree": True}

    def test_gcd_oracle_negative(self, capsys):
        code, out = run_cli(
            capsys,
            ["oracle", "lemma1", "--factors", "4", "--x", "1", "--c", "1", "--d", "2"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {"criterion": False, "bruteforce": False, "agree": True}

    def test_gcd_oracle_trivial_group(self, capsys):
        code, out = run_cli(
            capsys,
            ["oracle", "lemma1", "--factors", "", "--x", "", "--c", "3", "--d", "7"],
        )
        assert code == 0
        assert json.loads(out)["agree"] is True

    def test_gcd_oracle_bound_exceeded(self, capsys):
        code, out = run_cli(
            capsys,
            [
                "oracle", "lemma1",
                "--factors", "64",
                "--x", "1",
                "--c", "1",
                "--d", "1",
                "--bound", "4",
            ],
        )
        assert code == 4
        assert json.loads(out)["error"] == 4

    def test_eigen_no_witness(self, capsys):
        code, out = run_cli(
            capsys,
            ["oracle", "eigen", "--t", "2", "--bound", "2", "--x", "1,0", "--m", "2", "--n", "1"],
        )
        assert code == 0
        assert json.loads(out) == {"witness": None}

    def test_eigen_witness(self, capsys):
        code, out = run_cli(
            capsys,
            ["oracle", "eigen", "--t", "1", "--bound", "3", "--x", "5", "--m", "1", "--n", "1"],
        )
        assert code == 0
        assert json.loads(out) == {"witness": [[1]]}


class TestErrors:
    def test_malformed_graph_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices":[],"edges":[]}')
        code, out = run_cli(capsys, ["analyze", "--graph", str(path)])
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == 2 and "message" in doc

    def test_missing_file_exit_2(self, capsys):
        code, out = run_cli(capsys, ["analyze", "--graph", "/nonexistent/g.json"])
        assert code == 2
        assert json.loads(out)["error"] == 2

    def test_deeply_nested_matrix_exit_2(self, capsys, monkeypatch):
        deep = "[" * 100_000 + "]" * 100_000
        code, out = run_cli(capsys, ["snf"], stdin=deep, monkeypatch=monkeypatch)
        assert code == 2
        assert json.loads(out)["error"] == 2

    def test_deeply_nested_graph_exit_2(self, capsys, monkeypatch):
        deep = "[" * 100_000 + "]" * 100_000
        code, out = run_cli(
            capsys, ["analyze", "--graph", "-"], stdin=deep, monkeypatch=monkeypatch
        )
        assert code == 2
        assert json.loads(out)["error"] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["matrix-type", "--graph", "g.json", "--c", "2"],  # missing --d
            ["classes", "--graph", "g.json", "--max", "3", "--bound", "5"],
            ["frobnicate"],
        ],
        ids=["missing_option", "unknown_option", "unknown_subcommand"],
    )
    def test_usage_error_exit_2(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        doc = json.loads(captured.out)
        assert doc["error"] == 2 and doc["message"]
        assert captured.err.startswith("usage: leavitt")


class TestEntryPoint:
    def test_version(self):
        proc = run_module("--version")
        assert proc.returncode == 0
        assert "leavitt" in proc.stdout

    def test_subprocess_analyze(self, rose5):
        proc = run_module("analyze", "--graph", rose5)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["unit_order"] == 4

    def test_subprocess_byte_identical(self, rose5):
        runs = [
            run_module("classes", "--graph", rose5, "--max", "6", text=False).stdout
            for _ in range(2)
        ]
        assert runs[0]
        assert runs[0] == runs[1]
