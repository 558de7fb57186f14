import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from leavitt.cli import MAX_CLASSES, MAX_EIGEN_MATRICES, MAX_HEAD_VERTICES, main
from leavitt.graphs import build_graph, rose
from leavitt.intmat import IntMatrix
from leavitt.matrixtype import m_graph

from conftest import infinite_order_graph, module_env, run_module, scc_graph


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def error_document(code, out):
    """The one {"error": code, "message": str} document of a failed call."""
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    assert set(doc) == {"error", "message"}
    assert doc["error"] == code
    assert isinstance(doc["message"], str) and doc["message"]


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
            '"invariant_factors": [4], "free_rank": 0, "unit_coords": [1], "unit_order": 4}\n'
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

    @pytest.mark.parametrize(
        "graph, free_rank, unit_coords, unit_order",
        [
            (build_graph(["v"], []), 1, [1], "infinite"),  # L(E) = K
            (build_graph(["u", "v"], [("u", "v", 1)]), 1, [2], "infinite"),  # M_2(K)
            (build_graph(["a", "b", "c"], []), 3, [1, 1, 1], "infinite"),
            (build_graph(["v", "s"], [("v", "v", 2), ("v", "s", 1)]), 1, [0], 1),
        ],
    )
    def test_sinks_give_no_relation(self, capsys, tmp_path, graph, free_rank, unit_coords, unit_order):
        code, out = run_cli(capsys, ["analyze", "--graph", write_graph(tmp_path, "g.json", graph)])
        assert code == 0
        doc = json.loads(out)
        assert doc["invariant_factors"] == [] and doc["free_rank"] == free_rank
        assert doc["unit_coords"] == unit_coords and doc["unit_order"] == unit_order


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

    def test_sizes_either_side_of_the_digit_limit(self, capsys, rose5):
        # 10**3000 + 2 and 6 are both 2 modulo 4; a 4400-digit size is
        # refused by argparse before any work
        argv = ["matrix-type", "--graph", rose5, "--d", "6", "--c"]
        code, out = run_cli(capsys, argv + [str(10**3000 + 2)])
        assert code == 0 and json.loads(out)["verdict"] is True
        code, out = run_cli(capsys, argv + ["9" * 4400])
        error_document(2, out)
        assert "invalid int value" in json.loads(out)["message"]

    def test_a_long_bad_value_is_not_echoed_whole(self, capsys, rose5):
        # argparse and the integer lists quote a bad value; a 4400-digit one
        # is cut short on both streams, and the message keeps the option
        calls = [
            (["matrix-type", "--graph", rose5, "--d", "6", "--c", "9" * 4400], "argument --c: "),
            (["oracle", "lemma1", "--factors", "4", "--x", "9" * 4400, "--c", "1", "--d", "1"],
             "expected a comma-separated integer list, got '999"),
        ]
        for argv, start in calls:
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2
            error_document(2, captured.out)
            message = json.loads(captured.out)["message"]
            assert message.startswith(start) and message.endswith(" more characters]")
            assert len(captured.out) < 300 and len(captured.err) < 300

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
        error_document(3, out)
        assert code == 3

    def test_sink_graph_exit_3(self, capsys, tmp_path):
        sink = build_graph(["a", "b"], [("a", "a", 2), ("a", "b", 1)])
        code, out = run_cli(
            capsys,
            ["matrix-type", "--graph", write_graph(tmp_path, "sink.json", sink),
             "--c", "1", "--d", "2"],
        )
        error_document(3, out)
        assert code == 3


@pytest.mark.parametrize("command", ["matrix-type", "classes"])
def test_graph_conditions_come_before_k0(capsys, monkeypatch, tmp_path, command):
    # a graph that is not PIS exits 3 without an elimination, and a bad
    # size still exits 2 before the graph conditions are read, as it did
    # when K0 came first
    import leavitt.cli as cli

    def refuse(graph):
        raise AssertionError("K0 computed for a call that cannot succeed")

    monkeypatch.setattr(cli, "k0_of_graph", refuse)
    sink = write_graph(tmp_path, "sink.json", build_graph(["a", "b"], [("a", "a", 2), ("a", "b", 1)]))
    sizes = {"matrix-type": [["--c", "1", "--d", "2"], ["--c", "0", "--d", "2"]],
             "classes": [["--max", "4"], ["--max", "0"]]}[command]
    code, out = run_cli(capsys, [command, "--graph", sink, *sizes[0]])
    error_document(3, out)
    assert code == 3
    code, out = run_cli(capsys, [command, "--graph", sink, *sizes[1]])
    error_document(2, out)
    assert code == 2 and "at least 1" in json.loads(out)["message"]


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

    def test_match_with_a_free_unit(self, capsys, einf_file):
        code, out = run_cli(
            capsys, ["compare", "--graph-a", einf_file, "--graph-b", einf_file]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["isomorphic"] is True
        assert doc["reason"] == "unit_orbit_match"
        assert doc["witness"].startswith("free parts share content 1")

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

    def test_sinks_separate_k_from_m2k(self, capsys, tmp_path):
        # (Z, 1) against (Z, 2): both groups are Z, the units differ
        point = write_graph(tmp_path, "point.json", build_graph(["v"], []))
        arrow = write_graph(tmp_path, "arrow.json", build_graph(["u", "v"], [("u", "v", 1)]))
        code, out = run_cli(capsys, ["compare", "--graph-a", point, "--graph-b", arrow])
        assert code == 0
        assert json.loads(out) == {
            "isomorphic": False,
            "reason": "unit_orbit_mismatch",
            "witness": None,
        }

    def test_bound_exceeded_exit_4(self, capsys, rose5):
        code, out = run_cli(
            capsys,
            ["compare", "--graph-a", rose5, "--graph-b", rose5, "--bound", "2"],
        )
        error_document(4, out)
        assert code == 4

    def test_both_graphs_from_stdin_exit_2(self, capsys, monkeypatch):
        # stdin holds one document; reading it twice left the second graph empty
        code, out = run_cli(
            capsys,
            ["compare", "--graph-a", "-", "--graph-b", "-"],
            stdin=rose(5).to_json(),
            monkeypatch=monkeypatch,
        )
        error_document(2, out)
        assert code == 2
        assert "stdin" in json.loads(out)["message"]

    @pytest.mark.parametrize("m, expected", [(2, True), (5, False)])
    def test_decides_above_the_old_cap(self, capsys, tmp_path, m, expected):
        # K0 = Z/1025: the unit orbits match iff gcd(m, 1025) == 1
        left = write_graph(tmp_path, "rose1026.json", rose(1026))
        right = write_graph(tmp_path, "scaled.json", m_graph(rose(1026), m))
        code, out = run_cli(capsys, ["compare", "--graph-a", left, "--graph-b", right])
        assert code == 0
        doc = json.loads(out)
        assert doc["isomorphic"] is expected
        assert doc["reason"] == ("unit_orbit_match" if expected else "unit_orbit_mismatch")

    @pytest.mark.parametrize("m, expected", [(2, True), (3, False)])
    def test_decides_a_large_prime_without_factoring(self, tmp_path, m, expected):
        # K0 = Z/(3 * (2^89 - 1)): trial division to its square root never ends
        big = rose(3 * (2**89 - 1) + 1)
        left = write_graph(tmp_path, "big.json", big)
        right = write_graph(tmp_path, "scaled.json", m_graph(big, m))
        proc = run_module("compare", "--graph-a", left, "--graph-b", right, timeout=60)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["isomorphic"] is expected


class TestSnf:
    def test_stdin(self, capsys, monkeypatch):
        code, out = run_cli(
            capsys, ["snf"], stdin="[[2,0],[0,3]]", monkeypatch=monkeypatch
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["diagonal"] == [1, 6]
        assert set(doc) == {"U", "D", "V", "diagonal"}

    def test_file(self, capsys, tmp_path):
        path = tmp_path / "mat.json"
        path.write_text("[[-2,-2],[-1,-1]]")
        code, out = run_cli(capsys, ["snf", "--file", str(path)])
        assert code == 0
        assert json.loads(out)["diagonal"] == [1, 0]

    def test_large_coprime_diagonal(self):
        # the transforms once outgrew Python's 4300-digit int-to-str limit
        # here, and the call died with a traceback and exit 1
        matrix = [[3**400, 0], [0, 2**400]]
        proc = run_module("snf", stdin=json.dumps(matrix), timeout=60)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        doc = json.loads(proc.stdout)
        product = IntMatrix(doc["U"]) @ IntMatrix(matrix) @ IntMatrix(doc["V"])
        assert product == IntMatrix(doc["D"])
        assert doc["diagonal"] == [1, 6**400]

    def test_diagonal_past_the_digit_limit(self):
        # 6**6000 has 4,669 digits, past Python's 4300-digit int-to-str
        # limit; the call once died in _emit with a traceback and exit 1
        proc = run_module("snf", stdin=json.dumps([[3**6000, 0], [0, 2**6000]]), timeout=60)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert proc.stdout.endswith("\n") and proc.stdout.count("\n") == 1
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            doc = json.loads(proc.stdout)
        finally:
            sys.set_int_max_str_digits(limit)
        assert doc["diagonal"] == [1, 6**6000]

    def test_input_past_the_digit_limit_exit_2(self, capsys, monkeypatch):
        limit = sys.get_int_max_str_digits()
        huge = "1" + "0" * 4300  # 4301 digits
        code, out = run_cli(capsys, ["snf"], stdin=f"[[{huge}]]", monkeypatch=monkeypatch)
        error_document(2, out)
        assert code == 2
        assert sys.get_int_max_str_digits() == limit  # main restores the limit

    def test_malformed_matrix(self, capsys, monkeypatch):
        code, out = run_cli(
            capsys, ["snf"], stdin="[[1,2],[3]]", monkeypatch=monkeypatch
        )
        error_document(2, out)
        assert code == 2

    def test_json_object_exit_2(self, capsys, monkeypatch):
        code, out = run_cli(capsys, ["snf"], stdin='{"a": [1]}', monkeypatch=monkeypatch)
        error_document(2, out)
        assert code == 2
        assert json.loads(out)["message"] == "matrix must be a JSON array of arrays"


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
        error_document(4, out)
        assert code == 4

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--x", "1,a", "--c", "1"], "expected a comma-separated integer list, got '1,a'"),
            (["--x", "1", "--c", "0"], "n, c, d must be at least 1, got 0"),
        ],
        ids=["non_integer_x", "zero_c"],
    )
    def test_gcd_oracle_bad_input_exit_2(self, capsys, option, message):
        code, out = run_cli(capsys, ["oracle", "lemma1", "--factors", "4", "--d", "2", *option])
        error_document(2, out)
        assert code == 2
        assert json.loads(out)["message"] == message

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
        error_document(2, out)
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, out = run_cli(capsys, ["analyze", "--graph", "/nonexistent/g.json"])
        error_document(2, out)
        assert code == 2

    def test_deeply_nested_matrix_exit_2(self, capsys, monkeypatch):
        deep = "[" * 100_000 + "]" * 100_000
        code, out = run_cli(capsys, ["snf"], stdin=deep, monkeypatch=monkeypatch)
        error_document(2, out)
        assert code == 2

    def test_integer_past_the_digit_limit_exit_2(self, capsys, monkeypatch):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        graph = '{"vertices":["v"],"edges":[["v","v",%s]]}' % digits
        code, out = run_cli(
            capsys, ["analyze", "--graph", "-"], stdin=graph, monkeypatch=monkeypatch
        )
        error_document(2, out)
        assert code == 2
        assert json.loads(out)["message"].startswith("invalid JSON: ")

    def test_deeply_nested_graph_exit_2(self, capsys, monkeypatch):
        deep = "[" * 100_000 + "]" * 100_000
        code, out = run_cli(
            capsys, ["analyze", "--graph", "-"], stdin=deep, monkeypatch=monkeypatch
        )
        error_document(2, out)
        assert code == 2

    def test_memory_error_exit_2_without_traceback(self, capsys, monkeypatch, rose5):
        def exhausted(graph):
            raise MemoryError

        monkeypatch.setattr("leavitt.cli.k0_of_graph", exhausted)
        code = main(["analyze", "--graph", rose5])
        captured = capsys.readouterr()
        assert code == 2
        error_document(2, captured.out)
        assert json.loads(captured.out)["message"] == "MemoryError"
        assert "Traceback" not in captured.err

    def test_file_and_json_failures_exit_2_without_traceback(self, tmp_path, rose5):
        # no handler wraps these: the exit table maps OSError and
        # RecursionError, so a child process prints one error document
        calls = [
            (["mgraph", "--graph", rose5, "--m", "2", "--out", str(tmp_path / "missing" / "g.json")], None),
            (["analyze", "--graph", str(tmp_path)], None),
            (["analyze", "--graph", str(tmp_path / "absent.json")], None),
            (["snf"], "[" * 100_000 + "]" * 100_000),
        ]
        for argv, stdin in calls:
            proc = run_module(*argv, stdin=stdin)
            assert proc.returncode == 2, argv
            error_document(2, proc.stdout)
            assert "Traceback" not in proc.stderr, argv

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
        error_document(code, captured.out)
        assert captured.err.startswith("usage: leavitt")


class TestCaps:
    """An argument just past its cap exits 2 before the work it would buy."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["classes", "--graph", "{rose5}", "--max", str(MAX_CLASSES + 1)],
            ["mgraph", "--graph", "{rose5}", "--m", str(MAX_HEAD_VERTICES + 2), "--out", "-"],
            ["mgraph", "--graph", "{pair}", "--m", str(MAX_HEAD_VERTICES // 2 + 2), "--out", "-"],
            ["oracle", "eigen", "--t", "1", "--bound", str(MAX_EIGEN_MATRICES // 2), "--x", "1",
             "--m", "1", "--n", "1"],
            ["oracle", "eigen", "--t", "2", "--bound", "16", "--x", "1,1", "--m", "1", "--n", "1"],
            ["oracle", "eigen", "--t", "3", "--bound", "2", "--x", "1,0,0", "--m", "1", "--n", "1"],
            ["oracle", "eigen", "--t", "9" * 4000, "--bound", "1", "--x", "1", "--m", "1", "--n", "1"],
        ],
        ids=["classes", "mgraph", "mgraph_two_vertices", "eigen_t1", "eigen_t2", "eigen_t3",
             "eigen_huge_t"],
    )
    def test_just_past_the_cap_exit_2(self, capsys, tmp_path, rose5, argv):
        pair = write_graph(tmp_path, "pair.json", build_graph(["a", "b"], [("a", "b", 1)]))
        argv = [arg.format(rose5=rose5, pair=pair) for arg in argv]
        start = time.perf_counter()
        code, out = run_cli(capsys, argv)
        assert time.perf_counter() - start < 0.1
        error_document(2, out)
        assert "cap" in json.loads(out)["message"]

    def test_eigen_at_the_cap_runs(self, capsys):
        # 31 ** 4 = 923521 matrices in range, under the cap
        argv = ["oracle", "eigen", "--t", "2", "--bound", "15", "--x", "1,1", "--m", "1", "--n", "1"]
        code, out = run_cli(capsys, argv)
        assert code == 0 and json.loads(out)["witness"] is not None


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

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_pipe_exits_2(self, rose5, unbuffered):
        # the reader stops after 10 bytes of a 689 KB result, more than a
        # pipe buffers, so the child's write meets a closed pipe.  Unbuffered
        # (PYTHONUNBUFFERED), stdout is the raw file, whose write takes the
        # part of the bytes that the pipe held before the reader closed it:
        # the result is written in a loop until every byte is taken
        argv = [sys.executable, "-m", "leavitt", "classes", "--graph", rose5, "--max", "100000"]
        env = module_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.read(10) == b"[[1, 3, 5,"
            proc.stdout.close()
            code = proc.wait(timeout=60)
            err = proc.stderr.read().decode()
        assert code == 2
        assert err.startswith("error: cannot write the result to stdout: [Errno 32]")
        assert err.count("\n") == 1  # no traceback, and no second error at exit

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
    def test_full_stdout_exits_2(self, rose5):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "leavitt", "analyze", "--graph", rose5],
                stdout=full, stderr=subprocess.PIPE, text=True, env=module_env(), timeout=60,
            )
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write the result to stdout: [Errno 28] No space left on device\n"

    def test_analyze_ignores_the_hash_seed(self, tmp_path):
        graph = write_graph(tmp_path, "scc96.json", scc_graph(96, 3))
        runs = [
            run_module("analyze", "--graph", graph, text=False, env={"PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "4242")
        ]
        assert runs[0]
        assert runs[0] == runs[1]


def _readme_cli_commands():
    """(command, expected stdout lines) for each ``$`` line of README's CLI block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```\n")[1]
    commands = []
    for line in block.splitlines():
        if line.startswith("$ "):
            commands.append((line[2:], []))
        elif line:
            commands[-1][1].append(line)
    return commands


README_COMMANDS = _readme_cli_commands()
README_EXAMPLES = [k for k, (command, _) in enumerate(README_COMMANDS) if "leavitt " in command]


def _run_readme_command(capsys, monkeypatch, command):
    """Run ``echo 'DOC' > FILE``, ``echo 'DOC' | leavitt ...`` or ``leavitt ...``."""
    words = shlex.split(command)
    stdin = None
    if words[0] == "echo":
        doc, op, *rest = words[1:]
        if op == ">":
            Path(rest[0]).write_text(doc + "\n", encoding="utf-8")
            return 0, ""
        assert op == "|"
        words, stdin = rest, doc + "\n"
    assert words[0] == "leavitt"
    return run_cli(capsys, words[1:], stdin=stdin, monkeypatch=monkeypatch)


@pytest.mark.parametrize(
    "k",
    README_EXAMPLES,
    ids=[README_COMMANDS[k][0].split("leavitt ")[1].split(" --")[0].replace(" ", "-")
         for k in README_EXAMPLES],
)
def test_readme_examples(capsys, monkeypatch, tmp_path, k):
    # stdout must match README verbatim, except that {...} stands for one
    # elided flat JSON object; earlier lines write the files this one reads
    monkeypatch.chdir(tmp_path)
    for command, _ in README_COMMANDS[:k]:
        _run_readme_command(capsys, monkeypatch, command)
    command, expected = README_COMMANDS[k]
    code, out = _run_readme_command(capsys, monkeypatch, command)
    assert code == 0
    pattern = "".join(
        re.escape(line).replace(r"\{\.\.\.\}", r"\{[^{}]*\}") + "\n" for line in expected
    )
    assert re.fullmatch(pattern, out), (command, out)
