"""End-to-end tests for the command-line interface."""

import hashlib
import json
import re
import subprocess
import sys

import pytest

import vposets.cli
from vposets import enumeration, polynomial
from vposets.cli import main
from vposets.enumeration import SERIES_BOUND, q_series

from helpers import CLI_ENV, FIGURE_POSET_STR, FIGURE_POSET_TEXT, FIGURE_TREE_TEXT, chain_text

FIGURE_TREE_STR = "y^5 + y^3 + x*y^2 + x^2*y + x^3"
COLLIDE_12_SHA256 = "b61aa5eb1713fa35cbd21f2c6f63565ff7313d8b9c08ac121e005017f88a8789"


@pytest.fixture
def tree_file(tmp_path):
    f = tmp_path / "fig.tree"
    f.write_text(FIGURE_TREE_TEXT)
    return str(f)


@pytest.fixture
def poset_file(tmp_path):
    f = tmp_path / "fig.poset"
    f.write_text(FIGURE_POSET_TEXT)
    return str(f)


@pytest.fixture
def n_poset_file(tmp_path):
    f = tmp_path / "n.poset"
    f.write_text("4\n3 1\n4 1\n4 2\n")
    return str(f)


class TestTreePoly:
    def test_default(self, tree_file, capsys):
        assert main(["tree-poly", tree_file]) == 0
        assert capsys.readouterr().out.strip() == FIGURE_TREE_STR

    def test_dc_byte_identical(self, tree_file, capsys):
        main(["tree-poly", tree_file])
        default = capsys.readouterr().out
        main(["tree-poly", tree_file, "--dc"])
        assert capsys.readouterr().out == default

    def test_dc_identical_across_inputs(self, tmp_path, capsys):
        for text in ("()", "(()())", "((())()())", "((((()))))"):
            f = tmp_path / "t.tree"
            f.write_text(text)
            main(["tree-poly", str(f)])
            default = capsys.readouterr().out
            main(["tree-poly", str(f), "--dc"])
            assert capsys.readouterr().out == default

    def test_tall_path_both_routes(self, tmp_path, capsys):
        f = tmp_path / "path.tree"
        f.write_text("(" * 700 + ")" * 700)
        assert main(["tree-poly", str(f)]) == 0
        default = capsys.readouterr().out
        assert default == " + ".join([f"y^{k}" for k in range(699, 1, -1)] + ["y", "x"]) + "\n"
        assert main(["tree-poly", str(f), "--dc"]) == 0
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize(
        "text, expected",
        [
            pytest.param("(" * 1000 + ")" * 1000,
                         " + ".join([f"y^{k}" for k in range(999, 1, -1)] + ["y", "x"]), id="path"),
            pytest.param("(" + "()" * 999 + ")", "y^999 + x^999", id="star"),
        ],
    )
    def test_dc_answers_paths_and_stars(self, tmp_path, capsys, text, expected):
        f = tmp_path / "t.tree"
        f.write_text(text)
        assert main(["tree-poly", "--dc", str(f)]) == 0
        assert capsys.readouterr().out == expected + "\n"

    def test_eval(self, tree_file, capsys):
        assert main(["tree-poly", tree_file, "--eval", "2", "2"]) == 0
        out = capsys.readouterr().out
        assert "P(2,2) = 64" in out

    def test_json(self, tree_file, capsys):
        assert main(["tree-poly", tree_file, "--json", "--eval", "1", "2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["polynomial"][0] == [1, 0, 5]
        assert obj["eval"] == {"x": 1, "y": 2, "value": 47}

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("(()())"))
        assert main(["tree-poly", "-"]) == 0
        assert capsys.readouterr().out.strip() == "y^2 + x^2"

    def test_parse_error_status(self, tmp_path, capsys):
        f = tmp_path / "bad.tree"
        f.write_text("((")
        assert main(["tree-poly", str(f)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_status(self, capsys):
        assert main(["tree-poly", "/nonexistent/file"]) == 2


class TestPosetPoly:
    def test_default(self, poset_file, capsys):
        assert main(["poset-poly", poset_file]) == 0
        assert capsys.readouterr().out.strip() == FIGURE_POSET_STR

    def test_expansion_byte_identical(self, poset_file, capsys):
        main(["poset-poly", poset_file])
        default = capsys.readouterr().out
        main(["poset-poly", poset_file, "--expansion"])
        assert capsys.readouterr().out == default

    def test_non_v_poset_status(self, n_poset_file, capsys):
        assert main(["poset-poly", n_poset_file]) == 1
        err = capsys.readouterr().err
        assert "not a V-poset" in err and "N" in err


class TestCheck:
    def test_v_poset(self, poset_file, capsys):
        assert main(["check", poset_file]) == 0
        out = capsys.readouterr().out.strip()
        assert out == (
            "VPOSET (g (union (l (union (g (union (g (g empty)) (g (g empty)))) "
            "(g empty))) (g (g empty))))"
        )

    def test_not_v_poset(self, n_poset_file, capsys):
        assert main(["check", n_poset_file]) == 1
        out = capsys.readouterr().out.strip()
        assert out == "NOT-VPOSET N 1 2 3 4"

    def test_long_chain(self, tmp_path, capsys):
        f = tmp_path / "chain.poset"
        f.write_text(chain_text(1200))
        assert main(["check", str(f)]) == 0
        assert capsys.readouterr().out == "VPOSET " + "(g " * 1200 + "empty" + ")" * 1200 + "\n"

    def test_chain_2000(self, tmp_path, capsys):
        f = tmp_path / "chain.poset"
        f.write_text(chain_text(2000))
        assert main(["check", str(f)]) == 0
        assert capsys.readouterr().out == "VPOSET " + "(g " * 2000 + "empty" + ")" * 2000 + "\n"

    def test_cycle_numbered_as_in_file(self, tmp_path, capsys):
        # The cycle is {1, 3} in the file and {0, 2} counted from 0.
        f = tmp_path / "cycle.poset"
        f.write_text("3\n1 3\n3 1\n")
        assert main(["check", str(f)]) == 2
        err = capsys.readouterr().err
        assert int(re.search(r"cycle through element (\d+)", err).group(1)) in {1, 3}

    def test_union_sexpr(self, tmp_path, capsys):
        f = tmp_path / "anti.poset"
        f.write_text("2\n")
        assert main(["check", str(f)]) == 0
        assert capsys.readouterr().out.strip() == "VPOSET (union (g empty) (g empty))"

class TestCounts:
    def test_tree(self, tree_file, capsys):
        assert main(["counts", tree_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [line.split("\t") for line in lines[1:]]
        assert len(rows) == 6
        assert all(row[-1] == "ok" for row in rows)
        assert rows[0][1] == "5" and rows[3][1] == "16" and rows[4][1] == "47"

    def test_poset(self, poset_file, capsys):
        assert main(["counts", poset_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [line.split("\t") for line in lines[1:]]
        assert all(row[-1] == "ok" for row in rows)
        assert rows[3][1] == "64" and rows[4][1] == "779"

    def test_non_v_poset(self, n_poset_file):
        assert main(["counts", n_poset_file]) == 1

    def test_each_row_evaluated_once_per_y(self, tmp_path, capsys, monkeypatch):
        # Seven rows at y = 1, 0 and 2; the rows are printed in table order.
        f = tmp_path / "t.tree"
        f.write_text("((()())(()(()))((())()))")
        calls = []
        row_value = polynomial._row_value
        monkeypatch.setattr(
            polynomial, "_row_value", lambda *args: calls.append(args) or row_value(*args)
        )
        assert main(["counts", str(f)]) == 0
        assert len(calls) == 21
        assert capsys.readouterr().out == (
            "# tree with 12 vertices\n"
            "P(1,1)\t19\tmaximal antichains\t19\tok\n"
            "P(x,0)\tx^6\tx^leaves\tx^6\tok\n"
            "P(0,1)\t2\tleaf-free maximal antichains\t2\tok\n"
            "P(2,1)\t246\tantichains\t246\tok\n"
            "P(1,2)\t2653\tcutsets\t2653\tok\n"
            "P(2,2)\t4096\tvertex subsets\t4096\tok\n"
        )

class TestCensus:
    def test_last_line_at_eight(self, capsys):
        assert main(["census", "--max", "8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "8\t1184\t1184"
        assert lines[0] == "1\t1\t1"

    def test_series_only_beyond_eight(self, capsys):
        assert main(["census", "--max", "9"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "9\t3823"

    def test_connected_column(self, capsys):
        assert main(["census", "--max", "3", "--connected"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[2] == "3\t5\t3\t5"

    def test_connected_column_is_the_q_series(self, capsys):
        assert main(["census", "--max", "40", "--connected"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [int(line.split("\t")[2]) for line in lines] == list(q_series(40).coeffs[1:])

    def test_series_bound(self, capsys):
        assert main(["census", "--max", str(SERIES_BOUND + 1)]) == 3
        assert f"bounded at order {SERIES_BOUND}" in capsys.readouterr().err


class TestAsymptotics:
    def test_json_result(self, capsys):
        assert main(["asymptotics"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert set(obj) == {"rho", "rhoInv", "constant", "truncationOrder"}
        assert abs(obj["rhoInv"] - 3.79599) < 1e-4
        assert abs(obj["constant"] - 0.726213) < 1e-4
        assert obj["truncationOrder"] == 100

    def test_order_flag(self, capsys):
        assert main(["asymptotics", "--order", "80"]) == 0
        assert json.loads(capsys.readouterr().out)["truncationOrder"] == 80

    def test_too_small_order(self, capsys):
        assert main(["asymptotics", "--order", "10"]) == 2

    def test_series_bound(self, capsys):
        assert main(["asymptotics", "--order", str(SERIES_BOUND + 1)]) == 3
        assert f"bounded at order {SERIES_BOUND}" in capsys.readouterr().err

    def test_order_past_double_precision(self, capsys):
        assert main(["asymptotics", "--order", "600"]) == 2
        assert "error: truncation order 600 overflows" in capsys.readouterr().err

    def test_order_past_double_precision_refused_before_the_series(
        self, capsys, monkeypatch
    ):
        def unbuilt(order):
            raise AssertionError(f"series built to order {order}")

        monkeypatch.setattr(enumeration, "w_series", unbuilt)
        assert main(["asymptotics", "--order", str(SERIES_BOUND)]) == 2
        assert f"error: truncation order {SERIES_BOUND} overflows" in capsys.readouterr().err


class TestCollide:
    def test_small_run(self, capsys):
        assert main(["collide", "--max", "6"]) == 0
        out = capsys.readouterr().out
        assert "trees examined: 37" in out
        assert "full-polynomial collisions: none" in out

    def test_figure_pair_reported(self, capsys):
        assert main(["collide", "--max", "8"]) == 0
        out = capsys.readouterr().out
        assert "x^3 + 3*x^2 + 3*x + 3" in out

    def test_bound_status(self, capsys):
        assert main(["collide", "--max", "13"]) == 3

    def test_max_12_output_pinned(self, capsys):
        # The whole report over the 7813 trees, as the per-tree search
        # printed it: 2526 lines, 246769 bytes.
        assert main(["collide", "--max", "12"]) == 0
        out = capsys.readouterr().out.encode()
        assert (out.count(b"\n"), len(out)) == (2526, 246769)
        assert hashlib.sha256(out).hexdigest() == COLLIDE_12_SHA256


class TestParseErrors:
    @pytest.mark.parametrize("command, text", [
        ("check", ""),
        ("check", " \n\t\n"),
        ("check", "-1"),
        ("check", "3\n1 2 3"),
        ("check", "3\n1 x"),
        ("tree-poly", "()()"),
    ])
    def test_status_and_message(self, tmp_path, capsys, command, text):
        f = tmp_path / "input.txt"
        f.write_text(text)
        assert main([command, str(f)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestOutOfMemory:
    def test_status_and_message(self, poset_file, capsys, monkeypatch):
        def exhaust(args):
            raise MemoryError

        monkeypatch.setattr(vposets.cli, "_cmd_check", exhaust)
        assert main(["check", poset_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: out of memory\n"


class TestClosedPipe:
    def test_reader_closes_after_ten_bytes(self, tmp_path):
        # The polynomial of a 20000-vertex path runs far past a pipe's
        # buffer, so the child is still writing when the reader goes.
        f = tmp_path / "path.tree"
        f.write_text("(" * 20000 + ")" * 20000)
        child = subprocess.Popen(
            [sys.executable, "-m", "vposets.cli", "tree-poly", str(f)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CLI_ENV,
        )
        assert len(child.stdout.read(10)) == 10
        child.stdout.close()
        err = child.communicate(timeout=60)[1].decode()
        assert child.returncode == 141, err
        assert "Traceback" not in err and "BrokenPipeError" not in err, err


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["census"])
        assert exc.value.code == 2
