"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.graphs.io import read_edge_list


class TestGenerate:
    def test_gbreg(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        code = main(
            [
                "generate",
                "gbreg",
                "--vertices",
                "60",
                "--width",
                "4",
                "--degree",
                "3",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        graph = read_edge_list(out)
        assert graph.num_vertices == 60
        assert "wrote" in capsys.readouterr().out

    def test_ladder(self, tmp_path):
        out = tmp_path / "l.edges"
        assert main(["generate", "ladder", "--vertices", "20", "--out", str(out)]) == 0
        assert read_edge_list(out).num_vertices == 20

    def test_gnp(self, tmp_path):
        out = tmp_path / "r.edges"
        code = main(
            ["generate", "gnp", "--vertices", "50", "--p", "0.1", "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        assert read_edge_list(out).num_vertices == 50

    def test_btree_and_grid(self, tmp_path):
        for model, n in (("btree", "31"), ("grid", "16")):
            out = tmp_path / f"{model}.edges"
            assert main(["generate", model, "--vertices", n, "--out", str(out)]) == 0


class TestRun:
    @pytest.fixture
    def graph_file(self, tmp_path):
        out = tmp_path / "g.edges"
        main(
            [
                "generate", "gbreg", "--vertices", "60", "--width", "4",
                "--degree", "3", "--seed", "3", "--out", str(out),
            ]
        )
        return str(out)

    @pytest.mark.parametrize("algorithm", ["kl", "ckl", "fm", "greedy", "multilevel"])
    def test_algorithms(self, graph_file, capsys, algorithm):
        assert main(["run", graph_file, "--algorithm", algorithm, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "cut=" in out
        assert algorithm in out

    def test_show_sides(self, graph_file, capsys):
        main(["run", graph_file, "--algorithm", "kl", "--show-sides"])
        out = capsys.readouterr().out
        assert "side 0:" in out
        assert "side 1:" in out

    def test_cycles_solver(self, tmp_path, capsys):
        out = tmp_path / "c.edges"
        main(["generate", "gbreg", "--vertices", "40", "--width", "2", "--degree", "2",
              "--seed", "4", "--out", str(out)])
        assert main(["run", str(out), "--algorithm", "cycles"]) == 0
        assert "cut=" in capsys.readouterr().out


class TestTable:
    def test_table_smoke_kl_only(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert main(["table", "ladder", "--kl-only", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "bkl" in out
        assert "bckl" in out
        assert "bsa" not in out

    def test_unknown_table_rejected(self):
        with pytest.raises(SystemExit):
            main(["table", "nonsense"])


class TestKway:
    def test_kway_partition(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        main(["generate", "grid", "--vertices", "64", "--out", str(out)])
        assert main(["kway", str(out), "--k", "4", "--seed", "1"]) == 0
        text = capsys.readouterr().out.splitlines()[-1]
        assert "k=4" in text
        assert "part_weights=(16, 16, 16, 16)" in text

    def test_kway_odd_k(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        main(["generate", "grid", "--vertices", "36", "--out", str(out)])
        assert main(["kway", str(out), "--k", "3"]) == 0
        assert "k=3" in capsys.readouterr().out


class TestCertify:
    def test_run_with_certify(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        main(["generate", "gbreg", "--vertices", "60", "--width", "4",
              "--degree", "3", "--seed", "5", "--out", str(out)])
        assert main(["run", str(out), "--algorithm", "ckl", "--certify"]) == 0
        text = capsys.readouterr().out
        assert "lower bound:" in text
        assert "gap ratio:" in text


class TestReport:
    def test_report_to_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        out = tmp_path / "report.md"
        assert main(["report", "--kl-only", "--seed", "1", "--out", str(out)]) == 0
        text = out.read_text()
        assert "# repro experiment report" in text
        assert "Gbreg" in text
        assert "wrote report" in capsys.readouterr().out

    def test_report_to_stdout(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert main(["report", "--kl-only", "--seed", "2"]) == 0
        assert "Headline summary" in capsys.readouterr().out


class TestNetlist:
    def test_generate_and_run(self, tmp_path, capsys):
        path = tmp_path / "n.hgr"
        assert main(["netlist", "generate", str(path), "--cells", "80", "--seed", "2"]) == 0
        assert "wrote" in capsys.readouterr().out
        for algorithm in ("fm", "cfm", "multilevel"):
            assert main(["netlist", "run", str(path), "--algorithm", algorithm]) == 0
            out = capsys.readouterr().out
            assert "net_cut=" in out
            assert algorithm in out

    def test_bad_algorithm_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["netlist", "run", "x.hgr", "--algorithm", "nonsense"])

    def test_kway_netlist(self, tmp_path, capsys):
        path = tmp_path / "n.hgr"
        main(["netlist", "generate", str(path), "--cells", "60", "--seed", "3"])
        capsys.readouterr()
        assert main(["netlist", "run", str(path), "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "kway k=3" in out
        assert "connectivity-1=" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_help_exists(self):
        parser = build_parser()
        assert parser.prog == "repro-bisect"


#: Every subcommand, in the order top-level help lists them.
COMMANDS = (
    "generate", "run", "kway", "score", "netlist", "report", "table", "batch",
    "info", "perf", "stats", "trace", "top", "check", "lint", "serve", "repl",
    "load", "cache", "study",
)


def _printed(parse, capsys) -> str:
    with pytest.raises(SystemExit) as exit_info:
        parse()
    assert exit_info.value.code == 0
    return capsys.readouterr().out


class TestLazyParser:
    """``main`` builds only the subparser of the command it runs."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help_matches_the_full_parser(self, command, capsys):
        full = _printed(lambda: build_parser().parse_args([command, "--help"]), capsys)
        lazy = _printed(lambda: main([command, "--help"]), capsys)
        assert lazy == full
        assert f"usage: repro-bisect {command}" in lazy

    def test_top_level_help_lists_every_command_in_order(self, capsys):
        text = _printed(lambda: main(["--help"]), capsys)
        assert "{" + ",".join(COMMANDS) + "}" in text.replace("\n", "").replace(" ", "")
        # One row per command, indented four spaces; wrapped help is deeper.
        listed = [line.split()[0] for line in text.splitlines()
                  if line.startswith("    ") and not line.startswith("     ")]
        assert listed == list(COMMANDS)

    def test_errors_match_the_full_parser(self, capsys):
        for argv in (["run", "g.edges", "extra"], ["run"], ["bogus"], []):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
            full = capsys.readouterr().err
            with pytest.raises(SystemExit):
                main(argv)
            assert capsys.readouterr().err == full, argv
