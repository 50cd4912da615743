"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.graph import write_edge_list
from repro.graph.generators import planted_quasi_clique_graph


@pytest.fixture
def graph_file(tmp_path):
    graph = planted_quasi_clique_graph(30, 40, [7], 0.9, seed=2)
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_enumerate_defaults(self):
        args = build_parser().parse_args(["query", "-i", "x.txt", "-g", "0.9", "-t", "5"])
        assert args.algorithm is None  # the planner decides
        assert args.gamma == 0.9

    @pytest.mark.parametrize("argv", [
        ["enumerate"], ["topk"], ["community", "0"],
        ["engine", "query"], ["engine", "batch"], ["engine", "explain"],
    ])
    def test_removed_query_verbs_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv + ["-d", "twitter"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestEnumerateCommand:
    """``repro query`` running the plain enumerate workload."""

    def test_enumerate_from_file(self, graph_file, capsys):
        code = main(["query", "-i", str(graph_file), "-g", "0.9", "-t", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "answers for enumerate" in out

    def test_enumerate_json_summary(self, graph_file, capsys):
        code = main(["query", "-i", str(graph_file), "-g", "0.9", "-t", "5",
                     "-a", "dcfastqc", "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)["result"]
        assert summary["algorithm"] == "dcfastqc"
        assert summary["maximal_count"] >= 1

    def test_enumerate_writes_output_file(self, graph_file, tmp_path, capsys):
        out_path = tmp_path / "mqcs.txt"
        main(["query", "-i", str(graph_file), "-g", "0.9", "-t", "5",
              "-o", str(out_path)])
        capsys.readouterr()
        assert out_path.exists()
        assert out_path.read_text().strip()

    def test_enumerate_dataset_uses_defaults(self, capsys):
        code = main(["query", "-d", "douban", "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)["result"]
        assert summary["maximal_count"] >= 1

    def test_enumerate_missing_parameters(self, graph_file):
        with pytest.raises(SystemExit):
            main(["query", "-i", str(graph_file)])

    def test_enumerate_missing_input(self):
        with pytest.raises(SystemExit):
            main(["query", "-g", "0.9", "-t", "5"])


class TestOtherCommands:
    def test_stats_command(self, graph_file, capsys):
        code = main(["stats", "-i", str(graph_file)])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        # Isolated vertices are not representable in an edge list, so the
        # round-tripped graph may be slightly smaller than the generated one.
        assert 20 <= stats["vertex_count"] <= 30
        assert stats["edge_count"] > 0

    def test_datasets_command(self, capsys):
        code = main(["datasets"])
        assert code == 0
        out = capsys.readouterr().out
        assert "enron" in out
        assert "uk2002" in out

    def test_table1_command_single_dataset(self, capsys):
        code = main(["table1", "douban", "--skip-quickplus"])
        assert code == 0
        out = capsys.readouterr().out
        assert "douban" in out
        assert "mqc_count" in out
