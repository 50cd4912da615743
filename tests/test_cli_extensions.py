"""Tests for the ``repro query`` workloads that cover the extensions (top-k, containment)."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.graph import write_edge_list
from repro.graph.generators import planted_quasi_clique_graph


@pytest.fixture
def graph_file(tmp_path):
    graph = planted_quasi_clique_graph(35, 45, [8, 6], 0.9, seed=5)
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return path


class TestTopkCommand:
    """``repro query --top K``: the k largest answers of size >= theta."""

    def test_exact_topk(self, graph_file, capsys):
        code = main(["query", "-i", str(graph_file), "-g", "0.9", "--top", "2", "-t", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# 2 answers for topk gamma=0.9 theta=4 k=2" in out

    def test_dataset_defaults(self, capsys):
        code = main(["query", "-d", "douban", "--top", "1", "-t", "5"])
        assert code == 0
        assert "# 1 answers for topk" in capsys.readouterr().out

    def test_missing_gamma(self, graph_file):
        with pytest.raises(SystemExit):
            main(["query", "-i", str(graph_file), "--top", "3"])


class TestCommunityCommand:
    """``repro query --containing V...``: the quasi-cliques around query vertices."""

    def test_community_around_planted_member(self, graph_file, capsys):
        code = main(["query", "-i", str(graph_file), "-g", "0.85", "-t", "4",
                     "--containing", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "answers for containment" in out
        assert "containing=0 " in out

    def test_community_with_dataset_defaults(self, capsys):
        code = main(["query", "-d", "douban", "--containing", "0"])
        assert code == 0
        assert "containing=0 " in capsys.readouterr().out

    def test_missing_parameters(self, graph_file):
        with pytest.raises(SystemExit):
            main(["query", "-i", str(graph_file), "--containing", "0"])

    def test_multiple_query_vertices(self, graph_file, capsys):
        code = main(["query", "-i", str(graph_file), "-g", "0.85", "-t", "4",
                     "--containing", "0", "1"])
        assert code == 0
        assert "containing=0,1" in capsys.readouterr().out
