"""Tests for the engine-backed CLI: ``repro query`` plans/explain and ``repro engine stats``."""

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
    def test_engine_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engine"])

    def test_engine_query_defaults(self):
        args = build_parser().parse_args(["query", "-d", "ca-grqc"])
        assert args.algorithm is None  # the planner decides
        assert args.workers is None

    def test_engine_query_requires_graph(self):
        with pytest.raises(SystemExit):
            main(["query", "-g", "0.9", "-t", "5"])


class TestEngineQuery:
    """``repro query`` runs through one :class:`MQCEEngine` (plan + cache)."""

    def test_query_on_dataset_defaults(self, capsys):
        code = main(["query", "-d", "twitter"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# 3 answers for enumerate gamma=0.9 theta=5" in out

    def test_query_json_includes_plan_and_stats(self, capsys):
        code = main(["query", "-d", "twitter", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["maximal_count"] >= 1
        assert payload["result"]["branches_explored"] >= 1
        assert payload["plan"]["algorithm"] in ("dcfastqc", "fastqc")

    def test_query_from_edge_list_file(self, graph_file, capsys):
        code = main(["query", "-i", str(graph_file), "-g", "0.9", "-t", "5"])
        assert code == 0
        assert "answers" in capsys.readouterr().out

    def test_query_writes_output_file(self, graph_file, tmp_path, capsys):
        out_path = tmp_path / "mqcs.txt"
        code = main(["query", "-i", str(graph_file), "-g", "0.9",
                     "-t", "5", "-o", str(out_path)])
        assert code == 0
        assert out_path.exists()
        assert out_path.read_text().strip()


class TestEngineExplain:
    """``repro query --explain`` prints the engine's plan without enumerating."""

    def test_explain_prints_plan_without_enumerating(self, capsys):
        code = main(["query", "-d", "ca-grqc", "--explain"])
        assert code == 0
        out = capsys.readouterr().out
        assert "QueryPlan" in out
        assert "algorithm:" in out
        assert "reduction:" in out
        # No quasi-clique listing: explain never enumerates.
        assert "answers" not in out

    def test_explain_json(self, capsys):
        code = main(["query", "-d", "ca-grqc", "--explain", "--json"])
        assert code == 0
        plan = json.loads(capsys.readouterr().out)["plan"]
        assert plan["algorithm"] == "dcfastqc"
        assert plan["core_vertices_kept"] + plan["core_vertices_removed"] \
            == plan["graph_vertices"]

    def test_explain_honours_forced_algorithm(self, capsys):
        code = main(["query", "-d", "ca-grqc", "--explain",
                     "--algorithm", "quickplus", "--json"])
        assert code == 0
        plan = json.loads(capsys.readouterr().out)["plan"]
        assert plan["algorithm"] == "quickplus"


class TestEngineStats:
    def test_stats_reports_artifacts_and_timings(self, capsys):
        code = main(["engine", "stats", "-d", "kmer"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "kmer"
        assert payload["fingerprint"]
        assert set(payload["preparation_seconds"]) == set(payload["artifacts"])
        assert payload["components"] >= 1
