"""Tests for the unified ``repro query`` CLI command and error mapping."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.graph import write_edge_list
from repro.graph.generators import planted_quasi_clique_graph


@pytest.fixture
def graph_file(tmp_path):
    graph = planted_quasi_clique_graph(30, 40, [7], 0.9, seed=2)
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return path


class TestQueryCommand:
    def test_enumerate_with_dataset_defaults(self, capsys):
        assert main(["query", "-d", "twitter"]) == 0
        out = capsys.readouterr().out
        assert "enumerate gamma=0.9 theta=5" in out
        assert "# 3 answers" in out

    def test_count(self, capsys):
        assert main(["query", "-d", "twitter", "--count"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_top_k(self, capsys):
        assert main(["query", "-d", "twitter", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "# 2 answers for topk" in out

    def test_containing(self, capsys):
        assert main(["query", "-d", "twitter", "--containing", "0"]) == 0
        out = capsys.readouterr().out
        assert "containing=0" in out

    def test_stream_prints_incrementally_with_summary(self, capsys):
        assert main(["query", "-d", "twitter", "--stream"]) == 0
        out = capsys.readouterr().out
        assert "maximal quasi-cliques streamed" in out
        assert "complete" in out

    def test_limit_budget(self, capsys):
        assert main(["query", "-d", "twitter", "--stream", "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "# 1 maximal quasi-cliques streamed" in out
        assert "truncated by budget" in out

    def test_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"gamma": 0.9, "theta": 5, "k": 1}))
        assert main(["query", "-d", "twitter", "--spec", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "topk" in out and "k=1" in out

    def test_flags_override_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"gamma": 0.9, "theta": 4}))
        assert main(["query", "-d", "twitter", "--spec", str(spec_path),
                     "--theta", "5"]) == 0
        assert "theta=5" in capsys.readouterr().out

    def test_from_edge_list_file(self, graph_file, capsys):
        assert main(["query", "-i", str(graph_file), "-g", "0.9", "-t", "5"]) == 0
        assert "answers" in capsys.readouterr().out

    def test_json_payload(self, capsys):
        assert main(["query", "-d", "twitter", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["gamma"] == 0.9
        assert payload["result"]["maximal_count"] == 3
        assert payload["plan"]["algorithm"]

    def test_explain(self, capsys):
        assert main(["query", "-d", "twitter", "--explain"]) == 0
        assert "QueryPlan" in capsys.readouterr().out

    def test_output_file(self, graph_file, tmp_path, capsys):
        target = tmp_path / "out.txt"
        assert main(["query", "-i", str(graph_file), "-g", "0.9", "-t", "5",
                     "-o", str(target)]) == 0
        assert target.read_text().strip()
        capsys.readouterr()

    def test_stream_honours_output_file(self, tmp_path, capsys):
        target = tmp_path / "streamed.txt"
        assert main(["query", "-d", "twitter", "--stream", "-o", str(target)]) == 0
        assert len(target.read_text().strip().splitlines()) == 3
        capsys.readouterr()

    def test_stream_json_lines(self, capsys):
        assert main(["query", "-d", "twitter", "--stream", "--json"]) == 0
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 4  # 3 answers + 1 summary
        assert all("clique" in line for line in lines[:-1])
        assert lines[-1]["delivered"] == 3 and lines[-1]["state"] == "complete"


class TestIngestCommand:
    @pytest.fixture
    def twitter_file(self, tmp_path):
        from repro.datasets import load_dataset

        path = tmp_path / "twitter.txt"
        write_edge_list(load_dataset("twitter"), path)
        return str(path)

    def test_json_query(self, twitter_file, capsys):
        assert main(["ingest", twitter_file, "-g", "0.85", "-t", "6",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["backend"] == "csr"
        assert (report["vertices"], report["edges"]) == (420, 880)
        assert (report["gamma"], report["theta"]) == (0.85, 6)
        assert report["maximal"] == 3 and not report["truncated"]

    def test_limit_caps_reported_answers(self, twitter_file, capsys):
        assert main(["ingest", twitter_file, "-g", "0.85", "-t", "6",
                     "--limit", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["maximal"] == 2


class TestErrorMapping:
    """Satellite: ReproError exits with code 2 and a one-line message."""

    def test_invalid_gamma_exits_2(self, capsys):
        assert main(["query", "-d", "twitter", "--gamma", "2.0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "gamma" in captured.err
        assert "Traceback" not in captured.err

    def test_invalid_spec_field_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"gamma": 0.9, "bogus": True}))
        assert main(["query", "-d", "twitter", "--spec", str(spec_path)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_malformed_spec_file_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{not json")
        assert main(["query", "-d", "twitter", "--spec", str(spec_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_spec_file_exits_2(self, tmp_path, capsys):
        assert main(["query", "-d", "twitter", "--spec",
                     str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_vertex_exits_2(self, capsys):
        assert main(["query", "-d", "twitter", "--containing", "no-such-vertex"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_gamma_below_half_exits_2(self, capsys):
        assert main(["query", "-d", "twitter", "--gamma", "0.3"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_non_positive_workers_exits_2(self, workers, capsys):
        assert main(["query", "-d", "twitter", "--workers", workers,
                     "--parallel", "branch"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: workers must be >= 1")

    def test_unknown_dataset_exits_2_with_one_line(self, capsys):
        assert main(["query", "-d", "nosuch", "-g", "0.9", "-t", "5"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: unknown dataset 'nosuch'")
