"""Streaming enumeration tests: parity, incrementality, budgets, caching.

Satellite coverage for the QuerySpec redesign: on every registry dataset (and
each refactored MQCE-S1 algorithm on the smaller analogues),
``set(engine.stream(spec))`` must equal
``engine.query(spec).maximal_quasi_cliques``, budgets must be respected, and —
the acceptance criterion — a cold DC stream must yield its first maximal
quasi-clique before the enumeration completes.
"""

from __future__ import annotations

import pytest

from repro import Graph, MQCEEngine, QuerySpec, stream_maximal_quasi_cliques
from repro.datasets import dataset_names, get_spec, load_dataset
from repro.pipeline.streaming import QuasiCliqueStream

#: Analogues small enough to re-enumerate with every algorithm.
SMALL_ANALOGUES = ("douban", "twitter", "kmer", "ca-grqc")


def _fresh_query(name: str, **spec_fields):
    spec = get_spec(name)
    graph = spec.build()
    query_spec = QuerySpec(gamma=spec.default_gamma, theta=spec.default_theta,
                           **spec_fields)
    return graph, query_spec


class TestStreamingParity:
    @pytest.mark.parametrize("name", dataset_names())
    def test_stream_matches_query_on_every_registry_dataset(self, name):
        graph, spec = _fresh_query(name)
        engine = MQCEEngine()
        reference = engine.query(graph, spec)
        stream = MQCEEngine().stream(graph, spec)  # fresh engine: cold stream
        assert set(stream) == set(reference.maximal_quasi_cliques)
        assert stream.finished and not stream.truncated

    @pytest.mark.parametrize("name", SMALL_ANALOGUES)
    @pytest.mark.parametrize("algorithm", ["dcfastqc", "fastqc", "quickplus"])
    def test_stream_matches_query_per_algorithm(self, name, algorithm):
        graph, spec = _fresh_query(name, algorithm=algorithm)
        engine = MQCEEngine()
        reference = engine.query(graph, spec)
        stream = MQCEEngine().stream(graph, spec)
        assert set(stream) == set(reference.maximal_quasi_cliques)
        assert stream.finished

    def test_pipeline_level_stream_parity(self):
        graph = load_dataset("ca-grqc")
        spec = get_spec("ca-grqc")
        stream = stream_maximal_quasi_cliques(graph, spec.default_gamma,
                                              spec.default_theta)
        engine_result = MQCEEngine().query(graph, spec.default_gamma,
                                           spec.default_theta)
        assert set(stream) == set(engine_result.maximal_quasi_cliques)

    def test_streams_run_the_spec_kernel(self):
        from repro import Q

        graph, spec = _fresh_query("twitter", kernel="reference")
        expected = set(MQCEEngine().query(graph, spec).maximal_quasi_cliques)
        engine_stream = MQCEEngine().stream(graph, spec)
        assert set(engine_stream) == expected
        assert engine_stream._inner.enumerator.kernel == "reference"
        builder_stream = (Q(graph).gamma(spec.gamma).theta(spec.theta)
                          .replace(kernel="reference").stream())
        assert set(builder_stream) == expected
        assert builder_stream.enumerator.kernel == "reference"


class TestIncrementality:
    """Acceptance criterion: first yield arrives before enumeration completes."""

    def test_first_yield_before_enumeration_completes(self):
        graph, spec = _fresh_query("ca-grqc")
        stream = MQCEEngine().stream(graph, spec)
        first = next(stream)
        assert first  # a real maximal quasi-clique
        assert not stream.finished
        completed_at_first_yield = stream.subproblems_completed
        rest = list(stream)
        assert stream.finished
        assert stream.subproblems_completed > completed_at_first_yield
        # Everything seen plus the first item is exactly the full answer.
        reference = MQCEEngine().query(graph, spec.gamma, spec.theta)
        assert set([first] + rest) == set(reference.maximal_quasi_cliques)

    def test_incremental_yields_are_genuinely_maximal_even_when_cancelled(self):
        graph, spec = _fresh_query("ca-grqc")
        reference = set(MQCEEngine().query(graph, spec).maximal_quasi_cliques)
        stream = MQCEEngine().stream(graph, spec)
        first = next(stream)
        stream.cancel()
        leftovers = list(stream)
        assert stream.truncated or stream.finished
        assert set([first] + leftovers) <= reference


class TestBudgets:
    def test_max_results_stops_enumeration(self):
        graph, spec = _fresh_query("ca-grqc", max_results=2)
        stream = MQCEEngine().stream(graph, spec)
        delivered = list(stream)
        assert len(delivered) == 2
        assert stream.truncated and not stream.finished

    def test_max_results_larger_than_answer_finishes(self):
        graph, spec = _fresh_query("twitter", max_results=1000)
        stream = MQCEEngine().stream(graph, spec)
        delivered = list(stream)
        assert stream.finished and not stream.truncated
        assert 0 < len(delivered) < 1000

    def test_time_limit_truncates_quickly(self):
        graph, spec = _fresh_query("ca-grqc", time_limit=1e-9)
        stream = MQCEEngine().stream(graph, spec)
        delivered = list(stream)
        assert stream.truncated and not stream.finished
        assert delivered == []

    def test_query_with_time_limit_is_marked_truncated(self):
        graph, spec = _fresh_query("ca-grqc", time_limit=1e-9)
        result = MQCEEngine().query(graph, spec)
        assert result.truncated
        # An untruncated run of the same parameters is NOT served from the
        # budgeted one (which was never cached).
        engine = MQCEEngine()
        full = engine.query(graph, QuerySpec(gamma=spec.gamma, theta=spec.theta))
        assert not full.truncated
        assert len(engine.cache) == 1

    def test_terminal_flush_budgets(self):
        graph, spec = _fresh_query("twitter", algorithm="fastqc", max_results=1)
        stream = MQCEEngine().stream(graph, spec)
        assert len(list(stream)) == 1
        assert stream.truncated


class TestWorkloadStreams:
    def test_count_with_containment_respects_constraint(self):
        graph = load_dataset("twitter")
        spec = QuerySpec(gamma=0.9, theta=5, contains=(0,), count_only=True)
        engine = MQCEEngine()
        streamed = list(engine.stream(graph, spec))
        assert len(streamed) == 1 and all(0 in c for c in streamed)
        # The full-enumeration answer must NOT have been cached under the
        # containment key: query() still sees the constrained count.
        assert engine.query(graph, spec).maximal_count == 1

    def test_eager_stream_with_limit_reports_truncated(self):
        graph = load_dataset("twitter")
        stream = MQCEEngine().stream(graph, QuerySpec(gamma=0.9, theta=3,
                                                      k=2, max_results=1))
        assert len(list(stream)) == 1
        assert stream.truncated and not stream.finished

    def test_slow_consumer_does_not_inflate_cached_timings(self):
        import time as time_module

        graph = load_dataset("twitter")
        engine = MQCEEngine()
        stream = engine.stream(graph, QuerySpec(gamma=0.9, theta=5))
        for _ in stream:
            time_module.sleep(0.05)  # consumer think-time between answers
        cached = engine.query(graph, QuerySpec(gamma=0.9, theta=5))
        assert engine.cache.stats.hits == 1
        assert cached.enumeration_seconds < 0.05


class TestStreamCaching:
    def test_completed_stream_populates_cache(self):
        graph, spec = _fresh_query("twitter")
        engine = MQCEEngine()
        cold = list(engine.stream(graph, spec))
        assert len(engine.cache) == 1
        warm = engine.query(graph, spec)
        assert engine.cache.stats.hits == 1
        assert set(cold) == set(warm.maximal_quasi_cliques)

    def test_warm_stream_replays_from_cache(self):
        graph, spec = _fresh_query("twitter")
        engine = MQCEEngine()
        reference = engine.query(graph, spec)
        stream = engine.stream(graph, spec)
        replayed = list(stream)
        assert stream.from_cache and stream.finished
        assert replayed == list(reference.maximal_quasi_cliques)

    def test_truncated_stream_does_not_pollute_cache(self):
        graph, spec = _fresh_query("ca-grqc", max_results=1)
        engine = MQCEEngine()
        list(engine.stream(graph, spec))
        assert len(engine.cache) == 0

    def test_trivial_plan_streams_empty(self):
        engine = MQCEEngine()
        triangle = Graph(edges=[(1, 2), (2, 3), (1, 3)])
        stream = engine.stream(triangle, QuerySpec(gamma=1.0, theta=10))
        assert list(stream) == []
        assert stream.finished


class TestStreamCancel:
    """Regression: ResultStream.cancel must be thread-safe and idempotent.

    The serve layer cancels streams from the asyncio event loop while an
    executor thread is consuming them, and may cancel *before* iteration has
    created the inner enumeration — both used to be unsafe."""

    def test_cancel_before_iteration_yields_nothing(self):
        graph, spec = _fresh_query("ca-grqc")
        engine = MQCEEngine()
        stream = engine.stream(graph, spec)
        stream.cancel()  # before __iter__ ever ran
        assert stream.cancelled
        assert list(stream) == []
        assert stream.truncated and not stream.finished
        assert len(engine.cache) == 0  # a cancelled stream never caches

    def test_cancel_mid_iteration_stops_promptly(self):
        graph, spec = _fresh_query("ca-grqc")
        engine = MQCEEngine()
        stream = engine.stream(graph, spec)
        reference = MQCEEngine().query(graph, spec).maximal_count
        delivered = []
        for clique in stream:
            delivered.append(clique)
            stream.cancel()
        assert len(delivered) == 1 < reference
        assert stream.truncated and not stream.finished
        assert len(engine.cache) == 0

    def test_cancel_from_another_thread(self):
        import threading

        graph, spec = _fresh_query("ca-grqc")
        stream = MQCEEngine().stream(graph, spec)
        first_answer = threading.Event()
        release = threading.Event()
        delivered = []

        def consume() -> None:
            for clique in stream:
                delivered.append(clique)
                first_answer.set()
                release.wait(timeout=10)

        consumer = threading.Thread(target=consume)
        consumer.start()
        assert first_answer.wait(timeout=10)
        stream.cancel()   # from this thread, mid-consumption
        stream.cancel()   # idempotent
        release.set()
        consumer.join(timeout=10)
        assert not consumer.is_alive()
        assert stream.cancelled and stream.truncated
        total = MQCEEngine().query(graph, spec).maximal_count
        assert len(delivered) < total

    def test_cancel_after_completion_is_a_no_op(self):
        graph, spec = _fresh_query("twitter")
        stream = MQCEEngine().stream(graph, spec)
        answers = list(stream)
        assert stream.finished
        stream.cancel()
        assert stream.cancelled
        assert stream.finished  # completion already recorded; not rewritten
        assert answers  # the delivered answers are untouched


class TestEnumeratorRefactor:
    def test_batches_concatenate_to_enumerate(self):
        from repro.core.dcfastqc import DCFastQC

        graph = load_dataset("twitter")
        batches = list(DCFastQC(graph, 0.9, 5).iter_candidate_batches())
        flat = [clique for batch in batches for clique in batch]
        assert flat == DCFastQC(graph, 0.9, 5).enumerate()
        assert len(batches) > 1

    @pytest.mark.parametrize("algorithm", ["dcfastqc", "fastqc", "quickplus"])
    def test_should_stop_halts_early_with_partial_results(self, algorithm):
        from repro.pipeline.mqce import build_enumerator

        graph = load_dataset("ca-grqc")
        calls = {"n": 0}

        def stop_after_a_few():
            calls["n"] += 1
            return calls["n"] > 5

        enumerator = build_enumerator(graph, 0.9, 7, algorithm=algorithm,
                                      should_stop=stop_after_a_few)
        partial = enumerator.enumerate()
        assert enumerator.stopped
        full = build_enumerator(graph, 0.9, 7, algorithm=algorithm).enumerate()
        assert set(partial) <= set(full)
        assert len(partial) < len(full) or not full
