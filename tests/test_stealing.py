"""Work-stealing branch parallelism: codec, steal-protocol parity, recovery.

The differential heart of this file is *branch-for-branch* parity: a stolen
subtree must reproduce exactly the candidate sets the sequential driver would
have produced from the same branch, and the donor/thief branch counts must add
up to the sequential run's.  :class:`repro.extensions.stealing.InlineStealRuntime`
drives the real scheduler surfaces deterministically (seeded steal points via
:class:`ForcedStealSchedule`), so the grid sweeps every steal cadence without
multiprocessing nondeterminism; the multiprocess tests then cover the actual
shared-memory transport, natural hungry-driven stealing and crash fallback.
"""

import glob

import pytest

from repro.core.dcfastqc import DCFastQC
from repro.core.fastqc import FastQC
from repro.core.stats import SizeHistogram
from repro.engine.planner import PlannerConfig, QueryPlanner
from repro.engine.prepared import PreparedGraph
from repro.errors import FaultInjectedError
from repro.extensions.parallel import (ParallelDCFastQC, branch_histogram_skew,
                                       branch_mode_wins, histogram_skew,
                                       run_compact_subproblem)
from repro.extensions.stealing import (ForcedStealSchedule, InlineStealRuntime,
                                       SEGMENT_PREFIX, SharedSubproblemStore,
                                       SubproblemCache, branch_parallel_enumerate,
                                       decode_subproblem, encode_subproblem)
from repro.graph.generators import barabasi_albert
from repro.resilience.faults import install_plan, reset_plan
from repro.settrie.filter import filter_non_maximal

GAMMA, THETA = 0.85, 4


def _subproblems(graph, gamma=GAMMA, theta=THETA):
    return tuple(DCFastQC(graph, gamma, theta).iter_compact_subproblems())


def _shm_segments():
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")


def _sequential_answer(graph, gamma=GAMMA, theta=THETA):
    candidates = set()
    for subproblem in _subproblems(graph, gamma, theta):
        chunk, _, _ = run_compact_subproblem(subproblem, gamma, theta)
        candidates.update(chunk)
    return candidates


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(160, attachment=8, seed=3)


@pytest.fixture(scope="module")
def subproblems(graph):
    found = _subproblems(graph)
    assert found, "fixture graph must decompose into nontrivial subproblems"
    return found


# ----------------------------------------------------------------------
# Shared-memory codec
# ----------------------------------------------------------------------
class TestCodec:
    def test_roundtrip_preserves_every_field(self, subproblems):
        for subproblem in subproblems:
            clone = decode_subproblem(encode_subproblem(subproblem))
            assert clone.root_local == subproblem.root_local
            assert clone.labels == subproblem.labels
            assert clone.adjacency_masks == subproblem.adjacency_masks
            assert clone.halo_labels == subproblem.halo_labels
            assert clone.halo_adjacency == subproblem.halo_adjacency

    def test_store_publish_attach_and_unlink(self, subproblems):
        store = SharedSubproblemStore()
        cache = SubproblemCache()
        try:
            tokens = [store.publish(s) for s in subproblems[:4]]
            assert len(_shm_segments()) >= len(tokens)
            for token, original in zip(tokens, subproblems[:4]):
                assert cache.get(token).labels == original.labels
            # Attach-once: repeated gets hand back the same decoded object.
            assert cache.get(tokens[0]) is cache.get(tokens[0])
        finally:
            cache.close()
            store.close()
        assert _shm_segments() == []


# ----------------------------------------------------------------------
# Branch-for-branch differential parity (deterministic inline protocol)
# ----------------------------------------------------------------------
class TestInlineStealParity:
    @pytest.mark.parametrize("every", [1, 2, 3])
    @pytest.mark.parametrize("offset", [0, 1])
    def test_stolen_subtrees_reproduce_sequential_branches(
            self, subproblems, every, offset):
        total_steals = 0
        for subproblem in subproblems:
            local = subproblem.build_graph()
            maximality = (subproblem.build_maximality_graph()
                          if subproblem.halo_labels else local)
            reference = FastQC(local, GAMMA, THETA, maximality_graph=maximality)
            expected = set(reference.enumerate_branch(subproblem.initial_branch()))

            emissions: list[frozenset] = []

            def make_engine():
                return FastQC(local, GAMMA, THETA, maximality_graph=maximality,
                              on_output=emissions.append)

            donor = make_engine()
            runtime = InlineStealRuntime(
                make_engine, ForcedStealSchedule(every=every, offset=offset))
            runtime.enumerate(donor, subproblem.initial_branch())

            assert set(emissions) == expected
            combined = donor.statistics.branches_explored + sum(
                thief.statistics.branches_explored
                for thief in runtime.thief_engines)
            assert combined == reference.statistics.branches_explored
            total_steals += runtime.steals
        assert total_steals > 0, "the forced schedule must actually steal"


# ----------------------------------------------------------------------
# Multiprocess transport parity
# ----------------------------------------------------------------------
class TestBranchParallel:
    def test_forced_aggressive_stealing_matches_sequential(self, graph,
                                                           subproblems):
        expected = _sequential_answer(graph)
        results, stats, telemetry = branch_parallel_enumerate(
            subproblems, GAMMA, THETA, workers=3,
            steal_schedule=ForcedStealSchedule(every=1))
        assert set(results) == expected
        assert stats.steals > 0
        assert telemetry["steals"] == stats.steals
        assert _shm_segments() == []

    def test_natural_hungry_driven_stealing_matches_sequential(
            self, graph, subproblems):
        expected = _sequential_answer(graph)
        results, stats, _ = branch_parallel_enumerate(
            subproblems, GAMMA, THETA, workers=3)
        assert set(results) == expected
        assert _shm_segments() == []

    def test_branch_counts_add_up_to_sequential(self, graph, subproblems):
        sequential_branches = 0
        for subproblem in subproblems:
            _, _, stats = run_compact_subproblem(subproblem, GAMMA, THETA)
            sequential_branches += stats.branches_explored
        _, stats, _ = branch_parallel_enumerate(
            subproblems, GAMMA, THETA, workers=3,
            steal_schedule=ForcedStealSchedule(every=2))
        assert stats.branches_explored == sequential_branches


# ----------------------------------------------------------------------
# Crash recovery: a dead pool or steal worker costs time, never the answer
# ----------------------------------------------------------------------
class TestCrashRecovery:
    @pytest.mark.parametrize("mode, plan, raises", [
        ("branch", "worker.task:kill:times=1", None),
        ("shard", "engine.subproblem:kill:times=1", None),
        # A worker-side exception is not a crash: it surfaces typed.
        ("shard", "engine.subproblem:raise:times=1", FaultInjectedError),
    ], ids=["branch-kill", "shard-kill", "shard-raise"])
    def test_killed_worker_falls_back_sequential_without_shm_leak(
            self, graph, mode, plan, raises):
        expected = filter_non_maximal(
            sorted(_sequential_answer(graph),
                   key=lambda h: (-len(h), sorted(map(str, h)))),
            theta=THETA)
        install_plan(plan)
        try:
            # chunk_size=1 forces a real pool even for few subproblems.
            runner = ParallelDCFastQC(graph, GAMMA, THETA, workers=2,
                                      chunk_size=1, mode=mode)
            if raises is None:
                answers = runner.find_maximal()
            else:
                with pytest.raises(raises):
                    runner.find_maximal()
        finally:
            reset_plan()
        assert _shm_segments() == []
        if raises is None:
            assert runner.mode_selected == "sequential"
            assert sorted(map(sorted, answers)) == sorted(map(sorted, expected))


# ----------------------------------------------------------------------
# Satellite 1: no pointless pools
# ----------------------------------------------------------------------
class TestInProcessFallback:
    def test_workers_one_never_spawns_a_pool(self, graph, monkeypatch):
        import repro.extensions.parallel as parallel_module

        def _boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("workers=1 must not create a process pool")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", _boom)
        monkeypatch.setattr(parallel_module, "branch_parallel_enumerate", _boom)
        runner = ParallelDCFastQC(graph, GAMMA, THETA, workers=1)
        answers = runner.enumerate()
        assert runner.mode_selected == "sequential"
        assert set(answers) == _sequential_answer(graph)

    def test_single_subproblem_runs_inline_under_shard(self, monkeypatch):
        import repro.extensions.parallel as parallel_module

        # A small clique decomposes into fewer subproblems than half a pool
        # chunk: shard mode must keep them in-process instead of paying pool
        # startup for work it cannot spread.
        from repro.graph.graph import Graph
        clique = Graph()
        for u in range(6):
            for v in range(u + 1, 6):
                clique.add_edge(u, v)

        def _boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("a handful of subproblems must not create a pool")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", _boom)
        runner = ParallelDCFastQC(clique, 0.9, 4, workers=4, mode="shard")
        answers = runner.enumerate()
        assert runner.mode_selected == "sequential"
        assert frozenset(range(6)) in set(answers)

    def test_cpu_count_none_defaults_to_one_worker(self, monkeypatch):
        import repro.extensions.parallel as parallel_module
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: None)
        runner = ParallelDCFastQC(barabasi_albert(30, attachment=3, seed=1),
                                  GAMMA, THETA)
        assert runner.workers == 1


# ----------------------------------------------------------------------
# Planner mode selection on synthetic histograms
# ----------------------------------------------------------------------
def _skewed_histogram(dominant=800, trivial=60):
    histogram = SizeHistogram()
    for _ in range(trivial):
        histogram.record(4)
    histogram.record(dominant)
    return histogram


def _uniform_histogram(size=24, count=64):
    histogram = SizeHistogram()
    for _ in range(count):
        histogram.record(size)
    return histogram


class TestPlannerModeSelection:
    def _planner(self):
        return QueryPlanner(PlannerConfig(parallel_min_vertices=32,
                                          max_workers=4))

    def test_branch_mode_wins_rule(self):
        largest, total = histogram_skew(_skewed_histogram())
        assert branch_mode_wins(largest, total, workers=4)
        largest, total = histogram_skew(_uniform_histogram())
        assert not branch_mode_wins(largest, total, workers=4)

    def test_observed_skew_selects_branch(self, graph):
        prepared = PreparedGraph(graph)
        prepared.record_subproblem_histogram(GAMMA, THETA, _skewed_histogram())
        plan = self._planner().plan(prepared, GAMMA, THETA, workers=4)
        assert plan.parallel and plan.parallel_mode == "branch"
        assert plan.histogram_source == "observed-sizes"
        assert plan.skew_ratio >= plan.skew_threshold
        assert "branch" in plan.describe()

    def test_observed_branch_counts_trump_the_size_proxy(self, graph):
        # A descending chain of similar-size balls defeats any size-based work
        # proxy (each is ~1/k of the quadratic total), yet the actual work can
        # concentrate in one subtree.  Recorded branch counts expose it.
        prepared = PreparedGraph(graph)
        sizes = SizeHistogram()
        for size in range(32, 8, -1):
            sizes.record(size)
        branches = SizeHistogram()
        for _ in range(22):
            branches.record(1000)
        branches.record(50_000)
        prepared.record_subproblem_histogram(GAMMA, THETA, sizes)
        prepared.record_subproblem_histogram(GAMMA, THETA, branches,
                                             kind="branches")
        plan = self._planner().plan(prepared, GAMMA, THETA, workers=4)
        assert plan.histogram_source == "observed-branches"
        assert plan.parallel_mode == "branch"
        assert "branches" in plan.describe()
        # The size histogram alone would have (wrongly) kept shard mode.
        largest, total = histogram_skew(sizes)
        assert not branch_mode_wins(largest, total, workers=4)
        largest, total = branch_histogram_skew(branches)
        assert branch_mode_wins(largest, total, workers=4)

    def test_observed_uniform_selects_shard(self, graph):
        prepared = PreparedGraph(graph)
        prepared.record_subproblem_histogram(GAMMA, THETA, _uniform_histogram())
        plan = self._planner().plan(prepared, GAMMA, THETA, workers=4)
        assert plan.parallel and plan.parallel_mode == "shard"
        assert plan.skew_ratio < plan.skew_threshold

    def test_estimated_histogram_backs_the_cold_decision(self, graph):
        plan = self._planner().plan(PreparedGraph(graph), GAMMA, THETA,
                                    workers=4)
        assert plan.parallel
        assert plan.histogram_source == "estimated"
        assert plan.parallel_mode in ("shard", "branch")

    def test_forced_modes_and_none(self, graph):
        prepared = PreparedGraph(graph)
        planner = self._planner()
        assert planner.plan(prepared, GAMMA, THETA, workers=4,
                            parallel="branch").parallel_mode == "branch"
        assert planner.plan(prepared, GAMMA, THETA, workers=4,
                            parallel="shard").parallel_mode == "shard"
        disabled = planner.plan(prepared, GAMMA, THETA, workers=4,
                                parallel="none")
        assert not disabled.parallel and disabled.parallel_mode == "none"

    def test_new_observation_invalidates_the_plan_memo(self, graph):
        prepared = PreparedGraph(graph)
        planner = self._planner()
        cold = planner.plan(prepared, GAMMA, THETA, workers=4)
        assert cold.histogram_source == "estimated"
        prepared.record_subproblem_histogram(GAMMA, THETA, _skewed_histogram())
        warm = planner.plan(prepared, GAMMA, THETA, workers=4)
        assert warm.histogram_source == "observed-sizes"
        assert warm.parallel_mode == "branch"
