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
import subprocess
import sys
import textwrap

import pytest

from repro.core.dcfastqc import DCFastQC
from repro.core.fastqc import FastQC
from repro.core.stats import SizeHistogram
from repro.engine.planner import PlannerConfig, QueryPlanner
from repro.engine.prepared import PreparedGraph
from repro.extensions import parallel as parallel_module
from repro.extensions.parallel import LAST_PARALLEL_RUN, ParallelDCFastQC
from repro.extensions.stealing import (ForcedStealSchedule, InlineStealRuntime,
                                       SEGMENT_PREFIX, SharedSubproblemStore,
                                       SubproblemCache, WorkerCrash,
                                       branch_parallel_enumerate,
                                       decode_subproblem, encode_subproblem)
from repro.obs.metrics import REGISTRY
from repro.graph.generators import barabasi_albert
from repro.resilience.faults import install_plan, reset_plan
from repro.settrie.filter import filter_non_maximal

GAMMA, THETA = 0.85, 4


def _subproblems(graph, gamma=GAMMA, theta=THETA):
    return tuple(DCFastQC(graph, gamma, theta).iter_compact_subproblems())


def _shm_segments():
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")


def _oracle(subproblem, gamma=GAMMA, theta=THETA):
    """A sequential FastQC over one compact subproblem (ball + halo)."""
    return FastQC(subproblem.build_graph(), gamma, theta,
                  maximality_graph=subproblem.build_maximality_graph())


def _sequential_answer(graph, gamma=GAMMA, theta=THETA):
    candidates = set()
    for subproblem in _subproblems(graph, gamma, theta):
        candidates.update(_oracle(subproblem, gamma, theta).enumerate_branch(
            subproblem.initial_branch()))
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
        assert len(subproblems) > 1
        before = set(_shm_segments())
        store = SharedSubproblemStore()
        try:
            name = store.publish(subproblems)
            # Every subproblem lives in one segment: O(1) descriptors per run.
            assert set(_shm_segments()) - before == {f"/dev/shm/{name}"}
            cache = SubproblemCache(name)
            try:
                for index, original in enumerate(subproblems):
                    clone = cache.get(index)
                    assert clone.labels == original.labels
                    assert clone.adjacency_masks == original.adjacency_masks
                    assert clone.halo_adjacency == original.halo_adjacency
                # Decode-once: repeated gets hand back the same object.
                assert cache.get(0) is cache.get(0)
            finally:
                cache.close()
        finally:
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
            oracle = _oracle(subproblem)
            oracle.enumerate_branch(subproblem.initial_branch())
            sequential_branches += oracle.statistics.branches_explored
        _, stats, _ = branch_parallel_enumerate(
            subproblems, GAMMA, THETA, workers=3,
            steal_schedule=ForcedStealSchedule(every=2))
        assert stats.branches_explored == sequential_branches


# ----------------------------------------------------------------------
# Crash recovery: a dead or failing steal worker costs time, never the answer
# ----------------------------------------------------------------------
class TestCrashRecovery:
    @pytest.mark.parametrize("plan", [
        "worker.task:kill:times=1",
        "worker.task:raise:times=1",
    ], ids=["branch-kill", "branch-raise"])
    def test_killed_worker_falls_back_sequential_without_shm_leak(
            self, graph, plan):
        expected = filter_non_maximal(
            sorted(_sequential_answer(graph),
                   key=lambda h: (-len(h), sorted(map(str, h)))),
            theta=THETA)
        install_plan(plan)
        try:
            runner = ParallelDCFastQC(graph, GAMMA, THETA, workers=2)
            answers = runner.find_maximal()
        finally:
            reset_plan()
        assert _shm_segments() == []
        assert runner.mode_selected == "sequential"
        assert sorted(map(sorted, answers)) == sorted(map(sorted, expected))

    def test_fallback_is_recorded_not_silent(self, graph, monkeypatch):
        def _crash(*args, **kwargs):
            raise WorkerCrash("worker pid=1 died (exitcode=-9)")

        runs = REGISTRY.counter("repro_parallel_runs_total")
        before = runs.value(mode="fallback")
        ParallelDCFastQC(graph, GAMMA, THETA, workers=2).enumerate()
        assert LAST_PARALLEL_RUN["mode"] == "branch"
        monkeypatch.setattr(parallel_module, "branch_parallel_enumerate", _crash)
        runner = ParallelDCFastQC(graph, GAMMA, THETA, workers=2)
        assert set(runner.enumerate()) == _sequential_answer(graph)
        assert runner.mode_selected == "sequential"
        assert LAST_PARALLEL_RUN == {
            "mode": "sequential",
            "fallback": "WorkerCrash: worker pid=1 died (exitcode=-9)"}
        assert runs.value(mode="fallback") == before + 1

    def test_descriptor_limit_does_not_force_a_fallback(self):
        # One segment per run, not per subproblem: a graph with ~10^3
        # subproblems still runs in the pool under a 64-descriptor limit.
        script = textwrap.dedent("""
            import resource
            _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
            resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))
            from repro.core.dcfastqc import DCFastQC
            from repro.extensions.parallel import ParallelDCFastQC
            from repro.graph.generators import barabasi_albert
            graph = barabasi_albert(3000, attachment=6, seed=1)
            runner = ParallelDCFastQC(graph, 0.8, 4, workers=2)
            answers = set(runner.enumerate())
            assert runner.mode_selected == "branch", runner.mode_selected
            assert answers == set(DCFastQC(graph, 0.8, 4).enumerate())
        """)
        completed = subprocess.run([sys.executable, "-c", script],
                                   capture_output=True, text=True, timeout=300)
        assert completed.returncode == 0, completed.stderr
        assert _shm_segments() == []


# ----------------------------------------------------------------------
# No pointless pools
# ----------------------------------------------------------------------
class TestInProcessFallback:
    def test_workers_one_never_spawns_a_pool(self, graph, monkeypatch):
        def _boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("workers=1 must not create a worker pool")

        monkeypatch.setattr(parallel_module, "branch_parallel_enumerate", _boom)
        runner = ParallelDCFastQC(graph, GAMMA, THETA, workers=1)
        answers = runner.enumerate()
        assert runner.mode_selected == "sequential"
        assert set(answers) == _sequential_answer(graph)

    def test_cpu_count_none_defaults_to_one_worker(self, monkeypatch):
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: None)
        runner = ParallelDCFastQC(barabasi_albert(30, attachment=3, seed=1),
                                  GAMMA, THETA)
        assert runner.workers == 1


# ----------------------------------------------------------------------
# The planner's parallel gate
# ----------------------------------------------------------------------
class TestPlannerModeSelection:
    def test_forced_modes_and_none(self, graph):
        prepared = PreparedGraph(graph)
        planner = QueryPlanner(PlannerConfig(max_workers=4))
        forced = planner.plan(prepared, GAMMA, THETA, workers=4,
                              parallel="branch")
        assert forced.parallel and forced.parallel_mode == "branch"
        assert "branch" in forced.describe()
        disabled = planner.plan(prepared, GAMMA, THETA, workers=4,
                                parallel="none")
        assert not disabled.parallel and disabled.parallel_mode == "none"
        with pytest.raises(ValueError):
            planner.plan(prepared, GAMMA, THETA, workers=4, parallel="shard")

    def test_new_observation_invalidates_the_plan_memo(self, graph):
        prepared = PreparedGraph(graph)
        planner = QueryPlanner()
        cold = planner.plan(prepared, GAMMA, THETA, workers=4)
        assert not cold.parallel and cold.parallel_mode == "none"
        branches = SizeHistogram()
        for _ in range(8):
            branches.record(planner.config.parallel_min_branches // 8 + 1)
        prepared.record_subproblem_histogram(GAMMA, THETA, branches)
        warm = planner.plan(prepared, GAMMA, THETA, workers=4)
        assert warm.parallel and warm.parallel_mode == "branch"
        assert warm.workers == 4
