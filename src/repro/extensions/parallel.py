"""Parallel DCFastQC: process-level parallelism over the DC subproblems.

The paper's conclusion lists "efficient parallel implementations" as future
work, and its related work covers a task-parallel Quick+ (T-thinker).  The
divide-and-conquer framework is embarrassingly parallel: every subproblem
``(v_i, G_i)`` is independent, so this module hands the subproblems to a pool
of worker processes, runs the same FastQC engine in each worker and merges the
outputs before the usual MQCE-S2 filter.

The parent process does the cheap global preprocessing (core reduction,
degeneracy ordering, per-root two-hop shrinking) exactly once and ships each
subproblem as a *compact* payload
(:class:`~repro.core.dcfastqc.CompactSubproblem`): the subproblem's vertices
remapped to a dense local index space with their within-subproblem adjacency
bitmasks.  Workers therefore decode and enumerate graphs whose bitmask and
ledger widths track the subproblem size, not the input graph.

Each payload also carries the subproblem's **one-hop maximality halo** (the
outside neighbours of the ball with their adjacency into it), so workers apply
the maximality necessary-condition filter against exactly the evidence the
sequential driver's full-graph check would consult: the emitted candidate sets
are identical to the sequential driver's, batch for batch, not merely after
the MQCE-S2 set-trie filter.

There is one pool: the work-stealing runtime of
:mod:`repro.extensions.stealing`.  Whole subproblems are its initial tasks, and
an idle worker steals pending subtrees from a busy one, so a run balances
itself whether the subproblems are even or one of them dominates.
"""

from __future__ import annotations

import os

from ..core.dcfastqc import CompactSubproblem, DCFastQC, DEFAULT_MAX_ROUNDS
from ..core.stats import SearchStatistics
from ..graph.graph import Graph
from ..obs.metrics import REGISTRY
from ..quasiclique.definitions import validate_parameters
from ..settrie.filter import filter_non_maximal
from .stealing import WorkerCrash, branch_parallel_enumerate

#: Values the ``mode`` knob accepts; both run the work-stealing pool.
PARALLEL_MODES = ("auto", "branch")

_STEALS = REGISTRY.counter(
    "repro_parallel_steals_total",
    "Subtrees stolen between branch-parallel workers")
_IDLE_GAPS = REGISTRY.histogram(
    "repro_parallel_idle_gap_ms",
    "Milliseconds branch-parallel workers spent idle between tasks")
_UTILIZATION = REGISTRY.gauge(
    "repro_parallel_utilization",
    "busy_seconds / (workers * wall_seconds) of the last parallel run")
_MODES = REGISTRY.counter(
    "repro_parallel_runs_total",
    "Parallel enumerations by resolved execution mode")

#: Telemetry of the most recent parallel run in this process (surfaced by
#: ``repro engine stats`` next to the registry metrics).
LAST_PARALLEL_RUN: dict = {}


class ParallelDCFastQC:
    """DCFastQC with the per-vertex subproblems distributed over processes.

    Parameters mirror :class:`repro.core.dcfastqc.DCFastQC` plus ``workers``
    (process count, default: CPU count capped at 8) and ``mode`` — one of
    :data:`PARALLEL_MODES`, both of which run the work-stealing pool.

    With ``workers=1`` everything runs in-process.  A run whose pool cannot
    start or loses a worker falls back to the sequential driver, and records
    the fallback in :data:`LAST_PARALLEL_RUN`.  After ``enumerate``,
    :attr:`statistics` holds the parent shrink-phase counters merged with
    every worker's counters (branch counts add up exactly to a sequential
    run's) and :attr:`mode_selected` names the path actually taken
    (``"sequential"`` or ``"branch"``).
    """

    def __init__(self, graph: Graph, gamma: float, theta: int,
                 branching: str = "hybrid", kernel: str = "ledger",
                 max_rounds: int = DEFAULT_MAX_ROUNDS,
                 workers: int | None = None, mode: str = "auto",
                 steal_schedule=None) -> None:
        # Accept an engine PreparedGraph transparently (lazy import: no cycle).
        from ..engine.prepared import as_plain_graph

        graph = as_plain_graph(graph)
        validate_parameters(gamma, theta)
        if workers is not None and workers < 1:
            raise ValueError("workers must be a positive integer")
        if mode not in PARALLEL_MODES:
            raise ValueError(f"mode must be one of {PARALLEL_MODES}, got {mode!r}")
        self.graph = graph
        self.gamma = gamma
        self.theta = theta
        self.branching = branching
        self.kernel = kernel
        self.max_rounds = max_rounds
        self.workers = workers if workers is not None else min(8, os.cpu_count() or 1)
        self.steal_schedule = steal_schedule
        self.statistics = SearchStatistics()
        self.mode_selected: str | None = None

    # ------------------------------------------------------------------
    def _driver(self) -> DCFastQC:
        """A sequential driver with this configuration (preprocessing + fallback)."""
        return DCFastQC(self.graph, self.gamma, self.theta, branching=self.branching,
                        kernel=self.kernel, max_rounds=self.max_rounds)

    def _sequential(self, driver: DCFastQC | None = None) -> list[frozenset]:
        """In-process fallback, reusing an existing driver's preprocessing."""
        if driver is None:
            driver = self._driver()
        results = driver.enumerate()
        self.statistics = driver.statistics
        self.mode_selected = "sequential"
        return results

    def enumerate(self) -> list[frozenset]:
        """Return a set of QCs containing every large MQC (MQCE-S1), in parallel."""
        driver = self._driver()
        if self.workers <= 1:
            return self._sequential(driver)
        subproblems = tuple(driver.iter_compact_subproblems())
        if not subproblems:
            self.statistics = driver.statistics
            self.mode_selected = "sequential"
            return []
        return self._enumerate_branch(driver, subproblems)

    def _enumerate_branch(self, driver: DCFastQC,
                          subproblems: tuple[CompactSubproblem, ...]
                          ) -> list[frozenset]:
        try:
            results, worker_stats, telemetry = branch_parallel_enumerate(
                subproblems, self.gamma, self.theta,
                branching=self.branching, kernel=self.kernel,
                workers=self.workers,
                steal_schedule=self.steal_schedule)
        except (WorkerCrash, OSError, ValueError) as error:
            # A dead worker (or a platform without POSIX shared memory) must
            # not cost the answer: rerun sequentially, and say so — stale
            # telemetry of an earlier run would describe a run that did not
            # happen.  The segment was already unlinked by the coordinator.
            _MODES.inc(mode="fallback")
            LAST_PARALLEL_RUN.clear()
            LAST_PARALLEL_RUN.update({
                "mode": "sequential",
                "fallback": f"{type(error).__name__}: {error}"})
            return self._sequential()
        merged = driver.statistics
        merged.merge(worker_stats)
        self.statistics = merged
        self.mode_selected = "branch"
        _record_parallel_run(telemetry["workers"], self.statistics,
                             telemetry["wall_seconds"],
                             idle_gaps_ms=telemetry["idle_gaps_ms"],
                             worker_branches=telemetry["worker_branches"])
        return sorted(results, key=lambda h: (-len(h), sorted(map(str, h))))

    def find_maximal(self) -> list[frozenset]:
        """Full parallel MQCE: enumerate in parallel and filter non-maximal QCs."""
        return filter_non_maximal(self.enumerate(), theta=self.theta)


def _record_parallel_run(workers: int, stats: SearchStatistics,
                         wall_seconds: float, idle_gaps_ms,
                         worker_branches: dict) -> None:
    """Publish one parallel run's telemetry to the registry + LAST_PARALLEL_RUN."""
    _MODES.inc(mode="branch")
    if stats.steals:
        _STEALS.inc(stats.steals)
    for gap_ms in idle_gaps_ms:
        _IDLE_GAPS.observe(gap_ms)
    utilization = (stats.parallel_busy_seconds / (workers * wall_seconds)
                   if workers > 0 and wall_seconds > 0 else 0.0)
    _UTILIZATION.set(round(utilization, 4))
    LAST_PARALLEL_RUN.clear()
    LAST_PARALLEL_RUN.update({
        "mode": "branch", "workers": workers,
        "steals": stats.steals,
        "busy_seconds": round(stats.parallel_busy_seconds, 6),
        "wall_seconds": round(wall_seconds, 6),
        "parallel_utilization": round(utilization, 4),
        #: Branches explored per worker: the max entry is the run's critical
        #: path in machine-independent units, which the parallel benchmark
        #: compares against the largest subproblem's branch count to measure
        #: load balance.
        "worker_branches": dict(worker_branches),
    })


def parallel_enumerate(graph: Graph, gamma: float, theta: int, workers: int | None = None,
                       **kwargs) -> list[frozenset]:
    """Functional wrapper around :class:`ParallelDCFastQC.enumerate`."""
    return ParallelDCFastQC(graph, gamma, theta, workers=workers, **kwargs).enumerate()
