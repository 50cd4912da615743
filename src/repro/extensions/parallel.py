"""Parallel DCFastQC: process-level parallelism over the DC subproblems.

The paper's conclusion lists "efficient parallel implementations" as future
work, and its related work covers a task-parallel Quick+ (T-thinker).  The
divide-and-conquer framework is embarrassingly parallel: every subproblem
``(v_i, G_i)`` is independent, so this module shards the subproblems across
worker processes, runs the same FastQC engine in each worker and merges the
outputs before the usual MQCE-S2 filter.

The parent process does the cheap global preprocessing (core reduction,
degeneracy ordering, per-root two-hop shrinking) exactly once and ships each
subproblem as a *compact* payload
(:class:`~repro.core.dcfastqc.CompactSubproblem`): the subproblem's vertices
remapped to a dense local index space with their within-subproblem adjacency
bitmasks.  Workers therefore deserialise and enumerate graphs whose bitmask
and ledger widths track the subproblem size, not the input graph — a few
tuples of small ints per task instead of the whole edge list per worker.

Each payload also carries the subproblem's **one-hop maximality halo** (the
outside neighbours of the ball with their adjacency into it), so workers apply
the maximality necessary-condition filter against exactly the evidence the
sequential driver's full-graph check would consult: the emitted candidate sets
are identical to the sequential driver's, batch for batch, not merely after
the MQCE-S2 set-trie filter.

Two execution modes share this payload surface:

* ``"shard"`` — the original whole-subproblem fan-out over a process pool.
* ``"branch"`` — intra-subproblem work stealing over shared-memory segments
  (:mod:`repro.extensions.stealing`), for the skewed case where one huge
  subproblem would serialize a shard run.

``mode="auto"`` picks between them from the subproblem-size distribution: the
per-subproblem cost grows roughly quadratically with the ball size (mask width
times branch count), so when the largest subproblem's estimated work share
exceeds ``(1 + overhead) / workers`` — the point where sharding's best-case
speedup drops below breaking even against stealing's coordination overhead —
branch mode wins.  The same rule, fed by histograms instead of exact sizes,
drives the query planner's ``parallel`` decision.
"""

from __future__ import annotations

import os
import time
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from ..core.dcfastqc import CompactSubproblem, DCFastQC, DEFAULT_MAX_ROUNDS
from ..core.fastqc import FastQC
from ..core.stats import SearchStatistics
from ..graph.graph import Graph
from ..obs.metrics import REGISTRY, MetricsRegistry
from ..quasiclique.definitions import validate_parameters
from ..resilience.faults import fault_point
from ..settrie.filter import filter_non_maximal
from .stealing import WorkerCrash, branch_parallel_enumerate

#: Values the ``mode`` knob accepts ("auto" defers to the skew rule).
PARALLEL_MODES = ("auto", "shard", "branch")

#: Relative coordination overhead branch mode must amortise before it beats
#: sharding (steal routing, shared-memory attach, verdict round-trips).
BRANCH_OVERHEAD = 0.25

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

# Module-level worker state, initialised once per worker process.
_WORKER_STATE: dict = {}


def branch_mode_wins(largest_work: float, total_work: float, workers: int,
                     overhead: float = BRANCH_OVERHEAD) -> bool:
    """The shard-vs-branch rule shared by the runtime and the query planner.

    ``largest_work / total_work`` bounds shard parallelism: the run cannot
    finish before its biggest subproblem, so shard speedup <= 1 / share.
    Branch mode pays ~``overhead`` extra coordination; it wins once the shard
    bound drops below ``workers / (1 + overhead)``, i.e. once the largest
    share exceeds ``(1 + overhead) / workers``.
    """
    if workers <= 1 or total_work <= 0:
        return False
    return largest_work / total_work >= (1.0 + overhead) / workers


def subproblem_skew(sizes: Sequence[int]) -> tuple[float, float]:
    """(largest_work, total_work) under the quadratic work proxy."""
    work = [float(size) * float(size) for size in sizes]
    return (max(work), sum(work)) if work else (0.0, 0.0)


def histogram_skew(histogram) -> tuple[float, float]:
    """(largest_work, total_work) of a :class:`SizeHistogram` of ball sizes.

    The planner has only the bounded log2-bucket summary, not the exact size
    list: each bucket's work is estimated at its midpoint (``1.5 * key``)
    squared, while the largest term uses the exactly-recorded max.  Total is
    clamped to at least the largest so the share never exceeds 1.
    """
    if not histogram:
        return (0.0, 0.0)
    largest = float(histogram.max) ** 2
    total = sum(count * (1.5 * key) ** 2
                for key, count in histogram.buckets.items())
    return largest, max(total, largest)


def branch_histogram_skew(histogram) -> tuple[float, float]:
    """(largest_work, total_work) of a histogram of per-subproblem *branch counts*.

    Branch counts measure work directly (no size proxy needed), so the weights
    are linear: each bucket contributes its count times the bucket midpoint
    (``1.5 * key``) and the largest term is the exactly-recorded max.  This is
    the histogram the planner trusts most — a descending chain of similar-size
    balls can hide a 10x work concentration that any size-based proxy misses,
    because subtree depth (not ball size alone) drives the branch count.
    """
    if not histogram:
        return (0.0, 0.0)
    largest = float(histogram.max)
    total = sum(count * 1.5 * key for key, count in histogram.buckets.items())
    return largest, max(total, largest)


def _worker_metrics(engine: FastQC, subproblem: CompactSubproblem) -> dict:
    """Record one subproblem's counters into a throwaway registry snapshot.

    Worker processes cannot inc the parent's :data:`~repro.obs.metrics.REGISTRY`
    directly (each fork has its own copy), so every task returns a snapshot of
    a task-local registry and the parent merges them — counters and histograms
    add up exactly as if the work had run in-process.
    """
    local = MetricsRegistry()
    local.counter("repro_parallel_subproblems_total",
                  "DC subproblems enumerated by pool workers").inc()
    local.counter("repro_parallel_worker_branches_total",
                  "Branches explored inside pool workers").inc(
        engine.statistics.branches_explored)
    local.histogram("repro_parallel_subproblem_sizes",
                    "Vertex counts of subproblems shipped to workers").observe(
        len(subproblem.labels))
    return local.snapshot()


@dataclass(frozen=True)
class _WorkerConfig:
    """The enumeration parameters shared by every shipped subproblem."""

    gamma: float
    theta: int
    branching: str
    kernel: str


def _initialise_worker(config: _WorkerConfig) -> None:
    """Record the shared parameters once per worker process."""
    _WORKER_STATE["config"] = config


def run_compact_subproblem(subproblem: CompactSubproblem, gamma: float,
                           theta: int, branching: str = "hybrid",
                           kernel: str = "ledger"
                           ) -> tuple[list[frozenset], dict, SearchStatistics]:
    """Enumerate one compact DC subproblem (the worker-side unit of work).

    The maximality filter checks single-vertex extensions against the ball
    plus its one-hop halo, which decides exactly like the sequential driver's
    full-graph check (any extension vertex is adjacent to the candidate set,
    hence inside ball ∪ halo) — so the emitted candidate sets are *identical*
    to the sequential driver's for this root, whether the payload runs in a
    pool worker process or inline.  Returns the candidate sets, a metrics
    snapshot for the coordinating process to merge (see
    :func:`_worker_metrics`) and the worker-side :class:`SearchStatistics`,
    which the parent merges so parallel runs report the same branch counts a
    sequential run would.
    """
    fault_point("engine.subproblem")
    graph = subproblem.build_graph()
    maximality = (subproblem.build_maximality_graph()
                  if subproblem.halo_labels else graph)
    engine = FastQC(graph, gamma, theta,
                    branching=branching, kernel=kernel,
                    maximality_graph=maximality)
    chunk = engine.enumerate_branch(subproblem.initial_branch())
    return chunk, _worker_metrics(engine, subproblem), engine.statistics


def _run_subproblem(subproblem: CompactSubproblem
                    ) -> tuple[list[frozenset], dict, SearchStatistics]:
    """Pool-worker entry point: one subproblem under the per-process config."""
    config: _WorkerConfig = _WORKER_STATE["config"]
    return run_compact_subproblem(subproblem, config.gamma, config.theta,
                                  branching=config.branching,
                                  kernel=config.kernel)


class ParallelDCFastQC:
    """DCFastQC with the per-vertex subproblems distributed over processes.

    Parameters mirror :class:`repro.core.dcfastqc.DCFastQC` plus ``workers``
    (process count, default: CPU count capped at 8), ``chunk_size`` (how many
    subproblems each shard task ships, default 8) and ``mode`` — one of
    :data:`PARALLEL_MODES`: ``"shard"`` fans whole subproblems over a process
    pool, ``"branch"`` runs work-stealing branch parallelism over
    shared-memory segments, ``"auto"`` (default) picks by subproblem skew.

    With ``workers=1``, a single nontrivial subproblem under shard mode, or a
    platform without POSIX multiprocessing, everything runs in-process — no
    pool is ever spun up for work it cannot speed up.  After ``enumerate``,
    :attr:`statistics` holds the parent shrink-phase counters merged with
    every worker's counters (branch counts add up exactly to a sequential
    run's) and :attr:`mode_selected` names the path actually taken
    (``"sequential"``, ``"shard"`` or ``"branch"``).
    """

    def __init__(self, graph: Graph, gamma: float, theta: int,
                 branching: str = "hybrid", kernel: str = "ledger",
                 max_rounds: int = DEFAULT_MAX_ROUNDS,
                 workers: int | None = None, chunk_size: int = 8,
                 mode: str = "auto", steal_schedule=None) -> None:
        # Accept an engine PreparedGraph transparently (lazy import: no cycle).
        from ..engine.prepared import as_plain_graph

        graph = as_plain_graph(graph)
        validate_parameters(gamma, theta)
        if workers is not None and workers < 1:
            raise ValueError("workers must be a positive integer")
        if chunk_size < 1:
            raise ValueError("chunk_size must be a positive integer")
        if mode not in PARALLEL_MODES:
            raise ValueError(f"mode must be one of {PARALLEL_MODES}, got {mode!r}")
        self.graph = graph
        self.gamma = gamma
        self.theta = theta
        self.branching = branching
        self.kernel = kernel
        self.max_rounds = max_rounds
        self.workers = workers if workers is not None else min(8, os.cpu_count() or 1)
        self.chunk_size = chunk_size
        self.mode = mode
        self.steal_schedule = steal_schedule
        self.statistics = SearchStatistics()
        self.mode_selected: str | None = None

    # ------------------------------------------------------------------
    def _driver(self) -> DCFastQC:
        """A sequential driver with this configuration (preprocessing + fallback)."""
        return DCFastQC(self.graph, self.gamma, self.theta, branching=self.branching,
                        kernel=self.kernel, max_rounds=self.max_rounds)

    def _subproblems(self) -> Sequence[CompactSubproblem]:
        """The compact subproblem payloads (parent-side preprocessing)."""
        return tuple(self._driver().iter_compact_subproblems())

    def _sequential(self, driver: DCFastQC | None = None) -> list[frozenset]:
        """In-process fallback, reusing an existing driver's preprocessing."""
        if driver is None:
            driver = self._driver()
        results = driver.enumerate()
        self.statistics = driver.statistics
        self.mode_selected = "sequential"
        return results

    def _enumerate_inline(self, driver: DCFastQC,
                          subproblems: Sequence[CompactSubproblem]
                          ) -> list[frozenset]:
        """Run the compact payloads in-process (no pool worth spinning up)."""
        self.statistics = driver.statistics
        results: set[frozenset] = set()
        for subproblem in subproblems:
            chunk, metrics, stats = run_compact_subproblem(
                subproblem, self.gamma, self.theta,
                branching=self.branching, kernel=self.kernel)
            results.update(chunk)
            REGISTRY.merge(metrics)
            self.statistics.merge(stats)
            self.statistics.subproblem_branches.record(stats.branches_explored)
        self.mode_selected = "sequential"
        return sorted(results, key=lambda h: (-len(h), sorted(map(str, h))))

    def _resolve_mode(self, sizes: Sequence[int]) -> str:
        if self.mode != "auto":
            return self.mode
        largest, total = subproblem_skew(sizes)
        return ("branch"
                if branch_mode_wins(largest, total, self.workers)
                else "shard")

    def enumerate(self) -> list[frozenset]:
        """Return a set of QCs containing every large MQC (MQCE-S1), in parallel."""
        # Cheap workload estimate first (core reduction + ordering only): small
        # jobs run in-process without materialising any compact payloads.
        driver = self._driver()
        ordering = driver._vertex_ordering(driver._core_reduction_mask())
        if not ordering:
            self.statistics = driver.statistics
            self.mode_selected = "sequential"
            return []
        if self.workers <= 1:
            return self._sequential(driver)
        subproblems = tuple(driver.iter_compact_subproblems())
        if not subproblems:
            self.statistics = driver.statistics
            self.mode_selected = "sequential"
            return []
        mode = self._resolve_mode([len(s.labels) for s in subproblems])
        if mode == "branch":
            return self._enumerate_branch(driver, subproblems)
        # Shard mode: pooling cannot beat in-process when there is nothing to
        # spread — a single nontrivial subproblem, or fewer than one pool
        # chunk's worth of payloads.
        if len(subproblems) <= 1 or len(subproblems) <= self.chunk_size // 2:
            return self._enumerate_inline(driver, subproblems)
        return self._enumerate_shard(driver, subproblems)

    def _enumerate_shard(self, driver: DCFastQC,
                         subproblems: Sequence[CompactSubproblem]
                         ) -> list[frozenset]:
        config = _WorkerConfig(gamma=self.gamma, theta=self.theta,
                               branching=self.branching, kernel=self.kernel)
        merged = driver.statistics
        results: set[frozenset] = set()
        started = time.perf_counter()
        try:
            with ProcessPoolExecutor(max_workers=self.workers,
                                     initializer=_initialise_worker,
                                     initargs=(config,)) as pool:
                for chunk, metrics, stats in pool.map(
                        _run_subproblem, subproblems,
                        chunksize=self.chunk_size):
                    results.update(chunk)
                    REGISTRY.merge(metrics)
                    merged.merge(stats)
                    merged.subproblem_branches.record(stats.branches_explored)
        except (BrokenProcessPool, OSError, ValueError):
            # A dead pool worker (or a platform without a usable process
            # pool) must not cost the answer: rerun sequentially, as branch
            # mode does on WorkerCrash.
            return self._sequential()
        self.statistics = merged
        self.mode_selected = "shard"
        _record_parallel_run("shard", self.workers, self.statistics,
                             time.perf_counter() - started, idle_gaps_ms=(),
                             worker_branches={})
        return sorted(results, key=lambda h: (-len(h), sorted(map(str, h))))

    def _enumerate_branch(self, driver: DCFastQC,
                          subproblems: Sequence[CompactSubproblem]
                          ) -> list[frozenset]:
        try:
            results, worker_stats, telemetry = branch_parallel_enumerate(
                subproblems, self.gamma, self.theta,
                branching=self.branching, kernel=self.kernel,
                workers=max(2, self.workers),
                steal_schedule=self.steal_schedule)
        except (WorkerCrash, OSError, ValueError):
            # A dead worker (or a platform without POSIX shared memory) must
            # not cost the answer: rerun sequentially.  Segments were already
            # unlinked by the coordinator's cleanup path.
            return self._sequential()
        merged = driver.statistics
        merged.merge(worker_stats)
        self.statistics = merged
        self.mode_selected = "branch"
        _record_parallel_run("branch", telemetry["workers"], self.statistics,
                             telemetry["wall_seconds"],
                             idle_gaps_ms=telemetry["idle_gaps_ms"],
                             worker_branches=telemetry.get("worker_branches", {}))
        return sorted(results, key=lambda h: (-len(h), sorted(map(str, h))))

    def find_maximal(self) -> list[frozenset]:
        """Full parallel MQCE: enumerate in parallel and filter non-maximal QCs."""
        return filter_non_maximal(self.enumerate(), theta=self.theta)


def _record_parallel_run(mode: str, workers: int, stats: SearchStatistics,
                         wall_seconds: float, idle_gaps_ms,
                         worker_branches: dict | None = None) -> None:
    """Publish one parallel run's telemetry to the registry + LAST_PARALLEL_RUN."""
    _MODES.inc(mode=mode)
    if stats.steals:
        _STEALS.inc(stats.steals)
    for gap_ms in idle_gaps_ms:
        _IDLE_GAPS.observe(gap_ms)
    utilization = (stats.parallel_busy_seconds / (workers * wall_seconds)
                   if workers > 0 and wall_seconds > 0 else 0.0)
    if mode == "branch":
        _UTILIZATION.set(round(utilization, 4))
    LAST_PARALLEL_RUN.clear()
    LAST_PARALLEL_RUN.update({
        "mode": mode, "workers": workers,
        "steals": stats.steals,
        "busy_seconds": round(stats.parallel_busy_seconds, 6),
        "wall_seconds": round(wall_seconds, 6),
        "parallel_utilization": round(utilization, 4),
        #: Branches explored per branch-parallel worker ({} for shard runs):
        #: the max entry is the run's critical path in machine-independent
        #: units, which the parallel benchmark compares against the largest
        #: subproblem's branch count to measure load balance.
        "worker_branches": dict(worker_branches or {}),
    })


def parallel_enumerate(graph: Graph, gamma: float, theta: int, workers: int | None = None,
                       **kwargs) -> list[frozenset]:
    """Functional wrapper around :class:`ParallelDCFastQC.enumerate`."""
    return ParallelDCFastQC(graph, gamma, theta, workers=workers, **kwargs).enumerate()
