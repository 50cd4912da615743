"""The cold-query workloads: ``powerlaw-csr`` and ``planted-skew``.

Each op ingests the workload's edge-list file, prepares a fresh
:class:`~repro.engine.PreparedGraph` and runs one query on a fresh
:class:`~repro.engine.MQCEEngine` (one closed-loop client).  Every answer is
checked against a reference computed once per seed, in a separate process, by
the sequential ledger :class:`~repro.core.DCFastQC` plus
:func:`~repro.settrie.filter_non_maximal` on the dict graph.

The traced run repeats each op twice: once untraced (the ``trace.overhead_ratio``
baseline) and once traced.  The traced op times ingest and
``PreparedGraph.prepare`` under spans recorded here and runs the same
``MQCEEngine.query`` with ``trace=``, whose own spans split the query into
plan, decompose, the per-root loop, the branch kernel and the set-trie filter
(on a parallel plan, which records no spans, the core split comes from a
rerun of that plan's work in-process; see ``_parallel_plan_split``).
Once per run it also times one planner-moded ``ParallelDCFastQC.enumerate``
against a sequential ``DCFastQC.enumerate``.
"""

from __future__ import annotations

import random
import resource
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Callable

from repro.core import DCFastQC, FastQC
from repro.engine import MQCEEngine, PreparedGraph
from repro.extensions import parallel as parallel_layer
from repro.extensions.parallel import ParallelDCFastQC
from repro.graph import (erdos_renyi_gnm, ingest_edge_list,
                         planted_quasi_clique_graph,
                         preferential_attachment_edges, read_edge_list)
from repro.obs import Tracer
from repro.settrie import filter_non_maximal

from common import Mismatch, median, ratio

GAMMA = 0.9

#: Seed of the preferential-attachment draw (see ``write_powerlaw``).
POWERLAW_GRAPH_SEED = 1
POWERLAW_VERTICES = 10_000

#: Seed of the planted block.  The block is fixed so that every workload seed
#: poses the same kernel instance (see ``write_planted``).
PLANTED_BLOCK_SEED = 2
PLANTED_BLOCK = 32
PLANTED_VERTICES = 20_000
PLANTED_BACKGROUND_EDGES = 40_000


def write_powerlaw(path, seed: int) -> None:
    """A preferential-attachment edge list: 10^4 vertices, attachment 3.

    The draw is fixed by :data:`POWERLAW_GRAPH_SEED`; the workload seed draws
    the labels of all vertices and the order of the edges, and thus the file.
    Seeded draws differ in their hubs, and with them the per-root cost: the
    query takes 20% longer on one seed than on another, which would swamp
    the host's own run-to-run spread.
    """
    rng = random.Random(seed)
    labels = rng.sample(range(POWERLAW_VERTICES), POWERLAW_VERTICES)
    edges = list(preferential_attachment_edges(POWERLAW_VERTICES, 3,
                                               seed=POWERLAW_GRAPH_SEED))
    rng.shuffle(edges)
    with open(path, "w", encoding="utf-8") as handle:
        for u, v in edges:
            handle.write(f"{labels[u]} {labels[v]}\n")


def write_planted(path, seed: int) -> None:
    """One planted 32-vertex 0.9-quasi-clique in a sparse G(n, m) background.

    The block is ``planted_quasi_clique_graph(32, 0, [32], 0.9)`` under a fixed
    seed; the workload seed draws the background, the labels of all vertices
    and thus the file.  The block's edges come first, so the reader indexes
    its vertices in a fixed order and every seed poses the same branch tree
    (the random densifier alone varies it 8x between seeds).  Core reduction
    at theta=10 removes the whole background.
    """
    rng = random.Random(seed)
    labels = rng.sample(range(PLANTED_VERTICES), PLANTED_VERTICES)
    block = planted_quasi_clique_graph(PLANTED_BLOCK, 0, [PLANTED_BLOCK], GAMMA,
                                       seed=PLANTED_BLOCK_SEED)
    background = erdos_renyi_gnm(PLANTED_VERTICES - PLANTED_BLOCK,
                                 PLANTED_BACKGROUND_EDGES,
                                 seed=rng.randrange(2**31))
    with open(path, "w", encoding="utf-8") as handle:
        for u, v in block.edges():
            handle.write(f"{labels[u]} {labels[v]}\n")
        for u, v in background.edges():
            handle.write(f"{labels[PLANTED_BLOCK + u]} {labels[PLANTED_BLOCK + v]}\n")


@dataclass(frozen=True)
class ColdWorkload:
    theta: int
    write: Callable
    load: Callable


WORKLOADS = {
    "powerlaw-csr": ColdWorkload(theta=4, write=write_powerlaw, load=ingest_edge_list),
    "planted-skew": ColdWorkload(theta=10, write=write_planted, load=read_edge_list),
}


def reference_answer(path: str, theta: int) -> set:
    """Sequential ledger DCFastQC + set-trie filter on the dict graph."""
    graph = read_edge_list(path)
    candidates = DCFastQC(graph, GAMMA, theta).enumerate()
    return {frozenset(c) for c in filter_non_maximal(candidates, theta=theta)}


def _reference_in_child(path: str, theta: int) -> set:
    # A child keeps the reference's memory out of peak_rss_mb.  A forked one
    # uses unnamed semaphores, so no resource-tracker process is started.
    with ProcessPoolExecutor(max_workers=1, mp_context=get_context("fork")) as pool:
        return pool.submit(reference_answer, path, theta).result()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check(answer, expected: set, what: str) -> None:
    got = {frozenset(c) for c in answer}
    if got != expected:
        raise Mismatch(f"{what}: {len(got)} maximal quasi-cliques, "
                       f"reference has {len(expected)} "
                       f"({len(got - expected)} extra, {len(expected - got)} missing)")


def _untraced_op(work: ColdWorkload, path: str, expected: set) -> tuple[float, float]:
    """One cold op; returns ``(setup_s, query_s)``."""
    started = time.perf_counter()
    graph = work.load(path)
    prepared = PreparedGraph(graph).prepare()
    ready = time.perf_counter()
    result = MQCEEngine().query(prepared, GAMMA, work.theta)
    finished = time.perf_counter()
    if result.truncated:
        raise Mismatch("cold query was truncated")
    _check(result.maximal_quasi_cliques, expected, "engine.query")
    return ready - started, finished - ready


def _spans_by_name(root) -> dict:
    found: dict = {}
    stack = [root]
    while stack:
        span = stack.pop()
        found.setdefault(span.name, []).append(span)
        stack.extend(span.children)
    return found


def _seconds(spans: dict, name: str) -> float:
    return sum(span.seconds for span in spans.get(name, ()))


def _dc_split(spans: dict) -> tuple:
    """``(decompose_s, shrink_s, kernel_s, shrink spans, subproblems)`` of a
    sequential DC plan, from the engine's own spans.

    The DC driver nests ``decompose``, one ``shrink`` per root and one
    ``subproblem`` per non-trivial root under ``enumerate``; the per-root
    loop's time (two-hop ball, shrink and compaction) is what ``enumerate``
    leaves after ``decompose`` and the subproblems.
    """
    decompose_s = _seconds(spans, "decompose")
    kernel_s = _seconds(spans, "subproblem")
    shrink_s = _seconds(spans, "enumerate") - decompose_s - kernel_s
    return (decompose_s, shrink_s, kernel_s, spans.get("shrink", []),
            len(spans.get("subproblem", ())))


def _parallel_plan_split(graph, theta: int, expected: set) -> tuple:
    """The same split for a parallel plan, from its work run in-process.

    ``ParallelDCFastQC`` records no spans.  Its parent iterates
    ``DCFastQC.iter_compact_subproblems()`` (decompose, then per root the
    two-hop ball, shrink, compaction and a one-hop maximality halo), and its
    workers run ``FastQC.enumerate_branch`` on each ``CompactSubproblem``.
    This runs both in-process, each under a span.
    """
    tracer = Tracer()
    driver = DCFastQC(graph, GAMMA, theta, tracer=tracer)
    with tracer.span("iterate") as iterate:
        subproblems = list(driver.iter_compact_subproblems())
    candidates: list = []
    with tracer.span("kernel") as kernel:
        for sub in subproblems:
            engine = FastQC(sub.build_graph(), GAMMA, theta,
                            maximality_graph=sub.build_maximality_graph())
            candidates.extend(engine.enumerate_branch(sub.initial_branch()))
    _check(filter_non_maximal(candidates, theta=theta), expected,
           "compact subproblems")
    spans = _spans_by_name(iterate)
    decompose_s = _seconds(spans, "decompose")
    return (decompose_s, iterate.seconds - decompose_s, kernel.seconds,
            spans.get("shrink", []), len(subproblems))


def _traced_op(work: ColdWorkload, path: str, expected: set) -> tuple:
    """One op with ingest and prepare under benchmark spans, the query traced.

    Returns ``(prepared, query_s, layers)`` where ``layers`` maps per-layer
    metric names to this op's values.
    """
    tracer = Tracer()
    with tracer.span("ingest") as ingest:
        graph = work.load(path)
    with tracer.span("prepare") as prepare:
        prepared = PreparedGraph(graph).prepare()
    result = MQCEEngine().query(prepared, GAMMA, work.theta, trace=tracer)
    if result.truncated:
        raise Mismatch("traced cold query was truncated")
    _check(result.maximal_quasi_cliques, expected, "traced engine.query")
    query = next(span for span in tracer.spans if span.name == "query")
    spans = _spans_by_name(query)
    if "decompose" in spans:
        split = _dc_split(spans)
    else:
        split = _parallel_plan_split(graph, work.theta, expected)
    decompose_s, shrink_s, kernel_s, roots, subproblems = split
    attributed = sum(_seconds(spans, name)
                     for name in ("prepare", "plan", "cache", "enumerate", "filter"))
    branches = result.search_statistics.branches_explored
    candidates = len(result.candidate_quasi_cliques)
    return prepared, query.seconds, {
        "graph.ingest_s": ingest.seconds,
        "engine.prepare_s": prepare.seconds,
        "engine.plan_ms": _seconds(spans, "plan") * 1e3,
        "core.decompose_s": decompose_s,
        "core.shrink_s": shrink_s,
        "core.shrink_us_per_root": ratio(shrink_s * 1e6, len(roots)),
        "core.shrink_kept_ratio": ratio(
            sum(span.attributes["refined"] for span in roots),
            sum(span.attributes["initial"] for span in roots)),
        "core.subproblems": subproblems,
        "core.enumerate_s": kernel_s,
        "core.branches": branches,
        "core.branches_per_s": ratio(branches, kernel_s),
        "core.candidates_per_branch": ratio(candidates, branches),
        "settrie.filter_ms": _seconds(spans, "filter") * 1e3,
        "settrie.maximal_ratio": ratio(len(result.maximal_quasi_cliques), candidates),
        "trace.unattributed_share": 1.0 - ratio(attributed, query.seconds),
    }


def _parallel_layer(work: ColdWorkload, prepared, expected: set, workers: int) -> dict:
    """Sequential DCFastQC wall against the planner-moded ParallelDCFastQC wall."""
    graph = prepared.graph
    plan = MQCEEngine().explain(prepared, GAMMA, work.theta)
    started = time.perf_counter()
    sequential = DCFastQC(graph, GAMMA, work.theta).enumerate()
    sequential_s = time.perf_counter() - started
    _check(filter_non_maximal(sequential, theta=work.theta), expected, "sequential DCFastQC")
    mode = plan.parallel_mode if plan.parallel else "auto"
    runner = ParallelDCFastQC(graph, GAMMA, work.theta, workers=workers, mode=mode)
    parallel_layer.LAST_PARALLEL_RUN.clear()
    started = time.perf_counter()
    candidates = runner.enumerate()
    wall_s = time.perf_counter() - started
    _check(filter_non_maximal(candidates, theta=work.theta), expected,
           f"ParallelDCFastQC ({runner.mode_selected})")
    print(f"# parallel: plan {plan.parallel_mode}, ran {runner.mode_selected} "
          f"with {workers} workers", flush=True)
    return {
        "parallel.wall_s": wall_s,
        "parallel.speedup": ratio(sequential_s, wall_s),
        "parallel.utilization": parallel_layer.LAST_PARALLEL_RUN.get("parallel_utilization", 0.0),
        "parallel.steals": runner.statistics.steals,
    }


def run(name: str, seed: int, seconds: float, traced: bool, scratch, workers: int,
        metrics: dict) -> tuple[int, int]:
    """Run one cold workload, filling ``metrics``; returns ``(attempted, failed)``.

    Raises :class:`Mismatch` on any wrong answer.
    """
    work = WORKLOADS[name]
    path = str(scratch.file("graph.txt"))
    work.write(path, seed)
    expected = _reference_in_child(path, work.theta)
    setups, queries, traced_queries, layers = [], [], [], []
    parallel: dict = {}
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        setup_s, query_s = _untraced_op(work, path, expected)
        if not queries:
            # Read after one op, so it does not grow with the op count the
            # host's speed allowed.
            peak_rss_mb = _peak_rss_mb()
        setups.append(setup_s)
        queries.append(query_s)
        if traced:
            prepared, query_s, op_layers = _traced_op(work, path, expected)
            if not parallel:
                parallel = _parallel_layer(work, prepared, expected, workers)
            traced_queries.append(query_s)
            layers.append(op_layers)
        if time.perf_counter() >= deadline:
            break
    elapsed = time.perf_counter() - started
    if not traced:
        metrics.update(query_p50_ms=median(queries) * 1e3,
                       ops_per_s=len(queries) / elapsed,
                       setup_s=median(setups), peak_rss_mb=peak_rss_mb)
        return len(queries), 0
    for key in layers[0]:
        metrics[key] = median([op[key] for op in layers])
    metrics.update(parallel)
    metrics["trace.overhead_ratio"] = ratio(median(traced_queries), median(queries))
    return len(queries) + len(traced_queries), 0
