#!/usr/bin/env python
"""Chaos-smoke legs: kill workers mid-task and prove full recovery.

Leg 1 (shard pool): arms the ``engine.subproblem`` fault site to SIGKILL a
process-pool worker on its first subproblem, runs
``ParallelDCFastQC(mode="shard")`` with one subproblem per pool task, and
requires the broken pool to fall back to the sequential path with an answer
identical to a clean sequential DCFastQC run.

Leg 2 (branch-parallel): arms the ``worker.task`` fault site to SIGKILL a
work-stealing branch-parallel worker mid-task, runs
``ParallelDCFastQC(mode="branch")`` and requires the crash to fall back to the
sequential path with an answer identical to a clean sequential run — and, the
point of the leg, that every ``/dev/shm`` shared-memory segment the steal
coordinator published was unlinked despite the crash.

Run from the repo root:  PYTHONPATH=src python scripts/chaos_worker_kill.py
"""

from __future__ import annotations

import glob
import random
import sys

sys.path.insert(0, "src")

from repro import Graph
from repro.core.dcfastqc import DCFastQC
from repro.extensions.parallel import ParallelDCFastQC
from repro.extensions.stealing import SEGMENT_PREFIX
from repro.resilience.faults import install_plan, reset_plan
from repro.settrie.filter import filter_non_maximal

GAMMA, THETA = 0.85, 4


def _random_graph(seed: int = 11, vertices: int = 36, edges: int = 260) -> Graph:
    rng = random.Random(seed)
    graph = Graph()
    while graph.edge_count < edges:
        u, v = rng.randrange(vertices), rng.randrange(vertices)
        if u != v:
            graph.add_edge(u, v)
    return graph


def main() -> int:
    shard_pool_leg()
    branch_parallel_leg()
    return 0


def _killed_run_falls_back(leg: str, graph: Graph, plan: str,
                           **runner_kwargs) -> int:
    """Run ``ParallelDCFastQC`` under a kill ``plan``; require the sequential
    fallback with exact parity.  Returns the answer count."""
    expected = set(filter_non_maximal(
        DCFastQC(graph, GAMMA, THETA).enumerate(), theta=THETA))
    install_plan(plan)
    try:
        runner = ParallelDCFastQC(graph, GAMMA, THETA, workers=2,
                                  **runner_kwargs)
        answers = set(runner.find_maximal())
    finally:
        reset_plan()
    if runner.mode_selected != "sequential":
        raise SystemExit(f"the killed {leg} worker did not trigger the "
                         f"sequential fallback (got {runner.mode_selected!r})")
    if answers != expected:
        raise SystemExit(
            f"{leg} fallback parity broken: {len(answers)} cliques "
            f"vs sequential {len(expected)}")
    return len(answers)


def shard_pool_leg() -> None:
    """SIGKILL a shard-mode pool worker; require sequential-fallback parity."""
    # chunk_size=1 ships one subproblem per task, so a real pool runs.
    count = _killed_run_falls_back("shard-pool", _random_graph(),
                                   "engine.subproblem:kill:times=1",
                                   chunk_size=1, mode="shard")
    print(f"shard-pool kill: sequential fallback matches parity "
          f"({count} cliques)")


def branch_parallel_leg() -> None:
    """SIGKILL a branch-parallel steal worker; require fallback parity and
    zero leaked shared-memory segments."""
    count = _killed_run_falls_back("branch-parallel", _random_graph(seed=23),
                                   "worker.task:kill:times=1", mode="branch")
    leaked = glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")
    if leaked:
        raise SystemExit(f"leaked shared-memory segments after the worker "
                         f"kill: {leaked}")
    print(f"branch-parallel kill: sequential fallback matches parity "
          f"({count} cliques), /dev/shm clean")


if __name__ == "__main__":
    raise SystemExit(main())
