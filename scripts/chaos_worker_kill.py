#!/usr/bin/env python
"""Chaos-smoke legs: fail workers mid-task and prove full recovery.

Leg 1 (raise): arms the ``worker.task`` fault site to raise inside a
work-stealing pool worker on its first task, runs ``ParallelDCFastQC`` and
requires the failed run to fall back to the sequential path with an answer
identical to a clean sequential DCFastQC run, and the fallback to be
recorded in ``LAST_PARALLEL_RUN``.

Leg 2 (kill): arms the same site to SIGKILL a pool worker mid-task and
requires the same fallback parity — and, the point of the leg, that the
shared-memory segment the coordinator published was unlinked despite the
crash.

Run from the repo root:  PYTHONPATH=src python scripts/chaos_worker_kill.py
"""

from __future__ import annotations

import glob
import random
import sys

sys.path.insert(0, "src")

from repro import Graph
from repro.core.dcfastqc import DCFastQC
from repro.extensions.parallel import LAST_PARALLEL_RUN, ParallelDCFastQC
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
    raise_leg()
    kill_leg()
    return 0


def _failed_run_falls_back(leg: str, graph: Graph, plan: str) -> int:
    """Run ``ParallelDCFastQC`` under a fault ``plan``; require the recorded
    sequential fallback with exact parity.  Returns the answer count."""
    expected = set(filter_non_maximal(
        DCFastQC(graph, GAMMA, THETA).enumerate(), theta=THETA))
    install_plan(plan)
    try:
        runner = ParallelDCFastQC(graph, GAMMA, THETA, workers=2)
        answers = set(runner.find_maximal())
    finally:
        reset_plan()
    if runner.mode_selected != "sequential":
        raise SystemExit(f"the failed {leg} worker did not trigger the "
                         f"sequential fallback (got {runner.mode_selected!r})")
    if "fallback" not in LAST_PARALLEL_RUN:
        raise SystemExit(f"the {leg} fallback was not recorded: "
                         f"{LAST_PARALLEL_RUN}")
    if answers != expected:
        raise SystemExit(
            f"{leg} fallback parity broken: {len(answers)} cliques "
            f"vs sequential {len(expected)}")
    return len(answers)


def raise_leg() -> None:
    """A pool worker raises; require recorded sequential-fallback parity."""
    count = _failed_run_falls_back("raise", _random_graph(),
                                   "worker.task:raise:times=1")
    print(f"pool-worker raise: sequential fallback matches parity "
          f"({count} cliques)")


def kill_leg() -> None:
    """SIGKILL a pool worker; require fallback parity and zero leaked
    shared-memory segments."""
    count = _failed_run_falls_back("kill", _random_graph(seed=23),
                                   "worker.task:kill:times=1")
    leaked = glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")
    if leaked:
        raise SystemExit(f"leaked shared-memory segments after the worker "
                         f"kill: {leaked}")
    print(f"pool-worker kill: sequential fallback matches parity "
          f"({count} cliques), /dev/shm clean")


if __name__ == "__main__":
    raise SystemExit(main())
