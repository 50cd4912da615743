"""Parallel-tier guard: the work-stealing pool splits a dominant subproblem.

The acceptance bar: on a planted-community graph whose single dominant
subproblem holds ~60% of all branches, the work-stealing pool at 4 workers
must cut the critical path by >= 2x — the largest subproblem's branch count
(which lower-bounds any run that keeps subproblems whole) over the busiest
pool worker's branch count.  Branch counts are machine-independent, so the
bar holds on single-core CI hosts where wall-clock parallel speedup is
physically impossible; on hosts with >= 4 cores the sequential-over-pool
wall-clock ratio is asserted too.  Every run is parity-checked against the
sequential ledger kernel.

The measurement lives in ``scripts/bench_trajectory.py`` (the ``parallel``
suite recorded into ``BENCH_core.json``); this file reuses that suite so the
benchmark run and CI smoke assert the exact numbers the trajectory records.
By default the quick 2*10^4-vertex rows run; set ``REPRO_BENCH_FULL=1`` for
the paper-scale 10^5-vertex skewed row the committed ``BENCH_core.json``
records.

Run with:  pytest benchmarks/bench_parallel.py -q --benchmark-disable
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

from bench_trajectory import (  # noqa: E402
    PARALLEL_FULL,
    PARALLEL_QUICK,
    run_parallel_suite,
)

#: The acceptance bar on the skewed row's critical-path ratio.
MIN_BALANCE_SPEEDUP = 2.0

_cache: dict | None = None


def _suite_record() -> dict:
    """Run the parallel trajectory suite once per pytest session."""
    global _cache
    if _cache is None:
        rows = (PARALLEL_FULL if os.environ.get("REPRO_BENCH_FULL")
                else PARALLEL_QUICK)
        _cache = run_parallel_suite(rows, verbose=False)
    return _cache


def _rows(kind: str):
    record = _suite_record()
    return {name: row for name, row in record["datasets"].items()
            if row["kind"] == kind}


def test_branch_mode_balances_the_dominant_subproblem():
    """Skewed row: busiest worker must carry < half the dominant subtree."""
    for name, row in _rows("skewed").items():
        print(f"\n{name}: largest subproblem {row['largest_subproblem_branches']} "
              f"branches, busiest worker {row['busiest_worker_branches']} -> "
              f"balance {row['balance_speedup']}x ({row['steals']} steals)")
        assert row["speedup"] >= MIN_BALANCE_SPEEDUP, (
            f"{name}: balance speedup {row['speedup']}x below the "
            f"{MIN_BALANCE_SPEEDUP}x acceptance bar")
        assert row["steals"] > 0, f"{name}: branch mode never stole a subtree"


def test_wall_clock_tracks_the_balance_on_multicore_hosts():
    """With >= 4 real cores the balance win must show up on the clock too."""
    for name, row in _rows("skewed").items():
        if row["single_core"]:
            pytest.skip("host cannot run the workers in parallel; the "
                        "machine-independent balance bar already ran")
        assert row["wall_speedup"] >= MIN_BALANCE_SPEEDUP * 0.75, (
            f"{name}: wall speedup {row['wall_speedup']}x lags the "
            f"{row['balance_speedup']}x balance speedup by more than 25%")


def test_answers_match_the_sequential_ledger_kernel():
    """The pool's candidate sets are identical to the sequential run's."""
    for name, row in _suite_record()["datasets"].items():
        assert row["parity"], f"{name}: parity flag not set"
