#!/usr/bin/env python
"""Re-derive ``AUTO_ARRAY_MIN_WIDTH``: the list-vs-array ledger crossover.

The kernel (``repro.core.kernel``) stores branch-state ledgers in plain
Python lists below a width threshold and in flat ``array('i')`` buffers
above it.  The tradeoff:

* a branch fork copies every ledger — one memcpy for an array, a
  pointer-by-pointer loop for a list — so copies favour arrays, more so the
  wider the state;
* shrink/refine rounds do indexed reads and ``buf[i] += 1`` style updates,
  where a list returns a cached small-int object directly while an array
  must box the int on every access — so element access favours lists at
  every width.

This script measures both costs per width (micro section) and reports, for
each width, the *break-even touch rate*: how many indexed updates per
copy/reset a workload can perform before list buffers win.  The
kernel's real rate comes from its own counters — on a 10^4-vertex power-law
graph the shrink pass dominates and performs ~0.5 indexed updates per
full-width ledger reset (``shrink_ledger_updates / shrink_rounds``), far
below break-even at every width >= 96.  The end-to-end section
cross-checks the conclusion: cold DCFastQC wall-clock with the threshold
patched to force all-``list`` / all-``array`` ledgers and at its ``auto``
default, where the DC decomposition keeps subproblem states far below the
threshold while root-level shrink ledgers sit far above it.

Usage::

    PYTHONPATH=src python scripts/derive_backend_crossover.py [--quick]

The measured numbers land in the ``AUTO_ARRAY_MIN_WIDTH`` comment in
``src/repro/core/kernel.py``; re-run after touching the branch-state copy
path or the shrink ledgers.
"""

from __future__ import annotations

import argparse
import sys
import time
from array import array
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import kernel                                     # noqa: E402
from repro.core.dcfastqc import DCFastQC                          # noqa: E402
from repro.graph import barabasi_albert                           # noqa: E402

WIDTHS = (16, 32, 48, 64, 96, 128, 192, 256, 512, 1024, 4096, 16384)

#: Indexed touches timed per round when measuring per-touch cost (fixed, so
#: the per-touch number is width-independent and comparable across rows).
TOUCHES_PER_ROUND = 64


def _best_of(repeat, run):
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def measure_width(width: int, repeat: int = 5) -> dict:
    """Per-width copy cost and per-touch update cost (ns), per buffer type."""
    rounds = max(1, 2_000_000 // max(width, 64))
    as_list = list(range(width))
    as_array = array("i", as_list)
    step = max(1, width // TOUCHES_PER_ROUND)
    indices = (list(range(0, width, step)) * TOUCHES_PER_ROUND)[:TOUCHES_PER_ROUND]

    def copies(buffer):
        def run():
            for _ in range(rounds):
                buffer[:]
        return run

    def touches(buffer):
        def run():
            for _ in range(rounds):
                for i in indices:
                    buffer[i] += 1
        return run

    list_copy = _best_of(repeat, copies(as_list)) / rounds
    array_copy = _best_of(repeat, copies(as_array)) / rounds
    list_touch = _best_of(repeat, touches(as_list)) / rounds / TOUCHES_PER_ROUND
    array_touch = _best_of(repeat, touches(as_array)) / rounds / TOUCHES_PER_ROUND
    # The copy saving buys this many boxed array accesses before list
    # buffers break even; a workload touching fewer entries per copy/reset
    # than this is faster on arrays at this width.
    penalty = array_touch - list_touch
    break_even = ((list_copy - array_copy) / penalty
                  if penalty > 0 else float("inf"))
    return {
        "width": width,
        "list_copy_ns": list_copy * 1e9,
        "array_copy_ns": array_copy * 1e9,
        "list_touch_ns": list_touch * 1e9,
        "array_touch_ns": array_touch * 1e9,
        "break_even_touches": break_even,
    }


def run_micro(repeat: int) -> list[dict]:
    rows = [measure_width(width, repeat) for width in WIDTHS]
    print(f"{'width':>6} {'copy list/array ns':>22} "
          f"{'per-touch list/array ns':>24} {'break-even touches/copy':>24}")
    for row in rows:
        print(f"{row['width']:>6} "
              f"{row['list_copy_ns']:>10.0f}/{row['array_copy_ns']:<11.0f} "
              f"{row['list_touch_ns']:>12.1f}/{row['array_touch_ns']:<11.1f} "
              f"{row['break_even_touches']:>24.1f}")
    return rows


def run_end_to_end(vertices: int, repeat: int) -> dict:
    graph = barabasi_albert(vertices, 3, seed=5)
    gamma, theta = 0.9, 4
    timings = {}
    results = {}
    stats = {}
    default_width = kernel.AUTO_ARRAY_MIN_WIDTH
    widths = {"list": sys.maxsize, "array": 0, "auto": default_width}
    for backend, width in widths.items():
        kernel.AUTO_ARRAY_MIN_WIDTH = width
        try:
            def run():
                algo = DCFastQC(graph, gamma, theta)
                results[backend] = algo.enumerate()
                stats[backend] = algo.statistics
            timings[backend] = _best_of(repeat, run)
        finally:
            kernel.AUTO_ARRAY_MIN_WIDTH = default_width
    assert results["list"] == results["array"] == results["auto"]
    measured = stats["auto"]
    rate = (measured.shrink_ledger_updates / measured.shrink_rounds
            if measured.shrink_rounds else float("nan"))
    print(f"\nend-to-end: cold DCFastQC, n={vertices} power-law, "
          f"gamma={gamma} theta={theta}, {len(results['auto'])} candidates")
    for backend, seconds in timings.items():
        print(f"  {backend:>6}: {seconds * 1000:8.1f} ms")
    print(f"measured kernel mix: {measured.shrink_rounds} shrink rounds, "
          f"{measured.shrink_ledger_updates} indexed ledger updates "
          f"(~{rate:.2f} touches per full-width reset; branch ledgers: "
          f"{measured.ledger_moves} moves / {measured.ledger_updates} updates "
          f"over {measured.branches_explored} branches)")
    return timings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller end-to-end graph, fewer repetitions")
    parser.add_argument("--vertices", type=int, default=None,
                        help="end-to-end graph size (default 12000; quick 3000)")
    args = parser.parse_args(argv)
    repeat = 3 if args.quick else 5
    vertices = args.vertices or (3000 if args.quick else 12000)

    run_micro(repeat)
    run_end_to_end(vertices, repeat)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
