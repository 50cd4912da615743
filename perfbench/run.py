"""The repository benchmark: one named workload from a seed, answers checked.

    python3 perfbench/run.py --workload powerlaw-csr --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``powerlaw-csr`` — cold queries on a CSR-ingested power-law graph (core layer);
* ``planted-skew`` — cold queries on one planted quasi-clique (branch kernel);
* ``rw-mix``       — a read/write mix on enron, in-process (traced: served).

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run.  Lines before it (prefixed ``#``) carry the host record
and a readable summary.  A wrong answer, a leaked process, a leaked
shared-memory segment or a leftover temporary file makes the run exit 1.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import signal
import sys
import time
from multiprocessing import resource_tracker

from common import ROOT, SRC, Mismatch, Scratch

WORKERS = 2
SHM = "/dev/shm"


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("powerlaw-csr", "planted-skew", "rw-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_record() -> dict:
    """Facts for reading numbers across hosts; nothing is gated on them."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(1_000_000):
            total += value * value
        best = min(best, time.perf_counter() - started)
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "calibration_s": round(best, 6)}


def _shm_entries() -> set:
    return set(os.listdir(SHM)) if os.path.isdir(SHM) else set()


def _stop_resource_tracker() -> None:
    """Stop and reap the resource-tracker process, if this run started one.

    Shared-memory segments (the program's branch-parallel mode) start it; left
    alone it would outlive the benchmark for a moment after exit.
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def _descendants() -> list:
    """``(pid, "pid command (state)")`` of every process below this one, from ``/proc``."""
    parents: dict[int, list] = {}
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and parentheses.
        name = stat[stat.index("(") + 1:stat.rindex(")")]
        state, ppid = stat[stat.rindex(")") + 2:].split()[:2]
        parents.setdefault(int(ppid), []).append((int(entry), f"{entry} {name} ({state})"))
    found, stack = [], [os.getpid()]
    while stack:
        for pid, label in parents.get(stack.pop(), ()):
            found.append((pid, label))
            stack.append(pid)
    return found


def _kill(processes) -> None:
    """Kill leaked processes and reap the ones that are this process's children."""
    for pid, _ in processes:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid, _ in processes:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cold
    import mix

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    print("# host " + json.dumps(host_record()), flush=True)
    shm_before = _shm_entries()
    metrics: dict[str, float] = {}
    scratch = Scratch()
    correct = True
    try:
        if args.workload == "rw-mix":
            attempted, failed = mix.run(args.seed, args.seconds, bool(args.trace),
                                        scratch, metrics)
        else:
            attempted, failed = cold.run(args.workload, args.seed, args.seconds,
                                         bool(args.trace), scratch, WORKERS, metrics)
    except Mismatch as exc:
        print(f"# answer mismatch: {exc}", flush=True)
        correct, attempted, failed = False, 1, 1
    finally:
        scratch.close()
        # Read before the tracker stops: stopping it unlinks leaked segments.
        shm_left = sorted(_shm_entries() - shm_before)
        _stop_resource_tracker()
        running = multiprocessing.active_children()
        left = _descendants()
        _kill(left)
    leaks = []
    if running:
        leaks.append("child processes still running")
    if left:
        leaks.append(f"processes left: {[label for _, label in left]}")
    if shm_left:
        leaks.append(f"shared-memory segments left: {shm_left}")
    if scratch.leaked():
        leaks.append(f"temporary files left in {scratch.path}")
    for leak in leaks:
        print(f"# leak: {leak}", flush=True)
    correct = correct and not leaks

    unknown = set(metrics) - {entry["name"] for entry in wanted}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # A layer the workload does not exercise reports 0 (see README.md).
    result = {entry["name"]: {"value": float(metrics.get(entry["name"], 0.0)),
                              "unit": entry["unit"]} for entry in wanted}
    for name, metric in result.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# failed_ratio = {failed / attempted if attempted else 0.0:.6g} "
          f"({failed} of {attempted} ops)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
