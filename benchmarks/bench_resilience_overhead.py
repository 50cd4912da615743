"""Resilience overhead guard: disarmed fault sites must stay (nearly) free.

The PR-9 fault-tolerance layer threads :func:`repro.resilience.faults.fault_point`
calls through the hot paths (frame writes, client connect, steal-worker
task loop, subproblem entry).  With no plan installed the site is one
module-global load plus an ``is None`` test; this suite guards that claim
with absolute per-call ceilings, and records what an *armed but non-matching*
plan costs (a dict miss under the plan lock).

The ceilings are deliberately loose (micro-benchmarks on shared CI runners
jitter hard); they exist to catch a regression that turns the no-op path into
real work — an accidental env read per call, say — not to resolve
nanoseconds.

Run with:  pytest benchmarks/bench_resilience_overhead.py -q --benchmark-disable
"""

from __future__ import annotations

import time

from repro.resilience.faults import fault_point, install_plan, parse_plan

#: Calls per timed repetition — enough that per-call noise averages out.
CALLS = 200_000

#: Best-of repetitions; minima of tight CPU loops are stable.
REPEAT = 7

#: Per-call ceilings (seconds).  A disarmed site is a function call, a global
#: load and an ``is None`` test; 2µs is ~100x its expected cost on any
#: modern core, while an accidental os.environ read would blow through it.
MAX_DISABLED_PER_CALL = 2e-6
MAX_MISS_PER_CALL = 4e-6


def _per_call(site: str) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        for _ in range(CALLS):
            fault_point(site)
        best = min(best, (time.perf_counter() - start) / CALLS)
    return best


def test_disarmed_fault_point_is_near_free(benchmark):
    install_plan(None)
    try:
        per_call = benchmark.pedantic(_per_call, args=("serve.write_frame",),
                                      rounds=1, iterations=1)
    finally:
        install_plan(None)
    benchmark.extra_info["per_call_ns"] = round(per_call * 1e9, 1)
    print(f"\ndisarmed fault_point: {per_call * 1e9:.1f} ns/call")
    assert per_call < MAX_DISABLED_PER_CALL


def test_armed_plan_miss_stays_cheap(benchmark):
    # A plan armed for a *different* site: the hot path pays one dict miss.
    install_plan(parse_plan("client.connect:drop:times=0"))
    try:
        per_call = benchmark.pedantic(_per_call, args=("serve.write_frame",),
                                      rounds=1, iterations=1)
    finally:
        install_plan(None)
    benchmark.extra_info["per_call_ns"] = round(per_call * 1e9, 1)
    print(f"\narmed-plan miss fault_point: {per_call * 1e9:.1f} ns/call")
    assert per_call < MAX_MISS_PER_CALL
