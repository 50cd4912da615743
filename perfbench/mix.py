"""The ``rw-mix`` workload: a read/write mix on enron.

The mix: about 90% queries drawn from four fixed (gamma, theta) points at
which enron's cold query does real branch work, and about 10% single-edge
mutations on per-client disjoint edge pools drawn uniformly from enron's
edges: each removes a random pool edge still present or re-adds a random one
the client removed.  After the deadline each client re-adds every edge it
still holds removed, and each spec's answer must equal an in-process
``run_enumeration`` on ``load_dataset("enron")``.

The untraced run drives the mix in-process on a
:class:`~repro.dynamic.DynamicEngine` with one closed-loop client.  Over the
wire, a warm hit is dominated by thread hand-offs whose latency swung 2-3x
with the host's load, so served numbers cannot carry a bound; see
``README.md``.

The traced run replays the mix through a ``repro serve`` subprocess with two
closed-loop clients, each on its own :class:`~repro.serve.ServeClient`
connection.  It first measures an untraced phase (the
``trace.overhead_ratio`` baseline), then restarts the server with
``--trace-dir``, aggregates the span self time of the per-request Chrome
traces it writes, and reads counters from the ``stats`` op.
"""

from __future__ import annotations

import json
import os
import random
import re
import resource
import select
import subprocess
import sys
import threading
import time

from repro.api import QuerySpec
from repro.datasets import load_dataset, load_dynamic
from repro.dynamic import DynamicEngine
from repro.engine import MQCEEngine
from repro.errors import ReproError
from repro.pipeline import run_enumeration
from repro.serve import ServeClient

from common import ROOT, SRC, Mismatch, median, percentile, ratio

#: Enron's cold query explores 111-365 branches at each point, in 20-40 ms.
#: Misses this cheap leave the median query a warm hit and make the tail.
#: At points costing 100-250 ms, the re-enumerations after each re-add held
#: the server most of the time, the median query was a hit waiting behind
#: one, and its quartile spread over seeds was 0.34-0.45.
SPECS = ({"gamma": 0.8, "theta": 8}, {"gamma": 0.85, "theta": 7},
         {"gamma": 0.85, "theta": 8}, {"gamma": 0.9, "theta": 6})
MUTATE_SHARE = 0.1
CLIENTS = 2
POOL_EDGES = 64
SETUP_RUNS = 15
PINGS = 200
START_TIMEOUT = 60.0
#: Failures a closed-loop op may end in; any other exception aborts the run.
OP_ERRORS = (ReproError, OSError)


class Server:
    """One ``repro serve --dataset enron`` subprocess, ready once constructed."""

    def __init__(self, trace_dir: str | None = None) -> None:
        command = [sys.executable, "-m", "repro", "serve", "--dataset", "enron",
                   "--port", "0", "--allow-shutdown"]
        if trace_dir is not None:
            command += ["--trace-dir", trace_dir]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.process = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                                        stdout=subprocess.PIPE)
        try:
            self.port = self._read_port()
            with ServeClient(port=self.port, timeout=START_TIMEOUT) as client:
                client.ping()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT)
        line = self.process.stdout.readline() if ready else ""
        match = re.search(r" on [^ ]+:(\d+) ", line)
        if match is None:
            raise RuntimeError(f"server did not announce its port: {line!r}")
        return int(match.group(1))

    def stop(self) -> None:
        """Ask for ``shutdown`` and reap the process (kill if it hangs)."""
        if self.process.poll() is None and hasattr(self, "port"):
            try:
                with ServeClient(port=self.port, timeout=10) as client:
                    client.shutdown()
            except OP_ERRORS:
                pass
        if self.process.poll() is None:
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Tally:
    """Latency samples and outcome counts shared by the client threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.queries: list[float] = []
        self.mutations: list[float] = []
        self.coalesced = 0
        self.failed = 0
        self.elapsed = 0.0
        self.errors: list[BaseException] = []


class Traffic:
    """One client's seeded op stream over its own pool of edges.

    About 90% of ops query one of :data:`SPECS`; the rest are single-edge
    mutations that remove a random pool edge still present or re-add a random
    one this client removed, with even odds while both are possible.
    """

    def __init__(self, rng: random.Random, pool: list) -> None:
        self.rng = rng
        self.present, self.removed = list(pool), []

    def next(self) -> tuple:
        """``("query", spec)``, ``("add", edge)`` or ``("remove", edge)``."""
        mutate = self.rng.random() < MUTATE_SHARE
        spec = self.rng.choice(SPECS)
        adding = bool(self.removed) and (not self.present or self.rng.random() < 0.5)
        source = self.removed if adding else self.present
        edge = source[self.rng.randrange(len(source))]
        if not mutate:
            return "query", spec
        return ("add" if adding else "remove"), edge

    def applied(self, kind: str, edge) -> None:
        """Record a mutation that took effect."""
        source, target = ((self.removed, self.present) if kind == "add"
                          else (self.present, self.removed))
        source.remove(edge)
        target.append(edge)


def _client_loop(port: int, traffic: Traffic, deadline: float, tally: Tally) -> None:
    with ServeClient(port=port, timeout=START_TIMEOUT) as client:
        while time.perf_counter() < deadline:
            kind, arg = traffic.next()
            started = time.perf_counter()
            try:
                if kind == "query":
                    _, done = client.query(arg)
                else:
                    client.mutate([(kind, *arg)])
                    traffic.applied(kind, arg)
            except OP_ERRORS:
                with tally.lock:
                    tally.failed += 1
                continue
            elapsed = time.perf_counter() - started
            with tally.lock:
                if kind != "query":
                    tally.mutations.append(elapsed)
                elif done.get("finished") and not done.get("truncated"):
                    tally.queries.append(elapsed)
                    tally.coalesced += bool(done.get("coalesced"))
                else:
                    tally.failed += 1
        if traffic.removed:
            client.mutate([("add", *edge) for edge in traffic.removed])


def _edge_pools(graph, seed: int) -> list[list]:
    """Disjoint per-client pools of enron edges, drawn uniformly."""
    edges = random.Random(seed).sample(sorted(graph.edges()), CLIENTS * POOL_EDGES)
    return [edges[i * POOL_EDGES:(i + 1) * POOL_EDGES] for i in range(CLIENTS)]


def _run_mix(server: Server, seed: int, seconds: float, graph) -> Tally:
    """Drive the mix against ``server`` until the deadline, then restore the graph."""
    pools = _edge_pools(graph, seed)
    tally = Tally()
    started = time.perf_counter()
    deadline = started + seconds

    def client(index: int) -> None:
        try:
            _client_loop(server.port,
                         Traffic(random.Random(seed * 1000 + index), pools[index]),
                         deadline, tally)
        except BaseException as exc:  # reported and re-raised by the main thread
            tally.errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
        if thread.is_alive():
            raise RuntimeError("a served client did not finish")
    if tally.errors:
        raise tally.errors[0]
    tally.elapsed = time.perf_counter() - started
    return tally


def _run_in_process(graph, seed: int, seconds: float, references: dict) -> Tally:
    """Drive one client's share of the mix on a :class:`DynamicEngine` in-process.

    The engine owns ``graph`` and mutates it.  The first query after each
    mutation must equal ``run_enumeration`` on the graph as it then is; that
    check runs off the clock.  After the deadline every removed edge is
    re-added and each spec's answer must equal its reference.
    """
    dynamic = DynamicEngine(graph, name="enron")
    traffic = Traffic(random.Random(seed * 1000), _edge_pools(graph, seed)[0])
    tally = Tally()
    check_next, paused = False, 0.0
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        kind, arg = traffic.next()
        op_started = time.perf_counter()
        if kind != "query":
            (dynamic.add_edge if kind == "add" else dynamic.remove_edge)(*arg)
            tally.mutations.append(time.perf_counter() - op_started)
            traffic.applied(kind, arg)
            check_next = True
            continue
        result = dynamic.query(QuerySpec(**arg))
        elapsed = time.perf_counter() - op_started
        if result.truncated:
            tally.failed += 1
        else:
            tally.queries.append(elapsed)
        if check_next:
            check_started = time.perf_counter()
            expected = run_enumeration(graph, QuerySpec(**arg)).maximal_quasi_cliques
            if set(result.maximal_quasi_cliques) != set(expected):
                raise Mismatch(f"in-process answer for {arg} after "
                               f"{len(tally.mutations)} mutations differs from run_enumeration")
            check_next = False
            pause = time.perf_counter() - check_started
            deadline += pause
            paused += pause
    tally.elapsed = time.perf_counter() - started - paused
    for edge in traffic.removed:
        dynamic.add_edge(*edge)
    for index, spec in enumerate(SPECS):
        answer = dynamic.query(QuerySpec(**spec)).maximal_quasi_cliques
        if set(answer) != references[index]:
            raise Mismatch(f"in-process answer for {spec} differs from run_enumeration")
    return tally


def _setup_s() -> float:
    """One set-up: build enron, bind a :class:`DynamicEngine`, prepare it."""
    started = time.perf_counter()
    load_dynamic("enron").prepared.prepare()
    return time.perf_counter() - started


def _verify(server: Server, references: dict) -> None:
    with ServeClient(port=server.port, timeout=START_TIMEOUT) as client:
        for index, spec in enumerate(SPECS):
            cliques, done = client.query(spec)
            if not done.get("finished") or done.get("truncated"):
                raise Mismatch(f"verification query {spec} did not finish")
            if set(cliques) != references[index]:
                raise Mismatch(f"served answer for {spec} differs from run_enumeration")


def _references(graph) -> dict:
    return {index: set(run_enumeration(graph, QuerySpec(**spec)).maximal_quasi_cliques)
            for index, spec in enumerate(SPECS)}


def _trace_aggregate(trace_dir: str, names) -> dict:
    """Self times of the serve-layer spans over the named per-request traces.

    The service nests one ``admission`` span (flight leaders only) directly
    under ``serve_request``, and the engine's ``enumerate`` span directly under
    ``admission``, so each self time subtracts those direct children.
    """
    request_self, admission_self, request_total = [], [], 0.0
    for name in names:
        with open(os.path.join(trace_dir, name), encoding="utf-8") as handle:
            events = json.load(handle)["traceEvents"]
        durations: dict[str, float] = {}
        for event in events:
            if event.get("ph") == "X":
                durations[event["name"]] = durations.get(event["name"], 0.0) + event["dur"]
        request = durations.get("serve_request", 0.0)
        admission = durations.get("admission", 0.0)
        request_total += request
        request_self.append(request - admission)
        if admission:
            admission_self.append(admission - durations.get("enumerate", 0.0))
    return {"request_self_ms": median(request_self) / 1e3,
            "admission_ms": median(admission_self) / 1e3,
            "request_total_s": request_total / 1e6}


def _plan_ms(graph) -> float:
    """Median ``MQCEEngine.explain`` time over the specs, plan memo warm."""
    engine = MQCEEngine()
    samples = []
    for round_index in range(50):
        for spec in SPECS:
            started = time.perf_counter()
            engine.explain(graph, spec["gamma"], spec["theta"])
            if round_index:
                samples.append(time.perf_counter() - started)
    return median(samples) * 1e3


def run(seed: int, seconds: float, traced: bool, scratch, metrics: dict
        ) -> tuple[int, int]:
    """Run the mix, filling ``metrics``; returns ``(attempted, failed)``.

    Untraced: in-process, one client.  Traced: the served replay.
    """
    graph = load_dataset("enron")
    references = _references(graph)
    if not traced:
        setups = [_setup_s() for _ in range(SETUP_RUNS)]
        tally = _run_in_process(load_dataset("enron"), seed, seconds, references)
        completed = len(tally.queries) + len(tally.mutations)
        metrics["query_p50_ms"] = median(tally.queries) * 1e3
        metrics["ops_per_s"] = completed / tally.elapsed
        metrics["setup_s"] = median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"# rw-mix tails: query_p99_ms={percentile(tally.queries, 0.99) * 1e3:.3f} "
              f"mutate_p50_ms={median(tally.mutations) * 1e3:.3f} "
              f"mutate_p95_ms={percentile(tally.mutations, 0.95) * 1e3:.3f} "
              f"(queries={len(tally.queries)}, mutations={len(tally.mutations)})")
        return completed + tally.failed, tally.failed

    server = Server()
    try:
        baseline = _run_mix(server, seed, seconds / 2, graph)
        _verify(server, references)
    finally:
        server.stop()
    trace_dir = str(scratch.file("traces"))
    server = Server(trace_dir=trace_dir)
    try:
        pings = []
        with ServeClient(port=server.port, timeout=START_TIMEOUT) as client:
            for _ in range(PINGS):
                started = time.perf_counter()
                client.ping()
                pings.append(time.perf_counter() - started)
        tally = _run_mix(server, seed, seconds / 2, graph)
        with ServeClient(port=server.port, timeout=START_TIMEOUT) as client:
            stats = client.stats()
        # Only queries write traces; the verification queries are no part of the mix.
        mix_traces = os.listdir(trace_dir)
        _verify(server, references)
    finally:
        server.stop()
    spans = _trace_aggregate(trace_dir, mix_traces)
    engine = stats["graphs"]["enron"]
    cache, updates = engine["cache"], engine["dynamic"]["updates"]
    admission = stats["admission"]
    queries = tally.queries
    metrics["engine.plan_ms"] = _plan_ms(graph)
    metrics["engine.cache_hit_ratio"] = ratio(cache["hits"], cache["hits"] + cache["misses"])
    metrics["dynamic.retained_ratio"] = ratio(
        updates["entries_retained"],
        updates["entries_retained"] + updates["entries_invalidated"])
    metrics["dynamic.full_rebuilds"] = updates["full_rebuilds"]
    metrics["dynamic.mutate_p50_ms"] = median(tally.mutations) * 1e3
    metrics["dynamic.mutate_p95_ms"] = percentile(tally.mutations, 0.95) * 1e3
    metrics["serve.query_p99_ms"] = percentile(queries, 0.99) * 1e3
    metrics["serve.ping_p50_ms"] = median(pings) * 1e3
    metrics["serve.request_self_ms"] = spans["request_self_ms"]
    metrics["serve.admission_ms"] = spans["admission_ms"]
    metrics["serve.coalesced_ratio"] = ratio(tally.coalesced, len(queries))
    metrics["serve.shed_ratio"] = ratio(
        admission["shed_total"], admission["shed_total"] + admission["admitted_total"])
    metrics["trace.overhead_ratio"] = ratio(median(queries), median(baseline.queries))
    metrics["trace.unattributed_share"] = 1.0 - ratio(spans["request_total_s"], sum(queries))
    attempted = (len(baseline.queries) + len(baseline.mutations) + baseline.failed
                 + len(queries) + len(tally.mutations) + tally.failed)
    return attempted, baseline.failed + tally.failed
