"""Incremental delivery of maximal quasi-cliques (streaming MQCE).

The batch pipeline (:func:`repro.pipeline.mqce.run_enumeration`) materialises
every MQCE-S1 candidate, filters, and only then returns — interactive and
top-k consumers pay for the whole enumeration before seeing the first answer.
This module streams instead: :class:`QuasiCliqueStream` is an iterator that
yields maximal quasi-cliques *while the enumeration is still running*, with
budget enforcement (``time_limit`` / ``max_results``) and cooperative
cancellation (:meth:`QuasiCliqueStream.cancel`).

Why early yields are safe
-------------------------
DCFastQC solves one subproblem per vertex of its ordering; every output of
subproblem ``i`` contains the root ``v_i`` and no earlier-ordered vertex
(:meth:`repro.core.dcfastqc.DCFastQC.iter_candidate_batches`).  Any proper
superset ``H`` of such an output ``X`` contains ``X``'s vertices, so ``H``'s
lowest-ordered vertex is ``v_j`` with ``j <= i`` — meaning ``H`` is emitted in
subproblem ``j``, *no later than* ``X``'s own subproblem.  Therefore, once
subproblem ``i`` completes, each of its outputs is maximal **iff** no proper
superset exists among the candidates seen so far, which an incrementally
maintained set-trie answers exactly.  Confirmed sets can be yielded
immediately and are never retracted.

For algorithms without the divide-and-conquer structure (plain FastQC,
Quick+, the naive baseline) no such barrier exists, so the stream falls back
to a terminal flush: enumerate fully (still honouring the budgets
cooperatively), filter once, then yield.  Budget semantics under truncation:
sets yielded by the incremental path are always genuinely maximal in the full
answer; a time-truncated terminal flush yields the maximal sets of the
candidates found so far (best-effort).
"""

from __future__ import annotations

import time
from collections.abc import Iterator

from ..core.dcfastqc import DEFAULT_MAX_ROUNDS
from ..graph.graph import Graph
from ..settrie.settrie import SetTrie
from ..settrie.filter import filter_non_maximal
from .mqce import build_enumerator, canonical_order, resolve_algorithm


class QueryBudget:
    """Shared budget state between a stream and its enumerator.

    ``expired()`` is the cooperative-stop predicate handed to the
    branch-and-bound engines: it turns true when the wall-clock deadline
    passes, the result quota is met, or :meth:`cancel` was called.
    """

    def __init__(self, time_limit: float | None = None,
                 max_results: int | None = None) -> None:
        self.deadline = None if time_limit is None else time.monotonic() + time_limit
        self.max_results = max_results
        self.delivered = 0
        self.cancelled = False

    def quota_reached(self) -> bool:
        return self.max_results is not None and self.delivered >= self.max_results

    def expired(self) -> bool:
        if self.cancelled or self.quota_reached():
            return True
        return self.deadline is not None and time.monotonic() >= self.deadline

    def cancel(self) -> None:
        self.cancelled = True


class QuasiCliqueStream(Iterator[frozenset]):
    """An iterator of maximal gamma-quasi-cliques, delivered incrementally.

    Parameters mirror :func:`repro.pipeline.mqce.build_enumerator` plus the
    budgets.  Progress is observable while iterating:

    ``candidates_seen``
        MQCE-S1 candidates observed so far.
    ``delivered``
        Maximal quasi-cliques yielded so far.
    ``subproblems_completed``
        Divide-and-conquer subproblems fully processed (DC path only).
    ``finished``
        True once the underlying enumeration ran to completion and every
        maximal set was yielded.
    ``truncated``
        True when a budget or :meth:`cancel` stopped the stream early.
    """

    def __init__(self, graph: Graph, gamma: float, theta: int, *,
                 algorithm: str = "auto", branching: str | None = None,
                 framework: str | None = None, kernel: str = "ledger",
                 max_rounds: int = DEFAULT_MAX_ROUNDS,
                 maximality_filter: bool = True,
                 time_limit: float | None = None,
                 max_results: int | None = None,
                 progress=None, tracer=None) -> None:
        self.algorithm = resolve_algorithm(algorithm)
        self.framework = framework if framework is not None else "dc"
        self.budget = QueryBudget(time_limit, max_results)
        self.enumerator = build_enumerator(
            graph, gamma, theta, algorithm=self.algorithm, branching=branching,
            framework=self.framework, kernel=kernel, max_rounds=max_rounds,
            maximality_filter=maximality_filter, should_stop=self.budget.expired,
            progress=progress, tracer=tracer)
        self.theta = theta
        self.candidates: list[frozenset] = []
        self.subproblems_completed = 0
        self.finished = False
        self.truncated = False
        if self.algorithm == "dcfastqc" and self.framework in ("dc", "basic-dc"):
            self._iterator = self._incremental()
        else:
            self._iterator = self._terminal_flush()

    # ------------------------------------------------------------------
    # Iterator protocol and control
    # ------------------------------------------------------------------
    def __iter__(self) -> "QuasiCliqueStream":
        return self

    def __next__(self) -> frozenset:
        return next(self._iterator)

    def cancel(self) -> None:
        """Request cooperative cancellation; the next branch boundary stops."""
        self.budget.cancel()

    @property
    def candidates_seen(self) -> int:
        return len(self.candidates)

    @property
    def delivered(self) -> int:
        return self.budget.delivered

    @property
    def statistics(self):
        """The underlying enumerator's branch-and-bound counters (live)."""
        return self.enumerator.statistics

    # ------------------------------------------------------------------
    # Delivery paths
    # ------------------------------------------------------------------
    def _incremental(self) -> Iterator[frozenset]:
        """DC path: confirm and yield each subproblem's outputs as it completes."""
        trie = SetTrie()
        for batch in self.enumerator.iter_candidate_batches():
            self.candidates.extend(batch)
            for candidate in batch:
                trie.insert(candidate)
            if self.enumerator.stopped:
                # The last batch may be partial (a superset of one of its
                # members could still be unexplored), so it is not confirmed.
                self.truncated = True
                return
            self.subproblems_completed += 1
            # Largest first: a batch member never eliminates a larger one.
            for candidate in sorted(batch, key=len, reverse=True):
                if trie.exists_superset(candidate, proper=True):
                    continue
                self.budget.delivered += 1
                yield candidate
                if self.budget.quota_reached() or self.budget.cancelled:
                    self.truncated = True
                    return
        if self.enumerator.stopped:
            self.truncated = True
        else:
            self.finished = True

    def _terminal_flush(self) -> Iterator[frozenset]:
        """Non-DC path: enumerate fully (budget-aware), filter once, then yield."""
        self.candidates = self.enumerator.enumerate()
        self.truncated = getattr(self.enumerator, "stopped", False)
        maximal = filter_non_maximal(self.candidates, theta=self.theta)
        for clique in canonical_order(maximal):
            if self.budget.quota_reached() or self.budget.cancelled:
                self.truncated = True
                return
            self.budget.delivered += 1
            yield clique
        if not self.truncated:
            self.finished = True


def stream_maximal_quasi_cliques(graph: Graph, gamma: float, theta: int,
                                 **options) -> QuasiCliqueStream:
    """Functional convenience: a :class:`QuasiCliqueStream` over ``graph``.

    ``options`` are the keyword parameters of :class:`QuasiCliqueStream`
    (algorithm, branching, framework, kernel, max_rounds, maximality_filter,
    time_limit, max_results).
    """
    return QuasiCliqueStream(graph, gamma, theta, **options)
