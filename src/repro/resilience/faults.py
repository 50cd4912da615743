"""Deterministic fault injection: a seeded, process-global fault plan.

Fail-fast code paths are easy to write and impossible to trust: the recovery
branches (sequential fallback, retry, circuit breaking) only run when
something actually dies, which in normal test runs is never.  This module
makes failure *schedulable*.  Hot paths register **named injection sites**::

    from repro.resilience.faults import fault_point

    def run_task(self, task):
        fault_point("worker.task")          # raises / delays / kills on demand
        ...

    def _write(self, payload):
        data = encode(payload)
        if fault_point("serve.write_frame") == "truncate":
            data = data[: len(data) // 2]   # call site interprets the verdict
        ...

With no plan installed a site is a near-no-op (one global load and an
``is None`` test — guarded by ``benchmarks/bench_resilience_overhead.py``).
A :class:`FaultPlan` arms sites with rules parsed from the ``REPRO_FAULTS``
environment variable or built programmatically::

    REPRO_FAULTS="engine.subproblem:raise:after=2;serve.write_frame:drop:times=3"

Rule syntax: ``site:action[:key=value]...``, ``;``-separated.  Actions:

``raise``
    Raise :class:`~repro.errors.FaultInjectedError` at the site.
``delay=SECONDS``
    Sleep ``SECONDS`` at the site (stall a worker so a test can kill it).
``truncate`` / ``drop``
    Return the action string from :func:`fault_point`; the call site applies
    the domain-specific damage (truncate a payload write, drop a connection).
``kill``
    ``os._exit(137)`` — instant process death, no cleanup handlers, the
    in-process equivalent of ``SIGKILL``.

Modifiers: ``after=N`` (1-based hit at which the rule starts firing, default
1), ``times=N`` (how many hits fire, default 1, ``0`` = unlimited), ``p=F`` +
``seed=S`` (fire each eligible hit with probability ``F`` from a dedicated
``random.Random(seed)`` — *seeded*, so a chaos run replays identically).

Every fired fault increments ``repro_faults_injected_total{site=,action=}``,
so chaos tests assert the fault actually fired instead of silently passing
against a plan that never triggered.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field

from ..errors import FaultInjectedError, ReproError
from ..obs.metrics import REGISTRY

_INJECTED = REGISTRY.counter(
    "repro_faults_injected_total",
    "Faults fired by the deterministic injection plan, by site and action")

#: The environment variable :func:`fault_point` arms itself from.
ENV_VAR = "REPRO_FAULTS"

#: Actions a rule may carry (``delay`` takes its seconds as ``delay=S``).
ACTIONS = ("raise", "delay", "truncate", "drop", "kill")

#: Injection sites registered at hot paths across the stack.  Unknown sites
#: are accepted by the parser (call sites evolve), but this tuple is the
#: canonical matrix chaos tests parametrize over.
KNOWN_SITES = (
    "worker.task",          # branch-parallel steal worker, per received task
    "engine.subproblem",    # run_compact_subproblem (pool workers)
    "serve.enumerate",      # ReproService flight leader, before the stream
    "serve.write_frame",    # every protocol frame write (drop/truncate)
    "client.connect",       # ServeClient socket connect
)


@dataclass
class FaultRule:
    """One armed rule: fire ``action`` at ``site`` on scheduled hits."""

    site: str
    action: str
    after: int = 1
    times: int = 1
    delay: float = 0.0
    p: float = 1.0
    seed: int = 0
    hits: int = 0
    fired: int = 0
    _rng: random.Random | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ReproError(f"unknown fault action {self.action!r}; "
                             f"expected one of {ACTIONS}")
        if self.after < 1:
            raise ReproError("fault 'after' must be >= 1 (1-based hit number)")
        if self.times < 0:
            raise ReproError("fault 'times' must be >= 0 (0 = unlimited)")
        if not 0.0 < self.p <= 1.0:
            raise ReproError("fault 'p' must be in (0, 1]")
        if self.p < 1.0:
            self._rng = random.Random(self.seed)

    def decide(self) -> bool:
        """Record one hit; True when this hit fires (caller holds the lock)."""
        self.hits += 1
        if self.hits < self.after:
            return False
        if self.times and self.fired >= self.times:
            return False
        if self._rng is not None and self._rng.random() >= self.p:
            return False
        self.fired += 1
        return True


class FaultPlan:
    """A set of :class:`FaultRule`\\ s consulted by every injection site."""

    def __init__(self, rules: list[FaultRule] | None = None) -> None:
        self._rules: dict[str, list[FaultRule]] = {}
        self._lock = threading.Lock()
        for rule in rules or []:
            self.add(rule)

    def add(self, rule: FaultRule) -> "FaultPlan":
        self._rules.setdefault(rule.site, []).append(rule)
        return self

    def rule(self, site: str, action: str, **kwargs) -> "FaultPlan":
        """Fluent helper: ``plan.rule("engine.subproblem", "raise", after=2)``."""
        return self.add(FaultRule(site=site, action=action, **kwargs))

    def rules(self, site: str | None = None) -> list[FaultRule]:
        if site is not None:
            return list(self._rules.get(site, ()))
        return [rule for rules in self._rules.values() for rule in rules]

    def trigger(self, site: str) -> str | None:
        """One hit at ``site``: apply raise/delay/kill, report truncate/drop."""
        rules = self._rules.get(site)
        if not rules:
            return None
        fired: FaultRule | None = None
        with self._lock:
            for rule in rules:
                if rule.decide():
                    fired = rule
                    break
        if fired is None:
            return None
        _INJECTED.inc(site=site, action=fired.action)
        if fired.action == "delay":
            time.sleep(fired.delay)
            return None
        if fired.action == "kill":
            os._exit(137)
        if fired.action == "raise":
            raise FaultInjectedError(
                f"injected fault at {site} (hit {fired.hits})", site=site)
        return fired.action  # "truncate" | "drop" — the call site applies it

    def counts(self) -> dict[str, int]:
        """Fired-fault counts by site (for reports and assertions)."""
        return {site: sum(rule.fired for rule in rules)
                for site, rules in self._rules.items()
                if any(rule.fired for rule in rules)}


def parse_plan(text: str) -> FaultPlan:
    """Parse the ``REPRO_FAULTS`` syntax into a :class:`FaultPlan`."""
    plan = FaultPlan()
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) < 2:
            raise ReproError(f"malformed fault rule {chunk!r}; "
                             "expected site:action[:key=value...]")
        site, action, modifiers = parts[0], parts[1], parts[2:]
        kwargs: dict = {}
        if "=" in action:  # "delay=0.5" spelling
            action, _, value = action.partition("=")
            kwargs["delay"] = float(value)
        for modifier in modifiers:
            key, sep, value = modifier.partition("=")
            if not sep:
                raise ReproError(f"malformed fault modifier {modifier!r} "
                                 f"in rule {chunk!r}")
            if key in ("after", "times", "seed"):
                kwargs[key] = int(value)
            elif key in ("delay", "p"):
                kwargs[key] = float(value)
            else:
                raise ReproError(f"unknown fault modifier {key!r} "
                                 f"in rule {chunk!r}")
        plan.add(FaultRule(site=site, action=action, **kwargs))
    return plan


# ----------------------------------------------------------------------
# The process-global plan
# ----------------------------------------------------------------------
_UNSET = object()          # not yet resolved from the environment
_PLAN: object = _UNSET     # FaultPlan | None once resolved


def install_plan(plan: FaultPlan | str | None) -> FaultPlan | None:
    """Install the process-global plan (a plan, rule text, or ``None``)."""
    global _PLAN
    _PLAN = parse_plan(plan) if isinstance(plan, str) else plan
    return _PLAN  # type: ignore[return-value]


def reset_plan() -> None:
    """Forget the installed plan; the next site re-reads ``REPRO_FAULTS``."""
    global _PLAN
    _PLAN = _UNSET


def active_plan() -> FaultPlan | None:
    """The current plan, resolving ``REPRO_FAULTS`` on first use."""
    global _PLAN
    if _PLAN is _UNSET:
        text = os.environ.get(ENV_VAR)
        _PLAN = parse_plan(text) if text else None
    return _PLAN  # type: ignore[return-value]


def fault_point(site: str) -> str | None:
    """Consult the plan at one named site; the hot-path entry point.

    Returns ``None`` (no fault) or ``"truncate"``/``"drop"`` for the call
    site to apply; ``raise``/``delay``/``kill`` rules act right here.
    """
    plan = _PLAN
    if plan is None:
        return None
    if plan is _UNSET:
        plan = active_plan()
        if plan is None:
            return None
    return plan.trigger(site)  # type: ignore[union-attr]


__all__ = [
    "ACTIONS",
    "ENV_VAR",
    "KNOWN_SITES",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "fault_point",
    "install_plan",
    "parse_plan",
    "reset_plan",
]
