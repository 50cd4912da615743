"""End-to-end MQCE pipeline (MQCE-S1 + MQCE-S2), batch and streaming."""

from .mqce import (
    ALGORITHMS,
    build_enumerator,
    canonical_order,
    enumerate_candidate_quasi_cliques,
    resolve_algorithm,
    run_enumeration,
)
from .results import EnumerationResult
from .streaming import QuasiCliqueStream, QueryBudget, stream_maximal_quasi_cliques

__all__ = [
    "ALGORITHMS",
    "build_enumerator",
    "canonical_order",
    "enumerate_candidate_quasi_cliques",
    "resolve_algorithm",
    "run_enumeration",
    "EnumerationResult",
    "QuasiCliqueStream",
    "QueryBudget",
    "stream_maximal_quasi_cliques",
]
