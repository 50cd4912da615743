"""Extensions beyond the core MQCE pipeline.

These implement the problem variants the paper discusses in its related work
and conclusion: top-k largest quasi-clique mining (kernel expansion) and a
parallel divide-and-conquer driver.  Query-driven (containment) search is the
``contains`` workload of :class:`repro.api.QuerySpec`.
"""

from .topk import (
    expand_kernel,
    kernel_expansion_top_k,
    largest_quasi_clique_size,
    top_k_summary,
)
from ..errors import QueryError
from .parallel import PARALLEL_MODES, ParallelDCFastQC, parallel_enumerate
from .stealing import (ForcedStealSchedule, WorkerCrash,
                       branch_parallel_enumerate)

__all__ = [
    "expand_kernel",
    "kernel_expansion_top_k",
    "largest_quasi_clique_size",
    "top_k_summary",
    "QueryError",
    "PARALLEL_MODES",
    "ParallelDCFastQC",
    "parallel_enumerate",
    "ForcedStealSchedule",
    "WorkerCrash",
    "branch_parallel_enumerate",
]
