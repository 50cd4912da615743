"""Shared helpers: percentiles, the mismatch error and the run's scratch space."""

from __future__ import annotations

import os
import shutil
import statistics
import time
from pathlib import Path

#: Repository root (the benchmark lives one directory below it).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for generated edge lists and server traces, inside the
#: checkout and listed in the root ``.gitignore``.
SCRATCH = ROOT / ".perfbench_tmp"


def percentile(values, share: float) -> float:
    """Linear-interpolated percentile (``share`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Mismatch(AssertionError):
    """An answer differs from its reference."""


class Scratch:
    """A per-run directory under :data:`SCRATCH`, removed on close."""

    def __init__(self) -> None:
        self.path = SCRATCH / f"run-{os.getpid()}-{time.time_ns()}"
        self.path.mkdir(parents=True)

    def file(self, name: str) -> Path:
        return self.path / name

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            SCRATCH.rmdir()  # only succeeds once no other run uses it
        except OSError:
            pass

    def leaked(self) -> bool:
        return self.path.exists()
