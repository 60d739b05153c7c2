"""Small measurement helpers: percentiles, host record, memory."""

from __future__ import annotations

import math
import os
import platform
import resource
from pathlib import Path

#: A reported percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10


def percentile(samples: list[float], q: float) -> float:
    """The nearest-rank ``q``-quantile, refused without a supported tail.

    Nearest rank picks the ``ceil(q * n)``-th smallest sample; the
    ``n - ceil(q * n)`` samples above it must number at least
    :data:`TAIL_SAMPLES`, or the percentile says nothing about the tail.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    n = len(samples)
    rank = math.ceil(q * n)
    if n - rank < TAIL_SAMPLES:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it; "
            f"need {TAIL_SAMPLES}")
    return sorted(samples)[rank - 1]


def peak_rss_mb(worker_processes: int = 0) -> float:
    """Peak resident set of this process plus its reaped workers, in MiB.

    ``RUSAGE_CHILDREN`` reports the largest reaped child, so the workers'
    share is that peak times ``worker_processes``.  Linux reports KiB.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child * worker_processes) / 1024.0


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record(root: Path) -> dict:
    import numpy

    return {"cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "git_sha": git_sha(root)}
