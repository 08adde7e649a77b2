"""Summary statistics with the benchmark's sample-count rule."""

from __future__ import annotations

import math
import os
from statistics import mean

#: A high percentile is reported only when this many samples lie beyond it.
BEYOND = 10


def percentile(values: list[float], share: float) -> float | None:
    """Nearest-rank percentile, or ``None`` when fewer than ``BEYOND`` samples exceed its rank.

    The nearest rank of ``share`` among ``n`` samples is ``ceil(share * n)``;
    the samples ranked after it are the ones "beyond" the percentile.  So a
    p99 needs at least 1000 samples.
    """
    count = len(values)
    if count == 0:
        return None
    rank = max(1, math.ceil(share * count))
    if count - rank < BEYOND:
        return None
    return sorted(values)[rank - 1]


def segmented_percentile(values: list[float], share: float, segment: int = 1000) -> float | None:
    """Mean over consecutive *segment*-sample runs of each run's percentile.

    Every segment holds at least *segment* samples (a short remainder joins
    the last full one), so each segment's p99 has ten samples beyond it.
    Measured across seeds, the mean spread much less than the median of
    the segment p99s on schema-compile and serve-aio, the two workloads
    with the widest p99 spread, and less than one p99 over all samples on
    match-stream and serve-aio, whose first segment carries a warm-up tail.
    """
    count = len(values) // segment
    if count == 0:
        return None
    bounds = [index * segment for index in range(count)] + [len(values)]
    return mean([percentile(values[low:high], share) for low, high in zip(bounds, bounds[1:])])


def peak_rss_mb(pid: int | str = "self") -> float:
    """The process's peak resident set (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc status")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a process has used so far, all its threads together."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
