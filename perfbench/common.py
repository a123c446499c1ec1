"""What every workload returns, and helpers they share."""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from . import stats


@dataclass
class Outcome:
    """The result of one workload's timed section.

    ``metrics`` holds end-to-end values; ``tails`` records, for each tail
    percentile metric, ``(percentile, samples)`` so the caller can apply
    the ten-samples-beyond rule; ``layers`` holds per-layer values the
    workload reads from telemetry the program returns (span-derived ones
    come from the tracer)."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    tails: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def problem(self, message: str) -> None:
        # Keep the report readable when one defect repeats many times.
        if len(self.problems) < 50:
            self.problems.append(message)

    def percentiles(self, prefix: str, samples_ms: List[float], *ps: float) -> None:
        """Record ``<prefix>_p<p>_ms`` for each percentile, with its sample
        count for the tail rule."""
        for p in ps:
            name = f"{prefix}_p{p:g}_ms"
            self.metrics[name] = stats.percentile(samples_ms, p) if samples_ms else 0.0
            self.tails[name] = (p, len(samples_ms))

    def unsupported_tails(self) -> List[str]:
        return [
            f"{name}: {n} samples leave fewer than {stats.TAIL_BEYOND} beyond"
            f" p{p:g} (need {stats.min_samples(p)})"
            for name, (p, n) in sorted(self.tails.items())
            if not stats.supports(p, n)
        ]


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat_setup(
    times: int,
    build: Callable[[], object],
    discard: Optional[Callable[[object], None]] = None,
) -> Tuple[object, float]:
    """Run ``build`` ``times`` times, handing every result but the last
    to ``discard``; return the last result and the median duration in
    seconds.  ``discard`` is not part of the timed build."""
    durations: List[float] = []
    result = None
    for attempt in range(times):
        if attempt and discard is not None:
            discard(result)
        started = time.perf_counter()
        result = build()
        durations.append(time.perf_counter() - started)
    return result, stats.median(durations)


#: How many times the table1 and compile workloads repeat their set-up
#: to report a median: each set-up takes a fraction of a second, and the
#: median of 5 still moved by a quarter between runs.
SETUP_REPEATS = 15
