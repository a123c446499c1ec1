"""Small statistics helpers shared by the workloads.

Percentiles are nearest-rank: the p-th percentile of n sorted samples is
the sample at rank ceil(p/100 * n).  A tail percentile is only reported
when at least ten samples lie beyond it, so it is never one unlucky
sample.
"""

from __future__ import annotations

import math
import re
from typing import Sequence

#: A metric name: starts with a letter or digit, at most 64 of
#: letters, digits, ``_``, ``.`` and ``-``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
#: A unit: at most 16 of letters, digits, ``_``, ``/``, ``%``, ``.``, ``-``.
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_RE.fullmatch(unit) is not None


def rank(p: float, n: int) -> int:
    """1-based nearest rank of the p-th percentile among n samples."""
    if n <= 0:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    # Rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of unsorted ``values``."""
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def beyond(p: float, n: int) -> int:
    """How many of n samples lie above the p-th percentile's rank."""
    return n - rank(p, n)


def supports(p: float, n: int) -> bool:
    """True when n samples leave at least :data:`TAIL_BEYOND` beyond the
    p-th percentile (the median always qualifies)."""
    return p <= 50 or (n > 0 and beyond(p, n) >= TAIL_BEYOND)


def min_samples(p: float) -> int:
    """The fewest samples for which :func:`supports` holds."""
    n = 1
    while not supports(p, n):
        n += 1
    return n


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)
