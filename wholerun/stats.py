"""Pure helpers of the whole-run benchmark: percentiles, spreads, the
rate ladder and span arithmetic.

Nothing here imports numpy or the library, so the helpers are cheap to
test and behave the same in the benchmark, the self-check and the
traced run.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

#: A percentile is reported only when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10

MISS = math.inf
"""Latency recorded for a failed, refused or never-sent request: it
misses every latency limit."""


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0-100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n_samples: int, pct: float) -> int:
    """How many of ``n_samples`` lie above the nearest-rank ``pct``."""
    return n_samples - max(1, math.ceil(pct / 100.0 * n_samples))


def supported(n_samples: int, pct: float, min_beyond: int = MIN_BEYOND
              ) -> bool:
    """Whether a sample of ``n_samples`` supports the ``pct`` percentile.

    The rule: at least ``min_beyond`` samples must lie beyond it, so a
    p90 needs 100 samples and a p99 needs 1000.
    """
    return beyond(n_samples, pct) >= min_beyond


def quartile_spread(values: Sequence[float]) -> tuple[float, float, float,
                                                      float]:
    """``(q1, median, q3, (q3 - q1) / median)`` of run-level values.

    The quartiles are :func:`statistics.quantiles` with ``n=4`` (its
    default exclusive method), the spread is their distance as a share
    of the median.
    """
    if len(values) < 2:
        raise ValueError("a spread needs at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / abs(median) if median else math.inf
    return q1, median, q3, spread


# ----------------------------------------------------------------------
# Open-loop rate ladder
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """One open-loop phase at a fixed offered rate.

    ``latencies_s`` holds one entry per request that was due in the
    phase, timed from when it was due; failed, refused and never-sent
    requests are :data:`MISS`.  ``lags_s`` holds, per request sent, how
    far behind its due time it was sent (the backlog).
    """

    rate: float
    latencies_s: list[float]
    lags_s: list[float] = field(default_factory=list)
    achieved_rate: float = 0.0
    generator_late_s: list[float] = field(default_factory=list)


def backlog_growing(lags_s: Sequence[float], limit_s: float) -> bool:
    """Whether the send backlog grew over a phase.

    Compares the median lag of the last quarter of sends with that of
    the first quarter: growth by more than half the latency limit means
    requests arrive faster than they are served.
    """
    if len(lags_s) < 4:
        return False
    quarter = len(lags_s) // 4
    first = statistics.median(lags_s[:quarter])
    last = statistics.median(lags_s[-quarter:])
    return last - first > limit_s / 2.0


def phase_passes(phase: Phase, limit_s: float, pct: float = 90.0) -> bool:
    """Whether ``phase`` meets the SLO: ``pct`` latency within
    ``limit_s`` (misses count as over it) and no growing backlog."""
    if not phase.latencies_s:
        return False
    return (percentile(phase.latencies_s, pct) <= limit_s
            and not backlog_growing(phase.lags_s, limit_s))


def rate_ladder(reference: float, step: float, below: int, above: int
                ) -> list[float]:
    """Geometric ladder ``reference * step**i`` for ``-below <= i <=
    above``, ascending; ``reference`` is a rung."""
    return [reference * step ** i for i in range(-below, above + 1)]


def search_ladder(
    ladder: Sequence[float],
    lo: int,
    hi: int,
    run_phase: Callable[[float], Phase],
    limit_s: float,
) -> tuple[int, list[Phase]]:
    """Binary-search the highest passing rung of ``ladder``.

    ``lo`` is the index of a rung known to pass (``-1`` for none) and
    ``hi`` one known to fail (``len(ladder)`` for none); rungs strictly
    between are probed with ``run_phase``.  Returns the index of the
    highest passing rung (``-1`` if none) and the phases run, in order.
    Passing is assumed monotone in the rate.
    """
    phases = []
    while hi - lo > 1:
        mid = (lo + hi) // 2
        phase = run_phase(ladder[mid])
        phases.append(phase)
        if phase_passes(phase, limit_s):
            lo = mid
        else:
            hi = mid
    return lo, phases


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed call: ``parent`` is the index of the enclosing span in
    the same process and thread, or ``None`` for a top-level span."""

    name: str
    start: float
    end: float
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float
             ) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Self time of each span: its duration minus the part of its
    interval that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return [
        span.duration - _covered(children.get(i, []), span.start, span.end)
        for i, span in enumerate(spans)
    ]


def coverage(spans: Sequence[Span], root: str) -> float:
    """Attributed self time ÷ wall time of the ``root`` spans.

    ``root`` spans wrap whole runs; every other span is a layer call.
    The layer spans' self times summed over the root spans' total
    duration is the share of the wall time the layers account for.
    """
    selfs = self_times(spans)
    wall = sum(s.duration for s in spans if s.name == root)
    if wall <= 0:
        return 0.0
    attributed = sum(t for s, t in zip(spans, selfs) if s.name != root)
    return attributed / wall
