"""Tests of the whole-run benchmark's pure helpers."""

from __future__ import annotations

import math
import statistics

import pytest

from wholerun import stats
from wholerun.stats import MISS, Phase, Span


# ----------------------------------------------------------------------
# Percentiles and their support
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 90) == 90
    assert stats.percentile(samples, 100) == 100
    assert stats.percentile([7.0, 3.0, 5.0], 90) == 7.0


def test_percentile_of_empty_sample_raises():
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "n, pct, expected",
    [(100, 90, True), (99, 90, False), (110, 90, True), (3, 90, False),
     (1000, 99, True), (999, 99, False), (20, 50, True)],
)
def test_percentile_support_needs_ten_samples_beyond(n, pct, expected):
    assert stats.supported(n, pct) is expected


def test_beyond_counts_samples_above_the_rank():
    assert stats.beyond(100, 90) == 10
    assert stats.beyond(147, 90) == 14
    assert stats.beyond(3, 90) == 0


def test_misses_sort_to_the_tail():
    samples = [0.1] * 85 + [MISS] * 15
    assert stats.percentile(samples, 50) == 0.1
    assert stats.percentile(samples, 90) == MISS


# ----------------------------------------------------------------------
# Quartile spread
# ----------------------------------------------------------------------
def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 10.0, 9.7]
    q1, median, q3, spread = stats.quartile_spread(values)
    expected_q1, _, expected_q3 = statistics.quantiles(values, n=4)
    assert (q1, q3) == (expected_q1, expected_q3)
    assert median == statistics.median(values)
    assert spread == pytest.approx((expected_q3 - expected_q1) / median)


def test_quartile_spread_of_constant_values_is_zero():
    assert stats.quartile_spread([2.0] * 10)[3] == 0.0


# ----------------------------------------------------------------------
# Backlog, phases and the rate ladder
# ----------------------------------------------------------------------
def test_backlog_growing_compares_first_and_last_quarter():
    steady = [0.001] * 40
    growing = [0.01 * i for i in range(40)]
    assert not stats.backlog_growing(steady, limit_s=0.25)
    assert stats.backlog_growing(growing, limit_s=0.25)
    assert not stats.backlog_growing([5.0, 6.0], limit_s=0.25)


def test_phase_passes_on_p90_within_limit():
    fast = Phase(rate=10, latencies_s=[0.05] * 95 + [0.3] * 5)
    slow = Phase(rate=10, latencies_s=[0.05] * 85 + [0.3] * 15)
    assert stats.phase_passes(fast, limit_s=0.25)
    assert not stats.phase_passes(slow, limit_s=0.25)


def test_failed_and_refused_requests_count_as_misses():
    # 11 of 100 requests were refused (429) or failed: p90 is a miss
    # even though every answered request was fast.
    phase = Phase(rate=10, latencies_s=[0.01] * 89 + [MISS] * 11)
    assert not stats.phase_passes(phase, limit_s=0.25)
    phase = Phase(rate=10, latencies_s=[0.01] * 91 + [MISS] * 9)
    assert stats.phase_passes(phase, limit_s=0.25)


def test_growing_backlog_fails_a_phase_within_the_limit():
    lags = [0.004 * i for i in range(100)]
    phase = Phase(rate=10, latencies_s=[0.1] * 100, lags_s=lags)
    assert not stats.phase_passes(phase, limit_s=0.25)


def test_empty_phase_fails():
    assert not stats.phase_passes(Phase(rate=1, latencies_s=[]), 1.0)


def test_rate_ladder_is_geometric_around_the_reference():
    ladder = stats.rate_ladder(14.0, 1.06, below=2, above=3)
    assert len(ladder) == 6
    assert ladder[2] == 14.0
    ratios = [b / a for a, b in zip(ladder, ladder[1:])]
    assert all(r == pytest.approx(1.06) for r in ratios)


def _fake_server(capacity: float):
    """Phases that pass below ``capacity`` and miss above it."""
    calls = []

    def run_phase(rate: float) -> Phase:
        calls.append(rate)
        latency = 0.05 if rate <= capacity else MISS
        return Phase(rate=rate, latencies_s=[latency] * 100,
                     achieved_rate=rate)

    return run_phase, calls


@pytest.mark.parametrize("capacity", [9.0, 14.0, 20.5, 26.0, 1000.0])
def test_search_ladder_finds_the_highest_passing_rung(capacity):
    ladder = stats.rate_ladder(10.0, 1.06, below=0, above=20)
    run_phase, calls = _fake_server(capacity)
    best, phases = stats.search_ladder(ladder, -1, len(ladder), run_phase,
                                       limit_s=0.25)
    passing = [i for i, r in enumerate(ladder) if r <= capacity]
    assert best == (passing[-1] if passing else -1)
    assert len(calls) <= math.ceil(math.log2(len(ladder) + 1))
    assert [p.rate for p in phases] == calls


def test_search_ladder_trusts_known_bounds():
    ladder = stats.rate_ladder(10.0, 1.06, below=0, above=10)
    run_phase, calls = _fake_server(capacity=12.0)
    best, _ = stats.search_ladder(ladder, 2, 3, run_phase, limit_s=0.25)
    assert best == 2 and calls == []


def test_search_ladder_counts_refusals_as_misses():
    ladder = stats.rate_ladder(10.0, 1.06, below=0, above=10)

    def run_phase(rate: float) -> Phase:
        refused = 0 if rate < 12.0 else 20  # 429s above 12/s
        return Phase(rate=rate,
                     latencies_s=[0.05] * (100 - refused) + [MISS] * refused)

    best, _ = stats.search_ladder(ladder, -1, len(ladder), run_phase, 0.25)
    assert ladder[best] < 12.0 <= ladder[best + 1]


# ----------------------------------------------------------------------
# Self time and coverage
# ----------------------------------------------------------------------
def test_self_time_subtracts_children():
    spans = [
        Span("run", 0.0, 10.0),
        Span("qhd.solve", 1.0, 8.0, parent=0),
        Span("qhd.evolve", 1.5, 6.5, parent=1),
        Span("qhd.measure", 6.5, 7.0, parent=1),
        Span("community.refine", 8.0, 9.5, parent=0),
    ]
    assert stats.self_times(spans) == pytest.approx(
        [10.0 - 7.0 - 1.5, 7.0 - 5.0 - 0.5, 5.0, 0.5, 1.5])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("parent", 0.0, 10.0),
        Span("a", 1.0, 5.0, parent=0),
        Span("b", 3.0, 7.0, parent=0),
        Span("c", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert stats.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_coverage_is_attributed_self_time_over_root_wall():
    spans = [
        Span("run", 0.0, 10.0),
        Span("qhd.solve", 0.0, 8.0, parent=0),
        Span("qhd.evolve", 1.0, 7.0, parent=1),
        Span("run", 10.0, 20.0),
        Span("community.refine", 10.0, 19.0, parent=3),
    ]
    # (8 + 9) attributed out of 20 s of wall time.
    assert stats.coverage(spans, "run") == pytest.approx(17.0 / 20.0)


def test_coverage_without_roots_is_zero():
    assert stats.coverage([Span("qhd.solve", 0.0, 1.0)], "run") == 0.0
