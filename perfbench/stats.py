"""Percentiles without numpy (the harness stays importable without it)."""

from __future__ import annotations


def pct(values: list[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation (numpy's default);
    0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
