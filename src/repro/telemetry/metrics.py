"""Process-local metrics: counters, gauges, fixed-bucket histograms.

Bucket edges are fixed at construction (``DEFAULT_TIME_EDGES`` spans
1 µs → ~4000 s in powers of four), so two runs observing the same
values produce byte-identical snapshots — ``repro-report diff`` then
shows real deltas, not bucket-boundary noise.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Sequence, Tuple

#: Deterministic seconds-scale edges: 1e-6 * 4**i for i in 0..11.
DEFAULT_TIME_EDGES: Tuple[float, ...] = tuple(1e-6 * 4**i for i in range(12))


class Counter:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram: ``counts[i]`` counts values <= edges[i];
    the final bucket is the overflow (> last edge)."""

    __slots__ = ("edges", "counts", "sum", "count")

    def __init__(self, edges: Sequence[float] = DEFAULT_TIME_EDGES) -> None:
        self.edges: Tuple[float, ...] = tuple(edges)
        self.counts: List[int] = [0] * (len(self.edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.edges, value)] += 1
        self.sum += value
        self.count += 1


class MetricsRegistry:
    """Named counters/gauges/histograms with a deterministic snapshot."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            c = self._counters[name] = Counter()
            return c

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            g = self._gauges[name] = Gauge()
            return g

    def histogram(
        self, name: str, edges: Sequence[float] = DEFAULT_TIME_EDGES
    ) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            h = self._histograms[name] = Histogram(edges)
            return h

    def snapshot(self) -> Dict[str, object]:
        """Flat, sorted, JSON-ready snapshot (diffs cleanly run-to-run)."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: {
                    "edges": list(self._histograms[name].edges),
                    "counts": list(self._histograms[name].counts),
                    "sum": self._histograms[name].sum,
                    "count": self._histograms[name].count,
                }
                for name in sorted(self._histograms)
            },
        }

