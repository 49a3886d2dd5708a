"""Mergeable metrics: counters, gauges and log-bucketed histograms.

The flight recorder's quantitative half.  Every instrument is designed
around one invariant: a metrics registry folded from per-shard
registries in canonical cell order is **byte-identical** (once
serialised with sorted keys) to the registry a serial run accumulates —
the same contract the parallel engine's report merging already honours.

* :class:`Counter` values and histogram buckets merge by summation
  (commutative + associative, so worker completion order is
  irrelevant);
* :class:`Gauge` carries its last-written value *and* its peak; "last"
  is resolved in canonical shard order, which matches the serial
  execution order by construction;
* :class:`Histogram` buckets virtual-microsecond samples into log2
  bins (bucket ``i`` holds samples in ``[2**i, 2**(i+1))``), so two
  shards' distributions union exactly — no quantile sketch drift.

Nothing here touches the virtual clock or the RNG: recording a sample
is purely observational.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..parallel.merge import merge_sums


def bucket_index(value: float) -> int:
    """The log2 bucket a sample lands in (``-1`` holds zeros and
    sub-microsecond values below 1.0)."""
    if value < 1.0:
        return -1
    # floor(log2(value)) via frexp: exact for the powers of two where
    # log2() would wobble on some libm builds.
    mantissa, exponent = math.frexp(value)
    return exponent - 1


def bucket_bounds(index: int) -> Tuple[float, float]:
    """The ``[low, high)`` range of a bucket index."""
    if index < 0:
        return (0.0, 1.0)
    return (float(2 ** index), float(2 ** (index + 1)))


@dataclass
class Gauge:
    """A last-value instrument with its lifetime peak."""

    value: float = 0.0
    peak: float = 0.0
    sets: int = 0

    def set(self, value: float) -> None:
        self.value = value
        if self.sets == 0 or value > self.peak:
            self.peak = value
        self.sets += 1

    def merged_with(self, other: "Gauge") -> "Gauge":
        """``other`` is the later shard in canonical order: its last
        value wins (when it wrote at all); peaks combine."""
        out = Gauge(value=other.value if other.sets else self.value,
                    peak=max(self.peak, other.peak),
                    sets=self.sets + other.sets)
        return out

    def to_dict(self) -> Dict[str, float]:
        return {"value": self.value, "peak": self.peak, "sets": self.sets}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Gauge":
        return cls(value=float(data["value"]), peak=float(data["peak"]),
                   sets=int(data["sets"]))


@dataclass
class Histogram:
    """Log2-bucketed distribution of virtual-microsecond samples."""

    count: int = 0
    total: float = 0.0
    min: float = 0.0
    max: float = 0.0
    buckets: Dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        value = float(value)
        if self.count == 0:
            self.min = value
            self.max = value
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
        self.count += 1
        self.total += value
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def observe_repeated(self, value: int, times: int) -> None:
        """:meth:`observe` the integer ``value`` ``times`` times in one
        call.  Sums of integer-valued floats below 2**53 are exact, so
        every field matches the repeated calls bit for bit, in any
        order relative to other integer observations."""
        value = float(value)
        if self.count == 0:
            self.min = value
            self.max = value
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
        self.count += times
        self.total += value * times
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + times

    def observe_many(self, values: Sequence[float]) -> None:
        """:meth:`observe` each float in ``values``, in order, in one
        call: the same count, the same total (added left to right),
        min, max and buckets.  Bucket counts come from the sorted
        values, split at the bucket bounds."""
        if not values:
            return
        total = reduce(add, values, self.total)
        if not math.isfinite(total):
            # an infinity or NaN is among the values (or the total
            # already was one): keep observe's per-value rule
            for value in values:
                self.observe(value)
            return
        low, high = min(values), max(values)
        if self.count == 0:
            self.min, self.max = low, high
        else:
            self.min, self.max = min(self.min, low), max(self.max, high)
        self.count += len(values)
        self.total = total
        buckets = self.buckets
        first, last = bucket_index(low), bucket_index(high)
        start = 0
        if first != last:
            ordered = sorted(values)
            for index in range(first, last):
                end = bisect_left(ordered, bucket_bounds(index)[1], start)
                if end > start:
                    buckets[index] = buckets.get(index, 0) + end - start
                start = end
        buckets[last] = buckets.get(last, 0) + len(values) - start

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bucket bound)."""
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                # The open bucket bound can overshoot the largest value
                # actually seen; max is a tighter (and exact) ceiling.
                return min(bucket_bounds(index)[1], self.max)
        return self.max

    def merged_with(self, other: "Histogram") -> "Histogram":
        if self.count == 0:
            low, high = other.min, other.max
        elif other.count == 0:
            low, high = self.min, self.max
        else:
            low, high = min(self.min, other.min), max(self.max, other.max)
        return Histogram(
            count=self.count + other.count,
            total=self.total + other.total,
            min=low, max=high,
            buckets=merge_sums((self.buckets, other.buckets)))

    def to_dict(self) -> Dict[str, Any]:
        return {"count": self.count, "total": self.total,
                "min": self.min, "max": self.max,
                "buckets": {str(k): v
                            for k, v in sorted(self.buckets.items())}}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        return cls(count=int(data["count"]), total=float(data["total"]),
                   min=float(data["min"]), max=float(data["max"]),
                   buckets={int(k): int(v)
                            for k, v in data["buckets"].items()})


class MetricsRegistry:
    """A named bag of counters, gauges and histograms.

    One registry lives on each process's obs collector; experiment
    shards running in pool workers hand theirs back to the parent,
    which folds them in canonical cell order via :meth:`merge_from`.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # --- recording (the instrumented hot paths call these) ----------------

    def inc(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge()
        gauge.set(value)

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    # --- merging ----------------------------------------------------------

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` (the later shard in canonical order) in."""
        self.counters = merge_sums((self.counters, other.counters))
        for name, gauge in other.gauges.items():
            mine = self.gauges.get(name)
            self.gauges[name] = (gauge if mine is None
                                 else mine.merged_with(gauge))
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            self.histograms[name] = (hist if mine is None
                                     else mine.merged_with(hist))

    # --- serialisation ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counters": {k: self.counters[k]
                         for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k].to_dict()
                       for k in sorted(self.gauges)},
            "histograms": {k: self.histograms[k].to_dict()
                           for k in sorted(self.histograms)},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        out = cls()
        out.counters = dict(data.get("counters", {}))
        out.gauges = {k: Gauge.from_dict(v)
                      for k, v in data.get("gauges", {}).items()}
        out.histograms = {k: Histogram.from_dict(v)
                          for k, v in data.get("histograms", {}).items()}
        return out

    def is_empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms)
