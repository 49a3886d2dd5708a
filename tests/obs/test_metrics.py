"""Metrics primitives: bucketing, merging, serialisation."""

from __future__ import annotations

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import (
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_bounds,
    bucket_index,
)
from repro.parallel.merge import merge_sums


class TestBucketIndex:
    def test_sub_unit_values_share_the_minus_one_bucket(self):
        assert bucket_index(0.0) == -1
        assert bucket_index(0.05) == -1
        assert bucket_index(0.999) == -1

    def test_powers_of_two_open_their_own_bucket(self):
        assert bucket_index(1.0) == 0
        assert bucket_index(2.0) == 1
        assert bucket_index(1024.0) == 10
        assert bucket_index(1023.9) == 9

    def test_bounds_invert_the_index(self):
        for value in (0.3, 1.0, 7.5, 900.0, 2.0 ** 40):
            low, high = bucket_bounds(bucket_index(value))
            assert low <= value < high


class TestHistogram:
    def test_observe_tracks_count_total_min_max(self):
        hist = Histogram()
        for value in (3.0, 1.0, 10.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 14.0
        assert hist.min == 1.0
        assert hist.max == 10.0
        assert hist.mean == 14.0 / 3

    def test_quantile_returns_bucket_upper_bound(self):
        hist = Histogram()
        for _ in range(99):
            hist.observe(2.5)  # bucket 1: [2, 4)
        hist.observe(1000.0)
        assert hist.quantile(0.5) == 4.0
        assert hist.quantile(1.0) == hist.max

    def test_merge_matches_serial_accumulation(self):
        serial = Histogram()
        left, right = Histogram(), Histogram()
        for value in (0.2, 5.0, 5.5):
            serial.observe(value)
            left.observe(value)
        for value in (70.0, 0.9):
            serial.observe(value)
            right.observe(value)
        merged = left.merged_with(right)
        assert merged.to_dict() == serial.to_dict()

    def test_merge_with_empty_side_keeps_min_max(self):
        hist = Histogram()
        hist.observe(4.0)
        assert Histogram().merged_with(hist).to_dict() == hist.to_dict()
        assert hist.merged_with(Histogram()).to_dict() == hist.to_dict()

    def test_roundtrip(self):
        hist = Histogram()
        for value in (0.1, 3.0, 3.1, 99.0):
            hist.observe(value)
        assert Histogram.from_dict(hist.to_dict()).to_dict() \
            == hist.to_dict()


#: samples at the bucket rule's edges: zero, sub-unit values, exact
#: powers of two and their neighbours, plus anything finite
samples = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.999, 1.0, 2.0, 3.0, 4.0, 1024.0,
                     2.0 ** 40, math.nextafter(2.0, 0.0),
                     math.nextafter(1024.0, math.inf)]),
    st.floats(-10.0, 1e12),
)


def fields(hist):
    """Every histogram field, floats by their exact bits."""
    return (hist.count, hist.total.hex(), hist.min.hex(), hist.max.hex(),
            hist.buckets)


def one_by_one(batches):
    hist = Histogram()
    for batch in batches:
        for value in batch:
            hist.observe(value)
    return hist


def in_bulk(batches):
    hist = Histogram()
    for batch in batches:
        hist.observe_many(batch)
    return hist


class TestObserveMany:
    @given(batches=st.lists(st.lists(samples, max_size=40), max_size=6))
    def test_equals_repeated_observe(self, batches):
        assert fields(in_bulk(batches)) == fields(one_by_one(batches))

    @given(left=st.lists(st.lists(samples, max_size=30), max_size=4),
           right=st.lists(st.lists(samples, max_size=30), max_size=4))
    def test_merging_bulk_filled_histograms(self, left, right):
        merged = in_bulk(left).merged_with(in_bulk(right))
        assert fields(merged) \
            == fields(one_by_one(left).merged_with(one_by_one(right)))

    def test_edges_of_the_bucket_rule(self):
        batch = [0.0, 0.5, 1.0, 2.0, 4.0, 3.999, 8.0, 0.0, 1024.0]
        hist = Histogram()
        hist.observe_many(batch)
        assert hist.buckets == {-1: 3, 0: 1, 1: 2, 2: 1, 3: 1, 10: 1}
        assert fields(hist) == fields(one_by_one([batch]))

    def test_sums_left_to_right(self):
        # a compensated or reordered sum would give 1.0 here
        batch = [1e16, 1.0, -1e16, 1.0]
        assert in_bulk([batch]).total == one_by_one([batch]).total == 1.0
        assert in_bulk([batch]).total == ((1e16 + 1.0) - 1e16) + 1.0

    def test_non_finite_values_keep_the_observe_rule(self):
        batches = [[3.0, math.inf, 0.5], [7.0], [math.nan, 2.0]]
        assert repr(fields(in_bulk(batches))) \
            == repr(fields(one_by_one(batches)))

    def test_empty_batch_changes_nothing(self):
        hist = Histogram()
        hist.observe_many([])
        assert fields(hist) == fields(Histogram())


class TestGauge:
    def test_last_value_and_peak(self):
        gauge = Gauge()
        for value in (5.0, 9.0, 2.0):
            gauge.set(value)
        assert gauge.value == 2.0
        assert gauge.peak == 9.0
        assert gauge.sets == 3

    def test_merge_later_shard_wins_when_it_wrote(self):
        early, late = Gauge(), Gauge()
        early.set(10.0)
        late.set(3.0)
        merged = early.merged_with(late)
        assert merged.value == 3.0
        assert merged.peak == 10.0

    def test_merge_silent_later_shard_keeps_earlier_value(self):
        early = Gauge()
        early.set(7.0)
        merged = early.merged_with(Gauge())
        assert merged.value == 7.0
        assert merged.sets == 1


class TestRegistryMerge:
    def test_sharded_merge_serialises_identically_to_serial(self):
        samples = [("a", 1.5), ("b", 0.4), ("a", 2.5), ("a", 80.0)]
        serial = MetricsRegistry()
        shards = [MetricsRegistry(), MetricsRegistry()]
        for index, (name, value) in enumerate(samples):
            serial.inc(f"count.{name}")
            serial.observe(f"hist.{name}", value)
            serial.set_gauge("depth", value)
            shard = shards[index // 2]
            shard.inc(f"count.{name}")
            shard.observe(f"hist.{name}", value)
            shard.set_gauge("depth", value)
        merged = MetricsRegistry()
        for shard in shards:
            merged.merge_from(shard)
        assert merged.to_dict() == serial.to_dict()

    def test_roundtrip(self):
        registry = MetricsRegistry()
        registry.inc("x", 3)
        registry.observe("h", 2.0)
        registry.set_gauge("g", 1.0)
        clone = MetricsRegistry.from_dict(registry.to_dict())
        assert clone.to_dict() == registry.to_dict()

    def test_merge_sums_folds_keywise(self):
        assert merge_sums(({"a": 1, "b": 2}, {"b": 3, "c": 4})) \
            == {"a": 1, "b": 5, "c": 4}
