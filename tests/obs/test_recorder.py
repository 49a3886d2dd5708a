"""FlightRecorder semantics: span stacks, budgets, profile
attribution, and the charge_tracing opt-in."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import DAS
from repro.core.runtime import _Tape
from repro.fastpath import FLAGS, reference_mode
from repro.obs import state
from repro.obs.profiler import exact_total
from repro.obs.recorder import ObsCollector
from repro.obs.spans import roots_of, span_children
from repro.sim.engine import Simulation


@pytest.fixture
def obs():
    state.enable()
    try:
        yield state
    finally:
        state.disable()


class TestSpanStack:
    def test_spans_nest_along_the_open_stack(self, obs):
        sim = Simulation(seed=1)
        rec = sim.obs
        outer = rec.open_span("request", "open")
        inner = rec.open_span("dispatch", "VFS.open")
        rec.close_span(inner)
        rec.close_span(outer)
        spans = state.collector().spans
        assert [s.parent for s in spans] == [None, outer.sid]
        assert roots_of(spans) == [outer]
        assert span_children(spans)[outer.sid] == [inner]

    def test_explicit_parent_overrides_the_stack(self, obs):
        sim = Simulation(seed=1)
        rec = sim.obs
        a = rec.open_span("request", "a")
        rec.close_span(a)
        b = rec.open_span("dispatch", "b", parent=a.sid)
        rec.close_span(b)
        assert b.parent == a.sid

    def test_close_pops_frames_an_exception_skipped(self, obs):
        sim = Simulation(seed=1)
        rec = sim.obs
        outer = rec.open_span("request", "outer")
        rec.open_span("dispatch", "skipped")  # never closed directly
        sim.charge("function_call", 1.0)
        rec.close_span(outer)
        assert all(s.end_us is not None
                   for s in state.collector().spans)
        assert rec.current_span_id() is None

    def test_span_budget_drops_deterministically(self, obs,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_OBS_MAX_SPANS", "2")
        sim = Simulation(seed=1)
        rec = sim.obs
        kept = [rec.open_span("request", f"s{i}") for i in range(2)]
        dropped = rec.open_span("request", "s2")
        assert all(span is not None for span in kept)
        assert dropped is None
        rec.close_span(dropped)  # no-op, does not disturb the stack
        assert state.collector().spans_dropped == 1
        assert len(state.collector().spans) == 2


class TestProfileAttribution:
    def test_charges_attribute_to_the_open_span_path(self, obs):
        sim = Simulation(seed=1)
        rec = sim.obs
        span = rec.open_span("request", "open")
        sim.charge("function_call", 0.5)
        rec.close_span(span)
        sim.charge("heartbeat", 2.0)
        profile = state.collector().profile
        assert profile["open;function_call"] == [0.5, 1]
        assert profile["heartbeat"] == [2.0, 1]

    def test_zero_cost_charges_count_but_add_nothing(self, obs):
        sim = Simulation(seed=1)
        sim.charge("mpk_check", 0.0)
        assert state.collector().profile["mpk_check"] == [0.0, 1]


#: crossing tapes; the last two are equal but distinct objects, so
#: identity-keyed tallies must still fold into the same profile rows
TAPES = (_Tape([("msg_push", 0.3), ("thread_switch", 0.45),
                ("msg_pull", 0.2)]),
         _Tape([("msg_push", 0.3), ("dependency_lookup", 0.08),
                ("wasted_poll", 0.1), ("msg_pull", 0.2)]),
         _Tape([("msg_push", 0.3), ("msg_pull", 0.2)]))
TAPES += (_Tape(TAPES[-1]),)

amounts = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),  # sub-µs
    st.sampled_from([0.05, 0.1, 0.3, 0.45, 2.5]),               # repeats
    st.floats(min_value=1e6, max_value=1e15))                   # large
span_paths = st.lists(st.sampled_from(["request", "VFS.open", "9PFS",
                                       "reboot", "replay"]), max_size=3)
events = st.lists(st.one_of(
    st.tuples(st.just("charge"), span_paths,
              st.sampled_from(["msg_push", "function_body",
                               "snapshot_restore"]), amounts),
    st.tuples(st.just("crossing"), span_paths,
              st.integers(0, len(TAPES) - 1), st.integers(1, 5),
              st.integers(0, 4096)),
    st.tuples(st.just("read"))), max_size=50)


def _play(sim, event, seen):
    """Run one stream event; ``seen`` counts the crossings so far."""
    if event[0] == "read":
        # a mid-run read already sees every crossing folded in
        metrics = state.collector().metrics
        assert metrics.counters.get("msgdom.pushes", 0) == seen[0]
        assert metrics.counters.get("msgdom.pulls", 0) == seen[0]
        hist = metrics.histograms.get("msgdom.queue_depth")
        assert (hist.count if hist else 0) == seen[0]
        return
    spans = [sim.obs.open_span("request", name) for name in event[1]]
    if event[0] == "charge":
        sim.charge(event[2], event[3])
    else:
        sim.obs.on_crossing(TAPES[event[2]], event[3], event[4])
        seen[0] += 1
    for span in reversed(spans):
        sim.obs.close_span(span)


def _expected_profile(stream):
    """Exact per-stack sums and counts, straight from the stream."""
    terms = {}
    for event in stream:
        if event[0] == "charge":
            charges = [(event[2], event[3])]
        elif event[0] == "crossing":
            charges = TAPES[event[2]]
        else:
            continue
        for category, amount in charges:
            key = ";".join(list(event[1]) + [category])
            terms.setdefault(key, []).append(amount)
    return {key: (float(sum(map(Fraction, values))), len(values))
            for key, values in terms.items()}


class TestTalliedProfile:
    """The profile is counted, not summed: one tally bump per charge
    and per compiled crossing, exact sums derived on read."""

    @given(stream=events, data=st.data())
    def test_sharded_equals_serial_and_sums_are_exact(self, stream,
                                                      data):
        cuts = sorted(set(data.draw(st.lists(
            st.integers(0, len(stream)), max_size=4))))
        bounds = [0] + cuts + [len(stream)]
        shards = [stream[a:b] for a, b in zip(bounds, bounds[1:])]

        state.enable()
        try:
            seen = [0]
            for shard in shards:
                sim = Simulation(seed=1)
                for event in shard:
                    _play(sim, event, seen)
            serial = state.collector().to_recording()
        finally:
            state.disable()

        state.enable()
        try:
            blobs = []
            for shard in shards:
                state.begin_cell()
                sim = Simulation(seed=1)
                for event in shard:
                    if event[0] != "read":
                        _play(sim, event, [0])
                blobs.append(state.harvest_cell())
            for blob in blobs:
                state.absorb(blob)
            sharded = state.collector().to_recording()
        finally:
            state.disable()

        assert json.dumps(sharded, sort_keys=True) \
            == json.dumps(serial, sort_keys=True)
        got = {key: (slot["us"], slot["count"])
               for key, slot in serial["profile"].items()}
        assert got == _expected_profile(stream)

    @given(finite=st.lists(st.tuples(st.floats(0.0, 1e12),
                                     st.integers(1, 50)), max_size=8),
           special=st.lists(st.tuples(
               st.sampled_from([math.inf, -math.inf, math.nan]),
               st.integers(1, 3)), min_size=1, max_size=3))
    def test_non_finite_amounts_add_like_floats(self, finite, special):
        terms = finite + special
        expected = reduce(add, (amount for amount, n in terms
                                for _ in range(n)), 0.0)
        assert repr(exact_total(terms)) == repr(expected)

    def test_non_finite_charge_in_the_profile(self, obs):
        sim = Simulation(seed=1)
        for amount in (0.1, math.inf, 0.2):
            sim.obs.on_charge("heartbeat", amount)
        sim.obs.on_charge("mpk_check", math.inf)
        sim.obs.on_charge("mpk_check", -math.inf)
        profile = state.collector().profile
        assert profile["heartbeat"] == [math.inf, 3]
        assert math.isnan(profile["mpk_check"][0])

    def test_exact_sum_is_rounded_once(self, obs):
        sim = Simulation(seed=1)
        for _ in range(10):
            sim.charge("function_call", 0.1)
        sim.charge("function_call", 1e16)
        us, count = state.collector().profile["function_call"]
        assert count == 11
        # ten 0.1s are a hair over 1.0, which tips 1e16 + 1 (a tie at
        # this magnitude) up; a running float sum ends a hair under it
        assert us == float(Fraction(0.1) * 10 + Fraction(1e16)) \
            == 1e16 + 2
        assert reduce(add, [0.1] * 10 + [1e16], 0.0) == 1e16

    @pytest.mark.parametrize("loop", ["_fig5_syscall_loop",
                                      "_fig8_recovery_loop"])
    def test_profile_counts_every_ledger_charge(self, obs, loop):
        """Per mechanism, the profile holds exactly the ledger's
        charges: the tape crossings and the charges the dispatcher
        applies inline are counted like any ``sim.charge``."""
        from tests.core import test_fastpath

        workload = getattr(test_fastpath, loop)
        sim = workload(DAS) if loop == "_fig5_syscall_loop" \
            else workload()
        counts, totals = {}, {}
        for key, (us, count) in state.collector().profile.items():
            leaf = key.rsplit(";", 1)[-1]
            counts[leaf] = counts.get(leaf, 0) + count
            totals[leaf] = totals.get(leaf, 0.0) + us
        assert counts == sim.ledger.counts
        assert totals == pytest.approx(sim.ledger.totals)

    def test_mid_run_read_sees_folded_crossings(self, obs):
        rec = Simulation(seed=1).obs
        rec.on_crossing(TAPES[0], 2, 64)
        rec.on_crossing(TAPES[0], 2, 96)
        metrics = state.collector().metrics
        assert metrics.counters["msgdom.pushes"] == 2
        assert metrics.histograms["msgdom.queue_depth"].total == 4.0
        assert metrics.gauges["msgdom.used_bytes"].value == 96
        rec.on_crossing(TAPES[1], 1, 0)
        # the live registry object, refreshed by the next read
        assert state.collector().metrics is metrics
        assert metrics.counters["msgdom.pulls"] == 3
        assert metrics.histograms["msgdom.queue_depth"].buckets \
            == {0: 1, 1: 2}


class TestDispatchSampling:
    """1-in-N dispatch-span sampling: spans thin out to exactly
    ``ceil(calls / N)``, while metrics stay exact and the profile keeps
    attributing every charge."""

    def _recording(self, sample):
        from tests.core.test_fastpath import _fig5_syscall_loop

        state.enable(sample_dispatch=sample)
        try:
            _fig5_syscall_loop(DAS, iterations=15)
            return state.collector().to_recording()
        finally:
            state.disable()

    def test_span_count_is_ceil_calls_over_n(self):
        full = self._recording(1)
        calls = sum(1 for s in full["spans"] if s["cat"] == "dispatch")
        assert calls > 30
        for rate in (2, 7, 16):
            sampled = self._recording(rate)
            kept = sum(1 for s in sampled["spans"]
                       if s["cat"] == "dispatch")
            assert kept == -(-calls // rate)    # ceil(calls / rate)

    def test_metrics_exact_at_any_rate(self):
        full = self._recording(1)
        sampled = self._recording(16)
        assert sampled["metrics"] == full["metrics"]
        # Sampling drops span records, never "drops" spans.
        assert sampled["spans_dropped"] == 0

    def test_profile_attributes_every_charge(self):
        """Charges under a sampled-out dispatch fold into the parent
        path: the dispatch frame thins out, but the total attributed
        time and the charge count are conserved."""
        full = self._recording(1)
        sampled = self._recording(16)
        count = lambda rec: sum(v["count"]
                                for v in rec["profile"].values())
        total = lambda rec: sum(v["us"] for v in rec["profile"].values())
        assert count(sampled) == count(full)
        assert total(sampled) == pytest.approx(total(full))

    def test_invalid_and_unit_rates_disable_sampling(self, monkeypatch):
        from repro.obs.recorder import ENV_SAMPLE_DISPATCH, _sample_dispatch

        for raw in ("1", "0", "-3", "garbage"):
            monkeypatch.setenv(ENV_SAMPLE_DISPATCH, raw)
            assert _sample_dispatch() == 1
        monkeypatch.setenv(ENV_SAMPLE_DISPATCH, "7")
        assert _sample_dispatch() == 7


class TestChargeTracing:
    def test_spans_are_free_by_default(self, obs):
        sim = Simulation(seed=1)
        span = sim.obs.open_span("request", "x")
        sim.obs.close_span(span)
        assert sim.clock.now_us == 0.0
        assert sim.ledger.totals == {}

    def test_charge_tracing_prices_span_open_and_close(self, obs):
        sim = Simulation(seed=1)
        FLAGS.charge_tracing = True
        try:
            span = sim.obs.open_span("request", "x")
            sim.obs.close_span(span)
        finally:
            FLAGS.charge_tracing = False
        assert sim.clock.now_us == pytest.approx(
            2 * sim.costs.trace_emit)
        assert sim.ledger.counts["trace_emit"] == 2

    def test_reference_mode_never_enables_charging(self):
        with reference_mode():
            assert FLAGS.charge_tracing is False
        assert FLAGS.charge_tracing is False


class TestAbsorb:
    def test_absorb_renumbers_into_the_serial_id_sequence(self):
        # Serial: one collector records cells back to back.
        state.enable()
        try:
            for cell in range(2):
                sim = Simulation(seed=cell)
                span = sim.obs.open_span("request", f"cell{cell}")
                child = sim.obs.open_span("dispatch", "d")
                sim.charge("msg_push", 0.3)
                sim.obs.close_span(child)
                sim.obs.close_span(span)
            serial = state.collector().to_recording()
        finally:
            state.disable()
        # Sharded: each cell in a fresh collector, absorbed in order.
        state.enable()
        try:
            blobs = []
            for cell in range(2):
                state.begin_cell()
                sim = Simulation(seed=cell)
                span = sim.obs.open_span("request", f"cell{cell}")
                child = sim.obs.open_span("dispatch", "d")
                sim.charge("msg_push", 0.3)
                sim.obs.close_span(child)
                sim.obs.close_span(span)
                blobs.append(state.harvest_cell())
            for blob in blobs:
                state.absorb(blob)
            sharded = state.collector().to_recording()
        finally:
            state.disable()
        assert sharded == serial

    def test_absorb_offsets_tracks_and_parents(self):
        parent = ObsCollector()
        sim_a = Simulation.__new__(Simulation)  # bare clock holder
        from repro.sim.clock import VirtualClock
        sim_a.clock = VirtualClock()
        rec = parent.recorder_for(sim_a)
        top = rec.open_span("request", "r")
        rec.close_span(top)

        shard = ObsCollector()
        sim_b = Simulation.__new__(Simulation)
        sim_b.clock = VirtualClock()
        worker = shard.recorder_for(sim_b)
        outer = worker.open_span("request", "w")
        worker.close_span(worker.open_span("dispatch", "d"))
        worker.close_span(outer)

        parent.absorb(shard.snapshot())
        sids = [s.sid for s in parent.spans]
        assert sids == [0, 1, 2]
        assert parent.spans[2].parent == 1
        assert parent.spans[1].track == 1  # shard track 0 shifted
