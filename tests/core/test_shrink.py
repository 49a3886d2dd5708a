"""Unit + property tests for session-aware log shrinking (§V-F)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calllog import ComponentCallLog
from repro.core.shrink import LogShrinker
from repro.sim.engine import Simulation
from repro.unikernel.component import Component, MemoryLayout, export


class SessionComponent(Component):
    """A minimal stateful component with open/op/close semantics."""

    NAME = "SESSION"
    STATEFUL = True
    LAYOUT = MemoryLayout(heap_order=12)

    def __init__(self, sim):
        super().__init__(sim)
        self.sessions = {}
        self.neutral_funcs = set()

    @export(key_from_result=True, session_opener=True)
    def open_session(self):
        key = self.take_forced_id()
        if key is None:
            key = 1
            while key in self.sessions:
                key += 1
        self.sessions[key] = {"ops": 0}
        return key

    @export(key_arg=0)
    def operate(self, key):
        self.sessions[key]["ops"] += 1
        return self.sessions[key]["ops"]

    @export(key_arg=0, canceling=True)
    def close_session(self, key):
        del self.sessions[key]
        return 0

    def extract_key_state(self, key):
        state = self.sessions.get(key)
        return dict(state) if state else None

    def apply_key_state(self, key, patch):
        if patch is None:
            self.sessions.pop(key, None)
        else:
            self.sessions[key] = dict(patch)

    def entry_is_state_neutral(self, func, key):
        return func in self.neutral_funcs


def make_world(threshold=100, enabled=True):
    sim = Simulation(seed=9)
    comp = SessionComponent(sim)
    comp.boot()
    log = ComponentCallLog(comp.NAME)
    shrinker = LogShrinker(sim, comp, log, threshold=threshold,
                           enabled=enabled)
    return sim, comp, log, shrinker


def record(log, shrinker, func, comp, *args):
    """Simulate the dispatcher's logging of one call."""
    info = comp.interface()[func]
    key = args[info.key_arg] if info.key_arg is not None else None
    entry = log.append(func, args, {}, key=key,
                       session_opener=info.session_opener,
                       canceling=info.canceling)
    result = getattr(comp, func)(*args)
    log.set_result(entry, result)
    entry.completed = True
    if info.key_from_result:
        log.rekey(entry, result)
    shrinker.on_entry_complete(entry)
    return result


class TestCancelingPrune:
    def test_close_prunes_data_ops(self):
        sim, comp, log, shrinker = make_world()
        key = record(log, shrinker, "open_session", comp)
        for _ in range(5):
            record(log, shrinker, "operate", comp, key)
        record(log, shrinker, "close_session", comp, key)
        funcs = [e.func for e in log.entries]
        assert funcs == ["open_session", "close_session"]
        assert shrinker.stats.canceling_prunes == 1
        assert shrinker.stats.entries_removed == 5

    def test_close_leaves_other_keys_alone(self):
        sim, comp, log, shrinker = make_world()
        a = record(log, shrinker, "open_session", comp)
        b = record(log, shrinker, "open_session", comp)
        record(log, shrinker, "operate", comp, a)
        record(log, shrinker, "operate", comp, b)
        record(log, shrinker, "close_session", comp, a)
        assert [e.func for e in log.entries_for_key(b)] \
            == ["open_session", "operate"]

    def test_disabled_shrinker_prunes_nothing(self):
        sim, comp, log, shrinker = make_world(enabled=False)
        key = record(log, shrinker, "open_session", comp)
        record(log, shrinker, "operate", comp, key)
        record(log, shrinker, "close_session", comp, key)
        assert len(log) == 3


class TestPairPrune:
    def test_key_reuse_prunes_stale_pair(self):
        sim, comp, log, shrinker = make_world()
        key = record(log, shrinker, "open_session", comp)
        record(log, shrinker, "close_session", comp, key)
        reused = record(log, shrinker, "open_session", comp)
        assert reused == key  # lowest-free reuse
        assert [e.func for e in log.entries] == ["open_session"]
        assert shrinker.stats.pair_prunes == 1

    def test_live_session_never_pair_pruned(self):
        """A collision with a live session cannot happen, but if keys
        were reused without a close the shrinker must not prune."""
        sim, comp, log, shrinker = make_world()
        key = record(log, shrinker, "open_session", comp)
        record(log, shrinker, "operate", comp, key)
        # simulate a fresh opener entry over a live key
        entry = log.append("open_session", (), {}, key=key,
                           session_opener=True)
        entry.completed = True
        shrinker.on_entry_complete(entry)
        assert len(log.entries_for_key(key)) == 3


class TestStateNeutralDrop:
    def test_neutral_entries_dropped_immediately(self):
        sim, comp, log, shrinker = make_world()
        comp.neutral_funcs = {"operate"}
        key = record(log, shrinker, "open_session", comp)
        record(log, shrinker, "operate", comp, key)
        assert [e.func for e in log.entries] == ["open_session"]

    def test_neutral_drop_requires_shrinking_enabled(self):
        sim, comp, log, shrinker = make_world(enabled=False)
        comp.neutral_funcs = {"operate"}
        key = record(log, shrinker, "open_session", comp)
        record(log, shrinker, "operate", comp, key)
        assert len(log) == 2


class TestForcedShrink:
    def test_threshold_triggers_compaction(self):
        sim, comp, log, shrinker = make_world(threshold=6)
        key = record(log, shrinker, "open_session", comp)
        for _ in range(6):
            record(log, shrinker, "operate", comp, key)
        assert len(log) < 7
        synthetic = [e for e in log.entries if e.is_synthetic]
        assert len(synthetic) == 1
        assert synthetic[0].synthetic_patch[1] == {"ops": 6}
        assert shrinker.stats.forced_shrinks >= 1

    def test_dead_key_series_dropped_without_synthetic(self):
        sim, comp, log, shrinker = make_world(threshold=4, enabled=True)
        # Disable canceling prune effect by building entries manually:
        key = record(log, shrinker, "open_session", comp)
        comp.sessions.pop(key)  # key dies without a canceling entry
        for i in range(5):
            entry = log.append("operate", (key,), {}, key=key)
            entry.completed = True
            shrinker.on_entry_complete(entry)
        assert not any(e.key == key and e.is_synthetic
                       for e in log.entries)
        # the compacted series was dropped; at most the post-shrink
        # trailing entry remains
        assert len(log.entries_for_key(key)) <= 1

    def test_forced_shrink_charges_time(self):
        sim, comp, log, shrinker = make_world(threshold=2)
        key = record(log, shrinker, "open_session", comp)
        t0 = sim.clock.now_us
        record(log, shrinker, "operate", comp, key)
        record(log, shrinker, "operate", comp, key)
        assert sim.clock.now_us - t0 >= sim.costs.forced_shrink

    def test_no_refire_when_nothing_compactable(self):
        sim, comp, log, shrinker = make_world(threshold=1)
        record(log, shrinker, "open_session", comp)
        key2 = record(log, shrinker, "open_session", comp)
        fired_before = shrinker.stats.forced_shrinks
        record(log, shrinker, "open_session", comp)
        # every key has exactly one entry: nothing to compact
        assert shrinker.stats.forced_shrinks == fired_before

    def test_keyless_entries_survive_forced_shrink(self):
        sim, comp, log, shrinker = make_world(threshold=3)
        keyless = log.append("mount", (), {})
        keyless.completed = True
        key = record(log, shrinker, "open_session", comp)
        for _ in range(4):
            record(log, shrinker, "operate", comp, key)
        assert any(e.func == "mount" for e in log.entries)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(["open", "op", "close"]), max_size=60))
def test_shrunk_log_replays_to_same_session_state(script):
    """Property: replaying the shrunk log (with forced-id pinning and
    synthetic patches) reproduces exactly the live session state."""
    sim, comp, log, shrinker = make_world(threshold=8)
    open_keys = []
    for action in script:
        if action == "open":
            open_keys.append(record(log, shrinker, "open_session", comp))
        elif action == "op" and open_keys:
            record(log, shrinker, "operate", comp, open_keys[-1])
        elif action == "close" and open_keys:
            record(log, shrinker, "close_session", comp,
                   open_keys.pop())
    expected = {k: dict(v) for k, v in comp.sessions.items()}
    # Rebuild from scratch by replaying the (shrunk) log.
    fresh = SessionComponent(sim)
    fresh.boot()
    for entry in log.entries:
        if entry.is_synthetic:
            fresh.apply_key_state(*entry.synthetic_patch)
            continue
        info = fresh.interface()[entry.func]
        if info.allocates_ids and isinstance(entry.result, int):
            fresh.set_forced_ids([entry.result])
        getattr(fresh, entry.func)(*entry.args)
        fresh.set_forced_ids([])
    assert fresh.sessions == expected


class TestForcedShrinkIdempotence:
    def test_second_pass_removes_nothing(self):
        sim, comp, log, shrinker = make_world(threshold=100)
        key = record(log, shrinker, "open_session", comp)
        for _ in range(6):
            record(log, shrinker, "operate", comp, key)
        first = shrinker.force_shrink()
        assert first > 0
        assert shrinker.force_shrink() == 0
        assert not shrinker._compactable()
