"""Unit tests for encapsulated restoration and the failure detector."""

import pytest

from repro.core.calllog import ComponentCallLog
from repro.core.detector import (
    DEFAULT_HANG_THRESHOLD_US,
    FailureDetector,
)
from repro.core.restore import (
    EncapsulatedRestorer,
    ReplayMismatch,
    ReplaySession,
    _ids_from_result,
)
from repro.sim.engine import Simulation
from repro.unikernel.errors import ApplicationHang, HangDetected, SyscallError


class TestReplaySession:
    def make_entry(self, log):
        entry = log.append("open", ("/f",), {})
        entry.completed = True
        return entry

    def test_feeds_recorded_values_in_order(self):
        log = ComponentCallLog("VFS")
        entry = self.make_entry(log)
        log.push_active(entry)
        log.record_retval("9PFS", "lookup", 7)
        log.record_retval("9PFS", "open", 0)
        log.pop_active(entry)
        session = ReplaySession("VFS")
        session.begin_entry(entry)
        assert session.next_retval("9PFS", "lookup") == 7
        assert session.next_retval("9PFS", "open") == 0
        assert session.retvals_fed == 2

    def test_mismatched_target_raises(self):
        log = ComponentCallLog("VFS")
        entry = self.make_entry(log)
        log.push_active(entry)
        log.record_retval("9PFS", "lookup", 7)
        log.pop_active(entry)
        session = ReplaySession("VFS")
        session.begin_entry(entry)
        with pytest.raises(ReplayMismatch):
            session.next_retval("LWIP", "lookup")

    def test_exhausted_records_raise(self):
        log = ComponentCallLog("VFS")
        entry = self.make_entry(log)
        session = ReplaySession("VFS")
        session.begin_entry(entry)
        with pytest.raises(ReplayMismatch):
            session.next_retval("9PFS", "lookup")

    def test_recorded_errors_re_raise(self):
        log = ComponentCallLog("VFS")
        entry = self.make_entry(log)
        log.push_active(entry)
        log.record_retval("9PFS", "lookup", error=("ENOENT", "gone"))
        log.pop_active(entry)
        session = ReplaySession("VFS")
        session.begin_entry(entry)
        with pytest.raises(SyscallError) as excinfo:
            session.next_retval("9PFS", "lookup")
        assert excinfo.value.errno == "ENOENT"

    def test_fed_values_are_copies(self):
        log = ComponentCallLog("VFS")
        entry = self.make_entry(log)
        log.push_active(entry)
        log.record_retval("9PFS", "stat", {"size": 5})
        log.pop_active(entry)
        session = ReplaySession("VFS")
        session.begin_entry(entry)
        value = session.next_retval("9PFS", "stat")
        value["size"] = 999
        session.begin_entry(entry)
        assert session.next_retval("9PFS", "stat") == {"size": 5}


class TestIdsFromResult:
    @pytest.mark.parametrize("result,ids", [
        (5, [5]),
        ((3, 4), [3, 4]),
        ([7, "x", 9], [7, 9]),
        (True, []),
        ("name", []),
        (None, []),
        ((True, 2), [2]),
    ])
    def test_extraction(self, result, ids):
        assert _ids_from_result(result) == ids


class TestRestorerSkips:
    def test_incomplete_entries_skipped(self):
        """The in-flight call that triggered the reboot must not be
        replayed (its retvals are partial); it is retried separately."""
        from tests.core.test_shrink import SessionComponent
        sim = Simulation()
        comp = SessionComponent(sim)
        comp.boot()
        log = ComponentCallLog("SESSION")
        good = log.append("open_session", (), {})
        log.set_result(good, 1)
        log.rekey(good, 1)
        good.completed = True
        bad = log.append("operate", (1,), {}, key=1)  # never completed
        restorer = EncapsulatedRestorer(sim)
        session = ReplaySession("SESSION")
        stats = restorer.replay(comp, log, session)
        assert stats.entries_replayed == 1
        assert stats.skipped_incomplete == 1
        assert comp.sessions[1]["ops"] == 0

    def test_synthetic_entries_apply_patches(self):
        from tests.core.test_shrink import SessionComponent
        sim = Simulation()
        comp = SessionComponent(sim)
        comp.boot()
        log = ComponentCallLog("SESSION")
        log.adopt(log.make_synthetic(4, {"ops": 17}))
        restorer = EncapsulatedRestorer(sim)
        stats = restorer.replay(comp, log, ReplaySession("SESSION"))
        assert stats.synthetic_applied == 1
        assert comp.sessions[4] == {"ops": 17}

    def test_result_mismatch_counted_not_fatal(self):
        from tests.core.test_shrink import SessionComponent
        sim = Simulation()
        comp = SessionComponent(sim)
        comp.boot()
        comp.sessions[1] = {"ops": 0}  # occupy id 1
        log = ComponentCallLog("SESSION")
        entry = log.append("operate", (1,), {}, key=1)
        log.set_result(entry, 999)  # recorded result that won't match
        entry.completed = True
        stats = EncapsulatedRestorer(sim).replay(
            comp, log, ReplaySession("SESSION"))
        assert stats.result_mismatches == 1


class TestDetector:
    def test_hang_detection_charges_threshold(self):
        from tests.core.test_shrink import SessionComponent
        sim = Simulation()
        comp = SessionComponent(sim)
        comp.boot()
        comp.injected_hang = True
        detector = FailureDetector(sim)
        t0 = sim.clock.now_us
        with pytest.raises(HangDetected):
            detector.check_hang(comp)
        assert sim.clock.now_us - t0 == DEFAULT_HANG_THRESHOLD_US
        assert not comp.injected_hang  # one-shot
        assert detector.failures[0].kind == "hang"

    def test_exempt_component_stalls_instead(self):
        from tests.core.test_shrink import SessionComponent

        class Exempt(SessionComponent):
            NAME = "EXEMPT"
            HANG_EXEMPT = True

        sim = Simulation()
        comp = Exempt(sim)
        comp.boot()
        comp.injected_hang = True
        with pytest.raises(ApplicationHang):
            FailureDetector(sim).check_hang(comp)

    def test_healthy_component_passes(self):
        from tests.core.test_shrink import SessionComponent
        sim = Simulation()
        comp = SessionComponent(sim)
        comp.boot()
        FailureDetector(sim).check_hang(comp)  # no raise

    def test_scan_reports_failed_components(self):
        from tests.core.test_shrink import SessionComponent
        from repro.unikernel.component import ComponentState
        sim = Simulation()
        healthy = SessionComponent(sim)
        healthy.boot()
        failed = SessionComponent(sim)
        failed.boot()
        failed.state = ComponentState.FAILED
        detector = FailureDetector(sim)
        assert detector.scan([healthy, failed]) == ["SESSION"]

    def test_failures_for_filters_by_component(self):
        sim = Simulation()
        detector = FailureDetector(sim)
        detector.record("A", "panic")
        detector.record("B", "hang")
        assert len(detector.failures_for("A")) == 1
        assert detector.failures_for("A")[0].kind == "panic"
