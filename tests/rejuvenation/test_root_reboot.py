"""Root rejuvenation: microreboot the kernel under live components.

The contract under test is the kernel/component state boundary:

* kernel-side state (registry view, run queue, in-flight slots,
  supervisor budgets) round-trips through a JSON-safe
  :class:`RootCheckpoint`;
* component-side state (memory regions, call logs, snapshots) is
  *never touched* — live components ride across the reboot by object
  identity;
* in-flight requests resume exactly once, callers observe only the
  bounded ``root_*`` virtual-time stall, and every fast path stays
  invisible (``reference_mode`` ledger parity);
* reports built on top are byte-identical at any ``--jobs`` count.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import DAS, SUPERVISED
from repro.faults.aging import AgingModel
from repro.faults.injector import FaultInjector
from repro.fastpath import reference_mode
from repro.net.hostshare import HostShare
from repro.rejuvenation import (
    RootCheckpoint,
    capture_root_checkpoint,
    restore_root_checkpoint,
)
from repro.sim.engine import Simulation
from repro.unikernel.errors import KernelPanic
from tests.conftest import build_kernel

ROOT_ON = SUPERVISED  # root_rejuvenation_enabled=True in the config
ROOT_OFF = SUPERVISED.with_(root_rejuvenation_enabled=False)


def _fresh_kernel(config=ROOT_ON, seed=1234):
    sim = Simulation(seed=seed)
    share = HostShare()
    share.makedirs("/data")
    share.create("/data/hello.txt", b"hello world")
    kernel = build_kernel(sim, share, config=config)
    kernel.syscall("VFS", "mount", "/", "9pfs", "/")
    return kernel


def _warm(kernel) -> int:
    fd = kernel.syscall("VFS", "open", "/data/hello.txt", "rw")
    kernel.syscall("VFS", "write", fd, b"warm traffic")
    return fd


class TestRootCheckpoint:
    def test_json_round_trip_is_exact(self):
        kernel = _fresh_kernel()
        _warm(kernel)
        FaultInjector(kernel).inject_root_age(12)
        cp, _live = capture_root_checkpoint(kernel)
        blob = json.loads(json.dumps(cp.to_jsonable()))
        assert RootCheckpoint.from_jsonable(blob) == cp

    def test_orphan_slots_are_excluded(self):
        kernel = _fresh_kernel()
        _warm(kernel)
        FaultInjector(kernel).inject_root_age(20)
        cp, _live = capture_root_checkpoint(kernel)
        kept = {slot[0] for slot in cp.messages["slots"]}
        assert not kept & kernel.root_wear.orphan_ids

    def test_cold_restore_rebuilds_a_working_kernel(self):
        """The live=None path — what a fleet migration would use."""
        kernel = _fresh_kernel()
        fd = _warm(kernel)
        cp, _live = capture_root_checkpoint(kernel)
        kernel._reinit_root_internals()
        restore_root_checkpoint(kernel, cp, live=None)
        kernel.syscall("VFS", "lseek", fd, 0, "set")
        assert kernel.syscall("VFS", "read", fd, 4) == b"warm"


class TestIdentityPreservation:
    def test_component_side_objects_survive_by_identity(self):
        kernel = _fresh_kernel()
        fd = _warm(kernel)
        vfs = kernel.component("VFS")
        before = {
            "component": id(vfs),
            "allocator": id(vfs.allocator),
            "regions": [id(r) for r in vfs.regions],
            "log": id(kernel.logs["VFS"]),
            "entries": list(kernel.logs["VFS"].entries),
            "scheduler": id(kernel.scheduler),
            "messages": id(kernel.message_domain),
            "supervisor": id(kernel.supervisor),
            "threads": {name: id(t)
                        for name, t in kernel.scheduler.threads.items()},
        }
        kernel.rejuvenate_root(reason="test")
        vfs_after = kernel.component("VFS")
        assert id(vfs_after) == before["component"]
        assert id(vfs_after.allocator) == before["allocator"]
        assert [id(r) for r in vfs_after.regions] == before["regions"]
        assert id(kernel.logs["VFS"]) == before["log"]
        assert list(kernel.logs["VFS"].entries) == before["entries"]
        assert id(kernel.scheduler) == before["scheduler"]
        assert id(kernel.message_domain) == before["messages"]
        assert id(kernel.supervisor) == before["supervisor"]
        assert {name: id(t)
                for name, t in kernel.scheduler.threads.items()} \
            == before["threads"]
        # and the preserved state is *usable*, not just present
        kernel.syscall("VFS", "lseek", fd, 0, "set")
        assert kernel.syscall("VFS", "read", fd, 4) == b"warm"

    def test_reboot_clears_wear_but_not_lifetime_counters(self):
        kernel = _fresh_kernel()
        _warm(kernel)
        FaultInjector(kernel).inject_root_age(30)
        wear = kernel.root_wear
        assert wear.is_worn() and wear.leaked_bytes() > 0
        lifetime = wear.lifetime_bytes
        record = kernel.rejuvenate_root(reason="test")
        assert not wear.is_worn() and wear.leaked_bytes() == 0
        assert wear.lifetime_bytes == lifetime
        assert record.slots_dropped + record.plans_dropped \
            + record.tombstones_dropped == 30


class TestSharedCrossingRebind:
    """A root reboot drops the dispatcher's plans, not the compiled
    tapes: the rebuilt plans rebind the process-wide functions."""

    @staticmethod
    def _compiled(kernel):
        return {key: plan
                for key, plan in kernel._vamp._plans.items() if plan}

    def test_rebuilt_plans_reuse_the_shared_functions(
            self, crossing_compiles):
        kernel = _fresh_kernel()
        _warm(kernel)
        before = self._compiled(kernel)
        assert before
        del crossing_compiles[:]
        kernel.rejuvenate_root(reason="test")
        _warm(kernel)
        after = self._compiled(kernel)
        assert after and after.keys() <= before.keys()
        for key, plan in after.items():
            assert plan is not before[key]
            assert plan.req_run is before[key].req_run
            assert plan.rep_run is before[key].rep_run
        assert crossing_compiles == []

    def test_stale_plan_keys_never_reach_the_shared_table(self):
        from repro.core import runtime

        kernel = _fresh_kernel()
        _warm(kernel)
        table = dict(runtime._CROSSING_CODE)
        FaultInjector(kernel).inject_root_age(40)
        wear = kernel.root_wear
        stale = list(wear.stale_plan_keys)
        assert stale and wear.lifetime_plans == len(stale)
        plans = kernel._vamp._plans
        assert all(plans[key] is False for key in stale)
        assert runtime._CROSSING_CODE == table
        kernel.rejuvenate_root(reason="test")
        _warm(kernel)
        assert wear.stale_plan_keys == []
        assert wear.lifetime_plans == len(stale)
        assert not set(stale) & set(kernel._vamp._plans)
        assert runtime._CROSSING_CODE == table


class TestInFlightResumption:
    """A root reboot *during* a dispatch chain: the ladder's
    rejuvenate-root rung fires mid-recovery and the caller's request
    completes exactly once."""

    @staticmethod
    def _scenario(kernel):
        injector = FaultInjector(kernel)
        injector.inject_root_age(5)          # a worn root arms the rung
        injector.inject_panic("9PFS", count=2)  # exhausts replay-retry
        return kernel.syscall("VFS", "open", "/data/hello.txt", "r")

    def test_request_completes_exactly_once(self):
        kernel = _fresh_kernel(config=DAS.with_(
            root_rejuvenation_enabled=True))
        fd = self._scenario(kernel)
        assert fd >= 3
        telemetry = kernel.supervisor.telemetry
        assert telemetry.rung_attempts["9PFS"]["rejuvenate-root"] == 1
        assert telemetry.fail_stops == {}
        assert len(kernel.root_reboots) == 1
        record = kernel.root_reboots[0]
        assert record.chain_depth >= 1  # the reboot ran mid-dispatch
        # exactly once: one live fd entry, nothing stuck in flight
        assert kernel.message_domain.in_flight_count() == 0
        assert list(kernel.component("VFS")._fds) == [fd]
        assert kernel.syscall("VFS", "read", fd, 5) == b"hello"

    def test_ledger_parity_under_reference_mode(self):
        def run(config):
            kernel = _fresh_kernel(config=config)
            self._scenario(kernel)
            return dict(kernel.sim.ledger.totals)
        config = DAS.with_(root_rejuvenation_enabled=True)
        fast = run(config)
        with reference_mode():
            assert run(config) == fast


class TestRootFaultPolicy:
    def test_disarmed_root_panic_is_terminal(self):
        kernel = _fresh_kernel(config=ROOT_OFF)
        _warm(kernel)
        FaultInjector(kernel).inject_root_panic()
        with pytest.raises(KernelPanic, match="ROOT"):
            kernel.syscall("VFS", "stat", "/data/hello.txt")
        assert kernel.crashed

    def test_armed_root_panic_is_absorbed_with_root_charges_only(self):
        plain = _fresh_kernel()
        _warm(plain)
        plain.syscall("VFS", "stat", "/data/hello.txt")
        faulted = _fresh_kernel()
        _warm(faulted)
        FaultInjector(faulted).inject_root_panic()
        faulted.syscall("VFS", "stat", "/data/hello.txt")
        assert faulted.root_panicked is None
        assert len(faulted.root_reboots) == 1
        root_cats = {"root_checkpoint", "root_reboot", "root_reattach"}
        for category in set(plain.sim.ledger.totals) \
                | set(faulted.sim.ledger.totals):
            if category in root_cats:
                continue
            assert plain.sim.ledger.totals.get(category) \
                == faulted.sim.ledger.totals.get(category), category
        stall = sum(faulted.sim.ledger.totals.get(c, 0.0)
                    for c in root_cats)
        assert faulted.sim.clock.now_us - plain.sim.clock.now_us \
            == pytest.approx(stall)

    def test_heartbeat_rejuvenates_past_wear_threshold(self):
        config = ROOT_ON.with_(root_wear_threshold_bytes=16 * 1024)
        kernel = _fresh_kernel(config=config)
        _warm(kernel)
        FaultInjector(kernel).inject_root_age(20)
        assert kernel.root_wear.leaked_bytes() >= 16 * 1024
        kernel.heartbeat()
        assert len(kernel.root_reboots) == 1
        assert kernel.root_reboots[0].reason == "wear"
        assert kernel.root_wear.leaked_bytes() == 0


class TestAgingAccounting:
    """The ``forget_live`` audit fix: component reboots reset the
    allocator, but lifetime leak accounting must survive — otherwise
    kernel-held damage is invisible exactly when it matters."""

    def test_lifetime_leaks_survive_component_reboot(self, vamp_kernel):
        comp = vamp_kernel.component("9PFS")
        aging = AgingModel(vamp_kernel.sim, comp, leak_probability=0.5)
        aging.step(200)
        lifetime = aging.lifetime_leaked_bytes
        assert lifetime > 0 and aging.lifetime_leaks > 0
        live = len(aging._live)
        vamp_kernel.reboot_component("9PFS")
        aging.forget_live()
        assert comp.allocator.leaked_bytes() == 0  # allocator reset...
        assert aging.lifetime_leaked_bytes == lifetime  # ...model not
        assert aging.forgotten_live_blocks == live
        assert aging.observe().lifetime_leaked_bytes == lifetime
