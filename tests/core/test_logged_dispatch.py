"""The compiled logged dispatch against the reference interpreter.

``VampDispatcher.invoke`` runs a crossing with a compiled plan down the
compiled lane: code-generated charge tapes grouped by category, and the
export's logging lane (``ExportInfo.lane``) completed as straight-line
code by ``LogShrinker.complete``.  Everything else, and everything under
``reference_mode()``, goes through the reference interpreter.  These
tests hold the compiled lane to the interpreter exactly: float bits and
key order of the ledger, shrink statistics, log counters and every live
log entry.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.nginx import MiniNginx
from repro.core.config import DAS
from repro.core.runtime import _CrossingPlan
from repro.faults.injector import FaultInjector
from repro.fastpath import reference_mode
from repro.sim.engine import Simulation
from repro.unikernel.component import (
    LANE_CANCELING,
    LANE_KEYED,
    LANE_OPENER,
    LANE_RESULT_KEY,
    LANE_UNLOGGED,
    export,
)
from repro.unikernel.errors import SyscallError

FILE = "/srv/lane.dat"


def _exact_ledger(sim):
    """The ledger and clock as exact, ordered values."""
    ledger = sim.ledger
    return ([(cat, total.hex()) for cat, total in ledger.totals.items()],
            list(ledger.counts.items()),
            ledger.elapsed_us.hex(), sim.clock.now_us.hex())


class TestExportLanes:
    def _lane(self, **flags):
        return export(**flags)(lambda self: None).__export_info__.lane

    def test_flags_select_the_lane(self):
        assert self._lane(state_changing=False) == LANE_UNLOGGED
        assert self._lane(key_arg=0) == LANE_KEYED
        assert self._lane() == LANE_KEYED  # keyless: never state-neutral
        assert self._lane(session_opener=True) == LANE_OPENER
        assert self._lane(key_arg=0, canceling=True) == LANE_CANCELING
        assert self._lane(key_from_result=True,
                          session_opener=True) == LANE_RESULT_KEY
        # a mix no dedicated lane covers takes the full shrink rules
        assert self._lane(key_arg=0, canceling=True,
                          session_opener=True) == LANE_RESULT_KEY

    def test_lane_is_not_part_of_equality(self):
        one = export(key_arg=0)(lambda self: None).__export_info__
        two = export(key_arg=0)(lambda self: None).__export_info__
        assert one == two and hash(one) == hash(two)


class TestGroupedTapeExactness:
    """The first logged APP→VFS crossing on an empty ledger: the
    grouped tape takes its missing-key branch for categories that
    repeat within the tape."""

    def _run(self):
        app = MiniNginx(Simulation(seed=23), mode=DAS)
        app.share.create(FILE, b"t" * 64)
        ledger = app.sim.ledger
        ledger.totals.clear()
        ledger.counts.clear()
        app.kernel.syscall("VFS", "open", FILE, "rw")
        return app

    def test_first_crossing_matches_reference(self):
        fast = self._run()
        plan = fast.kernel._vamp._plans[("APP", "VFS", True)]
        assert isinstance(plan, _CrossingPlan)
        categories = [cat for cat, _ in plan.req_tape]
        for cat in ("dependency_lookup", "thread_switch", "pkru_write"):
            assert categories.count(cat) == 2, cat
        assert list(fast.sim.ledger.totals)[0] == categories[0]
        with reference_mode():
            slow = self._run()
        assert list(fast.sim.ledger.totals) == list(slow.sim.ledger.totals)
        assert list(fast.sim.ledger.counts) == list(slow.sim.ledger.counts)
        assert _exact_ledger(fast.sim) == _exact_ledger(slow.sim)


# --- lane parity over random call sequences ----------------------------------

_PAYLOAD = st.binary(min_size=1, max_size=48)
_SLOT = st.integers(0, 3)

OPS = st.lists(st.one_of(
    st.tuples(st.just("sock_write"), _PAYLOAD),    # neutral prune
    st.tuples(st.just("sock_read"), _PAYLOAD),     # neutral prune
    st.tuples(st.just("open")),                    # stale-pair prune
    st.tuples(st.just("write"), _SLOT, _PAYLOAD),
    st.tuples(st.just("lseek"), _SLOT),
    st.tuples(st.just("read"), _SLOT),
    st.tuples(st.just("close"), _SLOT),            # canceling prune
    st.tuples(st.just("accept_empty")),            # result None: dropped
    st.tuples(st.just("bad_fd")),                  # SyscallError: removed
    st.tuples(st.just("panic_9pfs")),              # clear_nested + retry
), min_size=1, max_size=24)


def _drive(ops):
    """Run ``ops`` on a fresh MiniNginx, reboot VFS and 9PFS (replaying
    their logs) and return everything the two dispatch paths must
    agree on."""
    app = MiniNginx(Simulation(seed=11), mode=DAS)
    app.share.create(FILE, b"z" * 256)
    kernel, libc = app.kernel, app.libc
    client = app.network.connect(app.PORT)
    server_fd = kernel.syscall("VFS", "accept", app._listen_fd)
    fds = []
    results = []
    for op in ops:
        kind = op[0]
        try:
            if kind == "sock_write":
                libc.send(server_fd, op[1])
                results.append(client.recv())
            elif kind == "sock_read":
                client.send(op[1])
                results.append(libc.recv(server_fd, len(op[1])))
            elif kind in ("open", "panic_9pfs"):
                if kind == "panic_9pfs":
                    FaultInjector(kernel).inject_panic("9PFS", "lane parity")
                fds.append(libc.open(FILE, "rw"))
                results.append(fds[-1])
            elif kind == "accept_empty":
                results.append(kernel.syscall("VFS", "accept",
                                              app._listen_fd))
            elif kind == "bad_fd":
                kernel.syscall("VFS", "read", 999, 1)
            elif fds:
                fd = fds[op[1] % len(fds)]
                if kind == "write":
                    results.append(libc.write(fd, op[2]))
                elif kind == "lseek":
                    results.append(libc.lseek(fd, 0, "set"))
                elif kind == "read":
                    results.append(libc.read(fd, 16))
                else:
                    fds.remove(fd)
                    results.append(libc.close(fd))
        except SyscallError as exc:
            results.append(("errno", exc.errno))
    for name in ("VFS", "9PFS"):
        kernel.reboot_component(name)
    results.append([(record.component, record.reason,
                     record.entries_replayed, record.retvals_fed)
                    for record in kernel.reboots])
    logs = {}
    for name, log in kernel.logs.items():
        assert log.space_bytes() == log.recompute_space_bytes(), name
        logs[name] = (
            log.total_appended, log.total_pruned, log.total_retvals,
            [(e.seq, e.func, e.key, e.result,
              [(r.target, r.func, r.result, r.error) for r in e.nested])
             for e in log.entries])
    shrink = {name: dataclasses.asdict(shrinker.stats)
              for name, shrinker in kernel.shrinkers.items()}
    return results, _exact_ledger(app.sim), logs, shrink


class TestLaneParity:
    @settings(max_examples=30)
    @given(ops=OPS)
    def test_compiled_lane_matches_reference(self, ops):
        fast = _drive(ops)
        with reference_mode():
            slow = _drive(ops)
        assert fast[0] == slow[0]   # what every call returned
        assert fast[1] == slow[1]   # ledger bits and key order, clock
        assert fast[2] == slow[2]   # log counters and live entries
        assert fast[3] == slow[3]   # ShrinkStats per component

    def test_every_lane_is_exercised(self):
        """The op mix reaches each prune the parity test relies on."""
        ops = [("sock_write", b"w"), ("sock_read", b"r"), ("open",),
               ("write", 0, b"x"), ("lseek", 0), ("read", 0),
               ("close", 0), ("open",), ("accept_empty",), ("bad_fd",),
               ("panic_9pfs",), ("close", 0)]
        results, _, logs, shrink = _drive(ops)
        assert None in results                  # accept, empty backlog
        assert ("errno", "EBADF") in results    # the failing call
        reboots = results[-1]
        assert reboots[0][:2] == ("9PFS", "Panic")  # recovered mid-call
        assert all(replayed for _, _, replayed, _ in reboots)
        assert shrink["VFS"]["canceling_prunes"] >= 1
        assert shrink["VFS"]["pair_prunes"] >= 1
        assert shrink["VFS"]["entries_removed"] > 0
        assert logs["VFS"][1] > 0               # total_pruned
