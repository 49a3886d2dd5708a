"""The benchmark's four workloads.

Each workload turns a seed into a deterministic stream of inputs and
feeds it to the program one *step* at a time.  A step is one op for
``syscall_mix``/``recovery_churn`` (the benchmark issues each op
itself) and one fleet cell (thousands of offered requests) for
``fleet_serve``.  Every step checks what the program served and raises
:class:`CheckFailed` on the first wrong answer.

Per-op *virtual* (modelled) time is collected alongside, so the
``virt_*`` metrics and the ledger fingerprint come from the same run
as the host timings.  They are taken over a fixed prefix of steps
(``MODEL_STEPS``), which makes them a pure function of the seed.
"""

from __future__ import annotations

import functools
import random
from typing import Any, Dict, List, Tuple

from repro.apps.nginx import MiniNginx
from repro.core.config import DAS, SUPERVISED
from repro.experiments.env import make_redis
from repro.experiments.fault_campaign import WILD_PAIRS
from repro.faults.injector import FaultInjector
from repro.fastpath import HANDLES
from repro.fleet import campaign
from repro.fleet.campaign import ROUTED_ARM, STATIC_ARM, FleetSpec
from repro.fleet.instance import FleetInstance
from repro.obs import state as obs_state
from repro.obs.metrics import Histogram, bucket_bounds
from repro.parallel import shard_seed
from repro.sim.engine import Simulation
from repro.workloads.redis_load import RedisClient, warm_up


class CheckFailed(Exception):
    """The program served a wrong answer (or broke an invariant)."""


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (need not be sorted)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def hist_quantile(hist: Histogram, q: float) -> float:
    """Quantile of a log2 histogram, interpolated linearly inside the
    bucket the rank falls in (clamped to the observed min/max).  The
    program's own ``Histogram.quantile`` returns bucket upper bounds,
    which cannot tell two seeds apart."""
    rank = q * hist.count
    seen = 0
    for index in sorted(hist.buckets):
        count = hist.buckets[index]
        if seen + count >= rank:
            low, high = bucket_bounds(index)
            low, high = max(low, hist.min), min(high, hist.max)
            return low + (high - low) * ((rank - seen) / count)
        seen += count
    return hist.max


def _zero_counts() -> Dict[str, float]:
    return dict.fromkeys(
        ("charges", "log_append", "entries_removed", "reboots",
         "entries_replayed", "snapshot_bytes", "plans", "plan_tracks",
         "offered", "served", "shed", "misroutes"), 0)


def kernel_counts(kernel: Any) -> Dict[str, float]:
    """Raw work counters read from one kernel's public state."""
    ledger = kernel.sim.ledger
    counts = _zero_counts()
    counts["charges"] = sum(ledger.counts.values())
    counts["log_append"] = ledger.counts.get("log_append", 0)
    counts["entries_removed"] = sum(
        s.stats.entries_removed for s in kernel.shrinkers.values())
    counts["reboots"] = len(kernel.reboots)
    counts["entries_replayed"] = sum(
        r.entries_replayed for r in kernel.reboots)
    counts["snapshot_bytes"] = sum(r.snapshot_bytes for r in kernel.reboots)
    telemetry = kernel.supervisor.telemetry
    counts["plans"] = telemetry.plans
    counts["plan_tracks"] = telemetry.plan_tracks
    return counts


def _ledger_state(ledger: Any) -> Dict[str, Any]:
    return {"totals": dict(ledger.totals), "counts": dict(ledger.counts)}


class SyscallMix:
    """MiniNginx on VampOS-DaS, closed loop, one client.

    One op is one Fig. 5 iteration: getpid; open / write / lseek /
    read / close on a 9P file; a 222-byte echo server->client and
    client->server.  Write lengths and payload bytes are seeded.  A
    share of the ops carries fresh payload bytes and the rest repeat a
    small seeded pool, so the interned payload handles see misses as
    well as hits.  With ``distinct_share=0`` every payload repeats from
    the pool."""

    PER_OP = True
    WARMUP = 200
    MODEL_STEPS = 5000
    PARITY_STEPS = 150
    #: ops per host-latency window (p90 has 100 samples beyond it)
    WINDOW = 1000
    FILE_PATH = "/srv/bench.dat"
    #: share of ops whose payloads are fresh bytes (the rest repeat
    #: one of a small seeded pool); at 0.2 the handles' hit rate
    #: matches the program's own mixed Redis GET/SET load (NOTES.md)
    DISTINCT_SHARE = 0.2
    POOL = 16

    def __init__(self, seed: int, observed: bool = False,
                 distinct_share: float = DISTINCT_SHARE) -> None:
        self.seed = seed
        self.observed = observed
        self.distinct_share = distinct_share
        self.rng = random.Random(f"syscall_mix/{seed}")
        rng = self.rng
        self.echo_pool = [rng.randbytes(221) + b"\n"
                          for _ in range(self.POOL)]
        self.file_pool = [rng.randbytes(rng.randint(1, 512))
                          for _ in range(self.POOL)]
        self.virt: List[float] = []

    def boot(self) -> None:
        if self.observed:
            obs_state.enable(sample_dispatch=16)
        self.app = app = MiniNginx(Simulation(seed=self.seed), mode=DAS)
        app.share.create(self.FILE_PATH, b"z" * 4096)
        self.libc = app.libc
        self.clock = app.sim.clock
        self.meter = app.kernel.meter
        self.client = app.network.connect(app.PORT)
        self.server_fd = app.kernel.syscall("VFS", "accept",
                                            app._listen_fd)

    def _payloads(self) -> Tuple[bytes, bytes]:
        rng = self.rng
        if rng.random() < self.distinct_share:
            return (rng.randbytes(221) + b"\n",
                    rng.randbytes(rng.randint(1, 512)))
        return (self.echo_pool[rng.randrange(self.POOL)],
                self.file_pool[rng.randrange(self.POOL)])

    def step(self) -> int:
        echo, data = self._payloads()
        libc = self.libc
        start = self.clock.now_us
        libc.getpid()
        fd = libc.open(self.FILE_PATH, "rw")
        libc.write(fd, data)
        libc.lseek(fd, 0, "set")
        back = libc.read(fd, len(data))
        libc.close(fd)
        libc.send(self.server_fd, echo)
        got = self.client.recv()
        self.client.send(echo)
        served = libc.recv(self.server_fd, len(echo))
        self.virt.append(self.clock.now_us - start)
        if back != data:
            raise CheckFailed("file read did not return what was written")
        if got != echo or served != echo:
            raise CheckFailed("socket echo bytes differ")
        if len(self.meter.records) > 4096:
            self.meter.clear()
        return 1

    def ledger_state(self) -> Dict[str, Any]:
        return _ledger_state(self.app.sim.ledger)

    def counts(self) -> Dict[str, float]:
        return kernel_counts(self.app.kernel)

    def virt_quantiles(self) -> Tuple[float, float]:
        sample = self.virt[self.WARMUP:self.WARMUP + self.MODEL_STEPS]
        return quantile(sample, 0.5), quantile(sample, 0.99)


class RecoveryChurn:
    """Warm MiniRedis on VampOS-Supervised, closed loop, one client.

    One op is one round: wait 2.6-4 virtual seconds (the 5-in-10 s
    crash-storm detector stays quiet), inject a seeded fault, let the
    kernel recover, then serve seeded SET/GET traffic through the
    network path.  A wild write from one component into another's heap
    must be stopped by the protection domains: the writer is rebooted
    and the victim stays intact.  Every GET must return the last SET.
    The op's virtual time runs from the fault to the last answer, so it
    prices the recovery episode together with the requests it serves."""

    PER_OP = True
    WARMUP = 20
    MODEL_STEPS = 1000
    PARITY_STEPS = 60
    #: ops per host-latency window (p90 has 20 samples beyond it)
    WINDOW = 200
    WARM_KEYS = 200
    HOT_KEYS = 64
    SETS = 3
    GETS = 3
    #: round kinds and their cumulative thresholds; the rest are
    #: single-component panics
    ROOT_SHARE = 0.03
    STORM_SHARE = 0.12
    WILD_WRITE_SHARE = 0.22

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"recovery_churn/{seed}")
        self.virt: List[float] = []

    def boot(self) -> None:
        self.app = app = make_redis(SUPERVISED, seed=self.seed, aof="always")
        warm_up(app, keys=self.WARM_KEYS, value_bytes=64)
        self.shadow = {f"key:{i:07d}": b"v" * 64
                       for i in range(self.WARM_KEYS)}
        self.keys = sorted(self.shadow)
        self.client = RedisClient(app)
        self.injector = FaultInjector(app.kernel)
        self.clock = app.sim.clock
        self.rebootable = [n for n in app.kernel.image.boot_order
                           if app.kernel.component(n).REBOOTABLE]

    def _fault(self) -> None:
        rng = self.rng
        kind = rng.random()
        if kind < self.ROOT_SHARE:
            self.injector.inject_root_age(rng.randint(50, 400))
            self.injector.inject_root_panic()
            self.app.libc.stat("/redis")
        elif kind < self.STORM_SHARE:
            for name in self.rebootable:
                self.injector.inject_corruption(name)
            self.app.kernel.heartbeat()
        elif kind < self.WILD_WRITE_SHARE:
            source, victim = rng.choice(WILD_PAIRS)
            reboots = len(self.app.kernel.reboots)
            self.injector.inject_wild_write(source, victim)
            if self.app.kernel.component(victim).heap.corrupted:
                raise CheckFailed(f"wild write {source}->{victim} landed")
            if [r.component for r in self.app.kernel.reboots[reboots:]] \
                    != [source]:
                raise CheckFailed(f"wild write {source}->{victim} did "
                                  "not reboot the writer")
        else:
            target = "9PFS" if rng.random() < 0.8 else "VFS"
            self.injector.inject_panic(target, "bench fault")
            self.app.libc.stat("/redis")

    def step(self) -> int:
        rng = self.rng
        self.clock.advance(rng.uniform(2.6e6, 4.0e6))
        start = self.clock.now_us
        self._fault()
        client = self.client
        for _ in range(self.SETS):
            key = f"hot:{rng.randrange(self.HOT_KEYS):03d}"
            value = rng.randbytes(rng.randint(4, 128)).hex().encode()
            if not client.set(key, value):
                raise CheckFailed(f"SET {key} refused after recovery")
            if key not in self.shadow:
                self.keys.append(key)
            self.shadow[key] = value
        for _ in range(self.GETS):
            key = self.keys[rng.randrange(len(self.keys))]
            if client.get(key) != self.shadow[key]:
                raise CheckFailed(f"GET {key} did not return the last SET")
        self.virt.append(self.clock.now_us - start)
        return 1

    def ledger_state(self) -> Dict[str, Any]:
        return _ledger_state(self.app.sim.ledger)

    def counts(self) -> Dict[str, float]:
        return kernel_counts(self.app.kernel)

    def virt_quantiles(self) -> Tuple[float, float]:
        sample = self.virt[self.WARMUP:self.WARMUP + self.MODEL_STEPS]
        return quantile(sample, 0.5), quantile(sample, 0.99)


class FleetServe:
    """``fleet_cell`` for both arms, called directly, open loop.

    One op is one offered request; one step is one cell: an 18-tick
    shard of four replicas serving four tenants, one per profile
    (diurnal, flash_crowd, slow_clients, retry_storm).  Steps alternate
    the health-routed and the static arm on the same cell seed.
    Arrivals follow the tenant profiles in virtual time, whatever the
    host speed.  With every profile in every cell, the cells carry the
    same mix, so a run's host cost does not hinge on which profiles
    its few cells drew."""

    PER_OP = False
    WARMUP = 1
    MODEL_STEPS = 32
    PARITY_STEPS = 1
    #: cells per host-time window: both arms of one cell seed
    WINDOW = 2
    SPEC = FleetSpec(shards=1, tenants_per_shard=4, ticks=18)
    WARMUP_SPEC = FleetSpec(shards=1, tenants_per_shard=4, ticks=8)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.virt_hist = Histogram()
        self.steps = 0
        self.cell_ledgers: Dict[str, Dict[str, Any]] = {}
        #: instances built by the current cell, when counting is on
        self._captured: List[FleetInstance] = []
        self.counted = _zero_counts()

    def boot(self) -> None:
        pass  # every cell boots its own instances

    def capture_instances(self) -> None:
        """Record the instances each cell builds, so the per-layer
        counts can read their kernels (traced runs only)."""
        original = FleetInstance.__init__
        captured = self._captured

        def init(inst, *args, **kwargs):
            original(inst, *args, **kwargs)
            captured.append(inst)
        FleetInstance.__init__ = init

    def _cell(self) -> Tuple[FleetSpec, str, int, int]:
        if self.steps < self.WARMUP:
            return (self.WARMUP_SPEC, ROUTED_ARM, 0,
                    shard_seed(self.seed, "perfbench/warmup", self.steps))
        j = self.steps - self.WARMUP
        # both arms of a pair share the cell seed (a paired comparison)
        arm = ROUTED_ARM if j % 2 == 0 else STATIC_ARM
        return (self.SPEC, arm, 0, shard_seed(self.seed, "perfbench", j // 2))

    def step(self) -> int:
        spec, arm, shard, cell_seed = self._cell()
        outcome = campaign.fleet_cell(spec, arm, shard, cell_seed)
        self.steps += 1
        shed = 0
        for stats in outcome.tenants.values():
            if stats.offered != stats.ok + stats.err + stats.shed:
                raise CheckFailed(f"tenant {stats.name}: offered != "
                                  "ok + err + shed")
            if stats.latency.count != stats.ok + stats.err:
                raise CheckFailed(f"tenant {stats.name}: latency samples "
                                  "!= served requests")
            shed += stats.shed
        account = outcome.shed_account
        if not account.sheds == account.charges == shed:
            raise CheckFailed("ShedAccount charges differ from sheds")
        if self.WARMUP < self.steps <= self.WARMUP + self.MODEL_STEPS:
            self.virt_hist = self.virt_hist.merged_with(outcome.latency())
            for name, ledger in outcome.instance_ledgers.items():
                self.cell_ledgers[f"{self.steps}/{name}"] = {
                    "totals": ledger["totals"], "counts": ledger["counts"]}
        if self._captured:
            self._count(outcome)
        return outcome.offered

    def _count(self, outcome: Any) -> None:
        counted = self.counted
        for inst in self._captured:
            for key, value in kernel_counts(inst.app.kernel).items():
                counted[key] += value
        self._captured.clear()
        counted["offered"] += outcome.offered
        counted["served"] += outcome.ok + outcome.err
        counted["shed"] += outcome.shed
        counted["misroutes"] += outcome.misroutes

    def ledger_state(self) -> Dict[str, Any]:
        return dict(self.cell_ledgers)

    def counts(self) -> Dict[str, float]:
        return dict(self.counted)

    def virt_quantiles(self) -> Tuple[float, float]:
        return (hist_quantile(self.virt_hist, 0.5),
                hist_quantile(self.virt_hist, 0.99))


WORKLOADS = {
    "syscall_mix": SyscallMix,
    "recovery_churn": RecoveryChurn,
    "fleet_serve": FleetServe,
    # the same inputs with the flight recorder on (1-in-16 dispatch
    # spans sampled)
    "syscall_mix_obs": functools.partial(SyscallMix, observed=True),
    # every payload repeats from the seeded pool
    "syscall_mix_repeat": functools.partial(SyscallMix, distinct_share=0.0),
}


def handles_size() -> int:
    return (len(HANDLES.wire_sizes) + len(HANDLES.log_bytes)
            + len(HANDLES.blobs))
