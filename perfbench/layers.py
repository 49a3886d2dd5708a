"""Per-layer measurement for the traced runs.

Two instruments, each used in its own fresh interpreter:

* **spans** — the public functions of each layer are wrapped, from
  this file, in timers that record calls and *self* time (the span's
  duration minus the part its nested spans cover);
* **profile** — cProfile self time grouped by ``src/repro/<pkg>/``.

Neither runs when the end-to-end metrics are measured.
"""

from __future__ import annotations

import functools
import importlib
import os
import pstats
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

#: span name -> (module, attribute path) of the wrapped function.
#: Module-level functions are patched where their callers look them up
#: (the runtime imports the planner from the package at call time).
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("VampOSKernel.syscall", "repro.core.runtime", "VampOSKernel.syscall"),
    ("ComponentCallLog.append", "repro.core.calllog",
     "ComponentCallLog.append"),
    ("LogShrinker.on_entry_complete", "repro.core.shrink",
     "LogShrinker.on_entry_complete"),
    ("LogShrinker.force_shrink", "repro.core.shrink",
     "LogShrinker.force_shrink"),
    ("EncapsulatedRestorer.replay", "repro.core.restore",
     "EncapsulatedRestorer.replay"),
    ("SnapshotStore.take", "repro.memory.snapshot", "SnapshotStore.take"),
    ("SnapshotStore.restore", "repro.memory.snapshot",
     "SnapshotStore.restore"),
    ("BuddyAllocator.alloc", "repro.memory.buddy", "BuddyAllocator.alloc"),
    ("BuddyAllocator.free", "repro.memory.buddy", "BuddyAllocator.free"),
    ("ProtectionDomains.check", "repro.memory.mpk",
     "ProtectionDomains.check"),
    ("reboot_component", "repro.core.runtime",
     "VampOSKernel.reboot_component"),
    ("heartbeat", "repro.core.runtime", "VampOSKernel.heartbeat"),
    ("rejuvenate_root", "repro.core.runtime",
     "VampOSKernel.rejuvenate_root"),
    ("RecoverySupervisor.handle_failure", "repro.supervisor.supervisor",
     "RecoverySupervisor.handle_failure"),
    ("plan_for_kernel", "repro.recovery", "plan_for_kernel"),
    ("execute_plan", "repro.recovery", "execute_plan"),
    ("SloLedger.note_state", "repro.obs.slo", "SloLedger.note_state"),
    ("SloLedger.note_requests", "repro.obs.slo", "SloLedger.note_requests"),
    ("HealthRouter.route", "repro.fleet.router", "HealthRouter.route"),
    ("HealthRouter.observe", "repro.fleet.router", "HealthRouter.observe"),
    ("TokenBucket.take", "repro.fleet.admission", "TokenBucket.take"),
    ("FleetInstance.advance", "repro.fleet.instance",
     "FleetInstance.advance"),
    ("FleetInstance.probe", "repro.fleet.instance", "FleetInstance.probe"),
    ("TenantTraffic.arrivals", "repro.fleet.profiles",
     "TenantTraffic.arrivals"),
    ("FlightRecorder.on_crossing", "repro.obs.recorder",
     "FlightRecorder.on_crossing"),
)

#: (module, global, attribute): the hot path in ``module`` reads the
#: ``fastpath.HANDLES`` cache ``attribute`` through ``global``
HANDLE_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.messages", "_WIRE_SIZES", "wire_sizes"),
    ("repro.core.runtime", "_WIRE_SIZES", "wire_sizes"),
    ("repro.core.calllog", "_LOG_BYTES", "log_bytes"),
    ("repro.core.calllog", "_BLOBS", "blobs"),
)

#: packages whose cProfile self time is reported as ``share.<pkg>``
PACKAGES = ("core", "memory", "supervisor", "recovery", "rejuvenation",
            "obs", "fleet", "components", "net", "unikernel", "sim",
            "apps", "fastpath")


class SpanTable:
    """Calls and self seconds per span; nesting tracked on a stack of
    child-time accumulators (the program is single-threaded)."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {name: [0, 0.0]
                                              for name, _, _ in SPANS}
        self._stack: List[float] = []

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stats = self.stats[name]
        stack = self._stack

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stats[0] += 1
                stats[1] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
        return span

    def install(self) -> None:
        """Wrap every span target (call before the program boots, so no
        bound method escapes unwrapped)."""
        for name, module_name, path in SPANS:
            owner: Any = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def reset(self) -> None:
        for stats in self.stats.values():
            stats[0], stats[1] = 0, 0.0


class HandleCounter:
    """Hits and misses of the interned payload handles.

    Every hot-path lookup is a ``get`` on one of the ``HANDLES``
    dicts, read through a module global (``HANDLE_SITES``).  ``install``
    puts counting dicts in their place, before the program boots.  A
    site the program no longer has is skipped, so its lookups read as
    zero rather than failing the run."""

    def __init__(self) -> None:
        #: [hits, misses]
        self.counts = [0, 0]

    def _dict(self) -> Dict[Any, Any]:
        counts = self.counts

        class Counting(dict):
            def get(self, key: Any, default: Any = None) -> Any:
                value = dict.get(self, key)
                if value is None:
                    counts[1] += 1
                    return default
                counts[0] += 1
                return value
        return Counting()

    def install(self) -> None:
        from repro.fastpath import HANDLES
        fresh = {}
        for module_name, global_name, attr in HANDLE_SITES:
            module = importlib.import_module(module_name)
            if not hasattr(module, global_name):
                continue
            if attr not in fresh:
                fresh[attr] = self._dict()
                setattr(HANDLES, attr, fresh[attr])
            setattr(module, global_name, fresh[attr])


def package_shares(profile: Any, src_root: str) -> Dict[str, float]:
    """cProfile self time per ``src/repro/<pkg>`` as a share of all
    profiled self time (the benchmark's own code and builtins count in
    the denominator, so the shares say where the host time went)."""
    prefix = os.path.join(src_root, "repro") + os.sep
    per_pkg = dict.fromkeys(PACKAGES, 0.0)
    total = 0.0
    for (filename, _, _), row in pstats.Stats(profile).stats.items():
        self_time = row[2]
        total += self_time
        if not filename.startswith(prefix):
            continue
        head = filename[len(prefix):].split(os.sep, 1)[0]
        pkg = head[:-3] if head.endswith(".py") else head
        if pkg in per_pkg:
            per_pkg[pkg] += self_time
    return {pkg: (t / total if total else 0.0) for pkg, t in per_pkg.items()}
