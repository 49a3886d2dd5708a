"""One workload in one fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py <mode> <workload> <seed> <seconds>

Modes:

* ``setup``   — imports, boot and warm-up only; reports ``setup_s``;
* ``measure`` — set-up, then the timed loop with tracing off, then the
  ``reference_mode`` parity replay of a prefix of the same inputs;
* ``spans``   — the timed loop with every layer span wrapped, plus the
  exact per-layer counts read from the program's state;
* ``profile`` — the timed loop under cProfile, grouped by package.

A wrong answer, or any exception the program raises once it has been
imported, prints ``{"check_failed": ...}`` and exits 3; a program that
cannot be imported exits 1.  Host times are scaled to the reference
host speed (``hostspeed.py``).
``run.py`` starts these workers; they are not meant to be run by hand.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()  # before any program import: set-up counts them

import cProfile  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Any, Callable, Dict, List, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import hostspeed  # noqa: E402
from layers import HandleCounter, SpanTable, package_shares  # noqa: E402
from workloads import (WORKLOADS, CheckFailed, handles_size,  # noqa: E402
                       quantile)


def set_up(name: str, seed: int, before_boot: Callable[[Any], None]
           = lambda wl: None) -> Tuple[Any, float]:
    """Build the workload, boot the program and run the warm-up steps;
    returns the workload and the set-up time since interpreter start,
    scaled to the reference host speed by a calibration burst taken
    right after."""
    wl = WORKLOADS[name](seed)
    before_boot(wl)
    wl.boot()
    for _ in range(wl.WARMUP):
        wl.step()
    setup_s = perf_counter() - T_START
    runs = hostspeed.SETUP_RUNS
    return wl, setup_s * hostspeed.factor(runs, hostspeed.timed_runs(runs))


@dataclass
class Timing:
    """Per-step host seconds and ops of one timed loop, with the
    calibration samples taken after each step (0 runs when none)."""

    seconds: List[float] = field(default_factory=list)
    ops: List[int] = field(default_factory=list)
    cal_runs: List[int] = field(default_factory=list)
    cal_seconds: List[float] = field(default_factory=list)

    def windows(self, size: int) -> List[slice]:
        return [slice(i, i + size)
                for i in range(0, len(self.seconds) - size + 1, size)]

    def factor(self, window: slice) -> float:
        return hostspeed.factor(sum(self.cal_runs[window]),
                                sum(self.cal_seconds[window]))

    def ops_s(self, size: int) -> float:
        """Ops per second at the reference speed, each window of
        ``size`` steps scaled by its own calibration samples."""
        windows = self.windows(size)
        ops = sum(sum(self.ops[w]) for w in windows)
        return ops / sum(sum(self.seconds[w]) * self.factor(w)
                         for w in windows)


def timed_loop(wl: Any, seconds: float,
               at_step: Dict[int, Callable[[], None]],
               calibrate: bool = True) -> Timing:
    """Step until ``seconds`` of steps have run and at least
    ``MODEL_STEPS`` steps are done.  After a step, the calibration
    kernel runs once per ``hostspeed.EVERY_S`` of work since the last
    sample.  ``at_step`` hooks run after the given step.  Neither the
    hooks nor the calibration count as measured time."""
    timing = Timing()
    measured = 0.0
    since_cal = 0.0
    while True:
        t0 = perf_counter()
        n = wl.step()
        took = perf_counter() - t0
        timing.seconds.append(took)
        timing.ops.append(n)
        measured += took
        since_cal += took
        runs = int(since_cal / hostspeed.EVERY_S) if calibrate else 0
        timing.cal_runs.append(runs)
        timing.cal_seconds.append(hostspeed.timed_runs(runs) if runs else 0.0)
        if runs:
            since_cal = 0.0
        hook = at_step.get(len(timing.seconds))
        if hook is not None:
            hook()
        if measured >= seconds and len(timing.seconds) >= wl.MODEL_STEPS:
            return timing


def host_latency(wl: Any, timing: Timing) -> Tuple[float, float]:
    """Host µs per op at p50 and p90, at the reference speed.

    Where the benchmark issues each op, the quantiles are taken inside
    consecutive windows of ``WINDOW`` ops, scaled by the window's
    calibration and averaged over the windows.  A fleet op is not
    visible from outside a cell, so there each window of cells gives
    one sample: its host time per offered request."""
    windows = timing.windows(wl.WINDOW)
    if not wl.PER_OP:
        per_op = [sum(timing.seconds[w]) * timing.factor(w) * 1e6
                  / sum(timing.ops[w]) for w in windows]
        return quantile(per_op, 0.5), quantile(per_op, 0.9)
    p50, p90 = [], []
    for w in windows:
        scale = timing.factor(w) * 1e6
        p50.append(quantile(timing.seconds[w], 0.5) * scale)
        p90.append(quantile(timing.seconds[w], 0.9) * scale)
    return statistics.fmean(p50), statistics.fmean(p90)


def measure(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    from repro.fastpath import reference_mode

    wl, setup_s = set_up(name, seed)
    snapshots: Dict[str, Any] = {}

    def at_model() -> None:
        # peak RSS after a fixed amount of work, so it does not depend
        # on how many steps the host managed in the timed region
        snapshots["rss"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        snapshots["model"] = wl.ledger_state()
    hooks = {
        wl.PARITY_STEPS:
            lambda: snapshots.__setitem__("parity", wl.ledger_state()),
        wl.MODEL_STEPS: at_model,
    }
    timing = timed_loop(wl, seconds, hooks)
    op_p50, op_p90 = host_latency(wl, timing)
    virt_p50, virt_p99 = wl.virt_quantiles()
    digest = hashlib.sha256(json.dumps(
        {"ledger": snapshots["model"], "virt": [virt_p50, virt_p99]},
        sort_keys=True).encode()).hexdigest()

    # Parity: replay the prefix with every fast path off; the ledger
    # totals and counts must match the fast run's bit for bit.
    with reference_mode():
        ref, _ = set_up(name, seed)
        for _ in range(ref.PARITY_STEPS):
            ref.step()
        parity = ref.ledger_state() == snapshots["parity"]
    ops = sum(timing.ops)
    raw_seconds = sum(timing.seconds)
    return {
        "ops": ops, "steps": len(timing.seconds),
        "raw_seconds": raw_seconds, "raw_ops_s": ops / raw_seconds,
        "host_factor": timing.factor(slice(0, len(timing.seconds))),
        "ops_s": timing.ops_s(wl.WINDOW),
        "op_p50_us": op_p50, "op_p90_us": op_p90,
        "virt_p50_us": virt_p50, "virt_p99_us": virt_p99,
        "setup_s": setup_s, "peak_rss_mb": snapshots["rss"],
        "digest": digest, "parity": parity,
    }


def spans(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    table = SpanTable()
    handles = HandleCounter()

    def before_boot(wl: Any) -> None:
        table.install()
        handles.install()
        if hasattr(wl, "capture_instances"):
            wl.capture_instances()
    wl, _ = set_up(name, seed, before_boot)
    table.reset()
    marks: Dict[str, Any] = {"base": wl.counts(),
                             "lookups": list(handles.counts)}

    def at_model() -> None:
        marks["model"] = wl.counts()
        marks["handles"] = handles_size()
        hits, misses = (now - base for now, base
                        in zip(handles.counts, marks["lookups"]))
        marks["hit_ratio"] = _ratio(hits, hits + misses)
    timing = timed_loop(wl, seconds, {wl.MODEL_STEPS: at_model})
    ops = sum(timing.ops)
    scale = timing.factor(slice(0, len(timing.seconds))) * 1e6
    model_ops = sum(timing.ops[:wl.MODEL_STEPS])
    delta = {k: marks["model"][k] - marks["base"][k] for k in marks["base"]}
    return {
        "ops_s": timing.ops_s(wl.WINDOW),
        "spans": {span: [calls / ops, self_s * scale / ops]
                  for span, (calls, self_s) in table.stats.items()},
        "counts": counts_metrics(delta, model_ops, marks["handles"],
                                 marks["hit_ratio"]),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counts_metrics(d: Dict[str, float], ops: int, handles: int,
                   hit_ratio: float) -> Dict[str, float]:
    return {
        "charges_per_op": _ratio(d["charges"], ops),
        "log.appends_per_op": _ratio(d["log_append"], ops),
        "log.pruned_ratio": _ratio(d["entries_removed"], d["log_append"]),
        "replay.entries_per_reboot": _ratio(d["entries_replayed"],
                                            d["reboots"]),
        "snapshot.bytes_restored_per_reboot": _ratio(d["snapshot_bytes"],
                                                     d["reboots"]),
        "recovery.tracks_per_plan": _ratio(d["plan_tracks"], d["plans"]),
        "router.misroute_ratio": _ratio(d["misroutes"], d["served"]),
        "admission.shed_ratio": _ratio(d["shed"], d["offered"]),
        "handles.size": handles,
        "handles.hit_ratio": hit_ratio,
    }


def profile(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    wl, _ = set_up(name, seed)
    prof = cProfile.Profile()
    prof.enable()
    timed_loop(wl, seconds, {}, calibrate=False)
    prof.disable()
    return {"shares": package_shares(prof, SRC)}


def setup_only(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    return {"setup_s": set_up(name, seed)[1]}


MODES = {"setup": setup_only, "measure": measure, "spans": spans,
         "profile": profile}


def main(argv: List[str]) -> int:
    mode, name, seed, seconds = argv
    try:
        result = MODES[mode](name, int(seed), float(seconds))
    except CheckFailed as exc:
        print(json.dumps({"check_failed": str(exc)}))
        return 3
    except Exception as exc:  # the program broke while serving
        print(json.dumps({"check_failed": f"{type(exc).__name__}: {exc}"}))
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
