"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload syscall_mix --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root.  Every workload runs in fresh
interpreters (``worker.py``), one client, no worker pool:

* ``--trace 0`` measures the end-to-end metrics with tracing off:
  several set-up-only interpreters plus one that sets up, runs the
  timed loop and replays a prefix of the same inputs under
  ``reference_mode()`` (its ledger must match the fast run exactly);
* ``--trace 1`` reports the per-layer metrics: the untraced loop again
  (the base of ``trace_overhead``), the loop with every layer span
  wrapped (calls, self time, exact counts) and the loop under cProfile
  (self-time share per package).

Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is the result object; the exit status is non-zero when
an output check or the parity check fails or the program raises while
serving, and no result is printed when the program cannot be imported
at all.  ``NOTES.md`` describes the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("syscall_mix", "recovery_churn", "fleet_serve",
             "syscall_mix_obs", "syscall_mix_repeat")
#: set-ups per untraced run: this many set-up-only interpreters plus
#: the measuring one; ``setup_s`` is their median
SETUP_ONLY_RUNS = 4
#: host seconds a worker may take beyond its timed loop: interpreter
#: start, imports, boot, warm-up and the parity replay
CHILD_ALLOWANCE_S = 20.0
#: a timed loop may run this much longer than ``--seconds``: the
#: calibration samples and the minimum step count
TIMED_SLACK = 1.25


def deadline_s(seconds: int, trace: int) -> float:
    """Host seconds after which the workers are killed."""
    timed = 3 if trace else 1
    setups = 0 if trace else SETUP_ONLY_RUNS
    return ((timed + setups) * CHILD_ALLOWANCE_S
            + timed * seconds * TIMED_SLACK)


class ChildFailed(Exception):
    """A worker interpreter could not run the program."""


def run_child(mode: str, workload: str, seed: int, seconds: int,
              deadline: float) -> Dict[str, Any]:
    """Run one worker to completion (killed at the deadline) and
    return its JSON line."""
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, mode, workload, str(seed),
             str(seconds)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} worker overran the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 3) or not lines:
        raise ChildFailed(f"{mode} worker exited {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def end_to_end(args: argparse.Namespace, deadline: float
               ) -> Dict[str, Any]:
    children = [run_child(mode, args.workload, args.seed, args.seconds,
                          deadline)
                for mode in ["setup"] * SETUP_ONLY_RUNS + ["measure"]]
    for child in children:
        if "check_failed" in child:
            return {"error": child["check_failed"], "ops": 0}
    m = children[-1]
    values = {name: m[name] for name in
              ("ops_s", "op_p50_us", "op_p90_us", "virt_p50_us",
               "virt_p99_us", "peak_rss_mb")}
    values["setup_s"] = statistics.median(c["setup_s"] for c in children)
    print(f"fingerprint {m['digest']} virt_p50_us {m['virt_p50_us']!r} "
          f"virt_p99_us {m['virt_p99_us']!r}")
    print(f"timed {m['ops']} ops in {m['steps']} steps over "
          f"{m['raw_seconds']:.3f} s: {m['raw_ops_s']:.1f} ops/s on this "
          f"host, whose speed is {m['host_factor']:.3f}x the reference")
    out = {"values": values, "ops": m["ops"]}
    if not m["parity"]:
        out["error"] = "reference_mode ledger differs from the fast run"
    return out


def per_layer(args: argparse.Namespace, deadline: float
              ) -> Dict[str, Any]:
    base = run_child("measure", args.workload, args.seed, args.seconds,
                     deadline)
    traced = run_child("spans", args.workload, args.seed, args.seconds,
                       deadline)
    prof = run_child("profile", args.workload, args.seed, args.seconds,
                     deadline)
    for child in (base, traced, prof):
        if "check_failed" in child:
            return {"error": child["check_failed"], "ops": 0}
    values: Dict[str, float] = {}
    for pkg, share in prof["shares"].items():
        values[f"share.{pkg}"] = share
    for span, (calls, self_us) in traced["spans"].items():
        values[f"{span}.calls"] = calls
        values[f"{span}.self_us_per_op"] = self_us
    values.update(traced["counts"])
    values["trace_overhead"] = traced["ops_s"] / base["ops_s"]
    out = {"values": values, "ops": base["ops"]}
    if not base["parity"]:
        out["error"] = "reference_mode ledger differs from the fast run"
    return out


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + deadline_s(args.seconds, args.trace)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    try:
        result = (per_layer if args.trace else end_to_end)(args, deadline)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 2
    error = result.get("error")
    metrics = {}
    if error is None:
        values = result["values"]
        missing = {m["name"] for m in declared} - set(values)
        if missing:
            print(f"metrics not produced: {sorted(missing)}",
                  file=sys.stderr)
            return 2
        for m in declared:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
            print(f"{m['name']:48s} {values[m['name']]:>16.6g} {m['unit']}")
    else:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({"correct": error is None,
                      "attempted": max(1, result["ops"]),
                      "failed": 0 if error is None else 1,
                      "metrics": metrics}))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
