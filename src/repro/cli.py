"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro list
    python -m repro run EXP-F5 [--trials 100] [--jobs 4]
    python -m repro run EXP-T5 EXP-F8
    python -m repro all [--quick] [--jobs N]

Every experiment prints its paper-vs-measured report and exits non-zero
if any of the paper's qualitative claims failed to hold.

``--jobs N`` (default: every host CPU) shards the work across worker
processes: ``run`` with several ids / ``all`` shards at the experiment
level, a single ``run`` id shards inside the experiment (per mode, arm
or sweep point).  The output is byte-identical to ``--jobs 1`` — the
pool only changes wall-clock time.

``--obs`` turns on the flight recorder (spans + metrics + virtual-time
profile) and saves a recording — reports stay byte-identical; the obs
summary goes to stderr.  ``repro trace export`` turns a recording into
Chrome trace-event / Perfetto JSON, ``repro trace folded`` into
flamegraph.pl folded stacks (both accept ``--component`` /
``--category`` filters), and ``repro top`` renders an ASCII dashboard
from it.  The reliability observatory adds ``repro slo`` (availability
intervals + error budgets), ``repro health`` (heartbeat-sampled vital
signs) and ``repro postmortem`` (validate + render death artifacts).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from .experiments import (
    ablations,
    chaos_soak,
    endurance,
    app_overhead,
    failure_recovery,
    fault_campaign,
    log_space,
    reboot_time,
    rejuvenation,
    scalability,
    shrink_threshold,
    syscall_overhead,
)
from .metrics.report import ExperimentReport
from .parallel import parallel_map, resolve_jobs


def _jobs(args: argparse.Namespace) -> int:
    return resolve_jobs(getattr(args, "jobs", 1))


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--obs", action="store_true",
                        help="record spans/metrics/profile while "
                             "running (reports stay byte-identical)")
    parser.add_argument("--obs-out", default="flight.json",
                        metavar="PATH",
                        help="where --obs saves the flight recording "
                             "(default: flight.json)")
    parser.add_argument("--obs-sample", type=int, default=None,
                        metavar="N",
                        help="store only 1-in-N dispatch spans "
                             "(deterministic keep-first; metrics and "
                             "profile still see every call)")


def _run_f5(args: argparse.Namespace) -> ExperimentReport:
    return syscall_overhead.run(trials=args.trials, jobs=_jobs(args))


def _run_t3(args: argparse.Namespace) -> ExperimentReport:
    return log_space.run()


def _run_f6(args: argparse.Namespace) -> ExperimentReport:
    return reboot_time.run(trials=args.trials,
                           warmup_requests=args.scale,
                           jobs=_jobs(args))


def _run_f7(args: argparse.Namespace) -> ExperimentReport:
    return app_overhead.run(scale=args.scale)


def _run_t4(args: argparse.Namespace) -> ExperimentReport:
    return shrink_threshold.run(scale=args.scale)


def _run_t5(args: argparse.Namespace) -> ExperimentReport:
    return rejuvenation.run(rounds=max(4, args.scale // 25),
                            rejuvenate_every=3, clients=100)


def _run_f8(args: argparse.Namespace) -> ExperimentReport:
    return failure_recovery.run(keys=max(1000, args.scale * 10),
                                duration_s=20, disturb_at_s=8,
                                jobs=_jobs(args))


def _run_abl_endurance(args: argparse.Namespace) -> ExperimentReport:
    # the unmanaged arm needs enough rounds for aging to reach the
    # crash point, so the round count has a floor
    return endurance.run(rounds=max(30, args.scale // 10),
                         jobs=_jobs(args))


def _run_abl_scale(args: argparse.Namespace) -> ExperimentReport:
    return scalability.run(calls=max(5, args.scale // 10),
                           jobs=_jobs(args))


def _run_abl_campaign(args: argparse.Namespace) -> ExperimentReport:
    return fault_campaign.run(faults=max(5, args.scale // 15),
                              jobs=_jobs(args))


def _run_chaos_soak(args: argparse.Namespace) -> ExperimentReport:
    return chaos_soak.run(rounds=max(6, args.scale // 10),
                          jobs=_jobs(args))


def _run_abl_sched(args: argparse.Namespace) -> ExperimentReport:
    return ablations.run_scheduler_ablation(requests=args.scale)


def _run_abl_shrink(args: argparse.Namespace) -> ExperimentReport:
    return ablations.run_shrink_ablation(requests=args.scale)


def _run_abl_ckpt(args: argparse.Namespace) -> ExperimentReport:
    return ablations.run_checkpoint_ablation(requests=args.scale)


def _run_abl_aging(args: argparse.Namespace) -> ExperimentReport:
    return ablations.run_aging_ablation(operations=args.scale * 10)


EXPERIMENTS: Dict[str, tuple] = {
    "EXP-F5": (_run_f5, "Fig. 5 — system call overheads"),
    "EXP-T3": (_run_t3, "Table III — log space overheads"),
    "EXP-F6": (_run_f6, "Fig. 6 — component reboot times"),
    "EXP-F7": (_run_f7, "Fig. 7 — real-world application overheads"),
    "EXP-T4": (_run_t4, "Table IV — throughput vs shrink threshold"),
    "EXP-T5": (_run_t5, "Table V — rejuvenation request successes"),
    "EXP-F8": (_run_f8, "Fig. 8 — Redis failure-recovery latency"),
    "ABL-SCHED": (_run_abl_sched, "ablation — scheduler choice"),
    "ABL-SHRINK": (_run_abl_shrink, "ablation — log shrinking"),
    "ABL-CKPT": (_run_abl_ckpt, "ablation — checkpoint-based init"),
    "ABL-AGING": (_run_abl_aging, "ablation — aging & rejuvenation"),
    "ABL-SCALE": (_run_abl_scale,
                  "ablation — scheduler cost vs component count"),
    "ABL-CAMPAIGN": (_run_abl_campaign,
                     "ablation — randomized fault-injection campaign"),
    "ABL-ENDURANCE": (_run_abl_endurance,
                      "ablation — long-running aging + policies"),
    "CHAOS-SOAK": (_run_chaos_soak,
                   "recovery supervisor — randomized chaos soak"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VampOS reproduction (DSN 2024) — regenerate the "
                    "paper's tables and figures")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the reproducible artifacts")
    sub.add_parser("info", help="show the components, configurations "
                                "and cost model")

    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument("ids", nargs="+", metavar="EXP-ID",
                     help="experiment ids (see `repro list`)")
    run.add_argument("--scale", type=int, default=300,
                     help="workload scale (operations/requests)")
    run.add_argument("--trials", type=int, default=50,
                     help="trials for per-syscall / per-reboot timings")
    run.add_argument("--plot", action="store_true",
                     help="append an ASCII bar chart per report")
    run.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="worker processes (default: all host CPUs); "
                          "output is byte-identical to --jobs 1")
    _add_obs_flags(run)

    soak = sub.add_parser(
        "chaos-soak",
        help="soak the recovery supervisor in a seeded fault storm")
    soak.add_argument("--rounds", type=int, default=30,
                      help="soak rounds (one injected fault each)")
    soak.add_argument("--requests", type=int, default=6,
                      help="HTTP requests per round")
    soak.add_argument("--seed", type=int, default=20240624,
                      help="root seed (byte-identical per seed+jobs)")
    soak.add_argument("--repeats", type=int, default=1,
                      help="independently-seeded campaigns per arm")
    soak.add_argument("--quick", action="store_true",
                      help="reduced rounds (CI-friendly)")
    soak.add_argument("--jobs", type=int, default=None, metavar="N",
                      help="worker processes; output is byte-identical "
                           "to --jobs 1")
    _add_obs_flags(soak)

    crucible = sub.add_parser(
        "crucible",
        help="deterministic fault-space exploration with invariant "
             "oracles (sites x faults x configs)")
    crucible.add_argument("--budget", type=int, default=120,
                          help="frontier scenarios to explore "
                               "(default: one full axis sweep)")
    crucible.add_argument("--seed", type=int, default=20240806,
                          help="root seed; the frontier is a pure "
                               "function of (seed, index)")
    crucible.add_argument("--jobs", type=int, default=None, metavar="N",
                          help="worker processes; the report is "
                               "byte-identical to --jobs 1")
    crucible.add_argument("--state", default=None, metavar="PATH",
                          help="persist the frontier cursor here "
                               "(enables --resume; one file per "
                               "frontier)")
    crucible.add_argument("--resume", action="store_true",
                          help="continue from the --state cursor "
                               "instead of index 0")
    crucible.add_argument("--canary", action="store_true",
                          help="self-test: plant a known transparency "
                               "bug and require find + shrink")
    frontiers = crucible.add_mutually_exclusive_group()
    frontiers.add_argument("--storm", dest="frontier",
                           action="store_const", const="storm",
                           help="explore the multi-fault storm frontier "
                                "(simultaneous corruptions recovered by "
                                "one heartbeat sweep)")
    frontiers.add_argument("--root", dest="frontier",
                           action="store_const", const="root",
                           help="explore the root-rejuvenation frontier "
                                "(root panics and kernel-side aging "
                                "under live components)")
    frontiers.add_argument("--fleet", dest="frontier",
                           action="store_const", const="fleet",
                           help="explore the fleet-serving frontier "
                                "(instance kills and router blackholes "
                                "behind the load balancer)")
    crucible.set_defaults(frontier="main")
    crucible.add_argument("--corpus-out", default=None, metavar="DIR",
                          help="write minimized violations as corpus "
                               "files into DIR")
    crucible.add_argument("--shrink-limit", type=int, default=160,
                          help="max scenario re-runs per shrink")

    fleet = sub.add_parser(
        "fleet",
        help="fleet-scale serving: sharded instances behind a "
             "health-routed load balancer (vs a no-routing arm)")
    fleet.add_argument("--shards", type=int, default=None,
                       help="replica sets (tenants are sharded onto "
                            "them)")
    fleet.add_argument("--replicas", type=int, default=None,
                       help="instances per shard")
    fleet.add_argument("--ticks", type=int, default=None,
                       help="campaign length in balancer ticks")
    fleet.add_argument("--rate", type=int, default=None,
                       help="per-tenant baseline arrivals per tick")
    fleet.add_argument("--seed", type=int, default=20240808,
                       help="root seed (byte-identical per seed+jobs)")
    fleet.add_argument("--quick", action="store_true",
                       help="CI-sized campaign (same code paths, "
                            "~30x fewer requests)")
    fleet.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes; output is "
                            "byte-identical to --jobs 1")
    _add_obs_flags(fleet)

    everything = sub.add_parser("all", help="run every experiment")
    everything.add_argument("--quick", action="store_true",
                            help="reduced scales (CI-friendly)")
    everything.add_argument("--scale", type=int, default=300)
    everything.add_argument("--trials", type=int, default=50)
    everything.add_argument("--jobs", type=int, default=None, metavar="N",
                            help="worker processes (default: all host "
                                 "CPUs); output is byte-identical to "
                                 "--jobs 1")
    _add_obs_flags(everything)

    trace = sub.add_parser(
        "trace",
        help="convert a flight recording (see --obs) for viewers")
    trace.add_argument("action", choices=("export", "folded"),
                       help="export: Chrome trace-event JSON "
                            "(Perfetto / chrome://tracing); "
                            "folded: flamegraph.pl / speedscope stacks")
    trace.add_argument("recording", nargs="?", default="flight.json",
                       help="recording path (default: flight.json)")
    trace.add_argument("-o", "--out", default=None, metavar="PATH",
                       help="output path (default: trace.json / "
                            "profile.folded)")
    trace.add_argument("--component", default=None, metavar="NAME",
                       help="keep only spans/stacks referencing this "
                            "component (e.g. VFS)")
    trace.add_argument("--category", default=None, metavar="CAT",
                       help="keep only spans of this category (export) "
                            "or stacks with this mechanism leaf "
                            "(folded)")

    slo = sub.add_parser(
        "slo",
        help="SLO ledger report from a flight recording "
             "(availability intervals, error budgets, burn rates)")
    slo.add_argument("recording", nargs="?", default="flight.json",
                     help="recording path (default: flight.json)")
    slo.add_argument("--target", type=float, default=None,
                     metavar="FRACTION",
                     help="availability objective (default: 0.999)")

    health = sub.add_parser(
        "health",
        help="health timelines from a flight recording "
             "(heartbeat-sampled vital signs with spark lines)")
    health.add_argument("recording", nargs="?", default="flight.json",
                        help="recording path (default: flight.json)")

    postmortem = sub.add_parser(
        "postmortem",
        help="validate and render postmortem artifacts (a "
             "postmortem.json or a flight recording)")
    postmortem.add_argument("path", nargs="?", default="flight.json",
                            help="postmortem document or recording "
                                 "(default: flight.json)")

    top = sub.add_parser(
        "top", help="ASCII dashboard over a flight recording")
    top.add_argument("recording", nargs="?", default="flight.json",
                     help="recording path (default: flight.json)")
    top.add_argument("--limit", type=int, default=12,
                     help="rows per section")
    return parser


def _experiment_cell(exp_id: str, scale: int, trials: int,
                     jobs: int) -> ExperimentReport:
    """One shard of ``run``/``all``: a whole experiment.

    Top level so it pickles into pool workers; inside a worker the
    experiment's own ``parallel_map`` calls degrade to serial, so
    sharding at the experiment level never nests pools.
    """
    runner, _ = EXPERIMENTS[exp_id]
    return runner(argparse.Namespace(scale=scale, trials=trials,
                                     jobs=jobs))


def _execute(ids: List[str], args: argparse.Namespace,
             out=sys.stdout) -> int:
    keys = [exp_id.upper() for exp_id in ids]
    for exp_id, key in zip(ids, keys):
        if key not in EXPERIMENTS:
            print(f"unknown experiment {exp_id!r}; "
                  f"try: {', '.join(EXPERIMENTS)}", file=out)
            return 2
    jobs = _jobs(args)
    # Shard at the experiment level; a single-experiment invocation
    # falls through to the experiment's internal (mode/arm/point)
    # shards instead.  Reports are merged back into id order, so the
    # printed output never depends on completion order.
    reports = parallel_map(
        _experiment_cell,
        [(key, args.scale, args.trials, jobs) for key in keys],
        jobs)
    failures = 0
    for report in reports:
        print(report.render(), file=out)
        if getattr(args, "plot", False):
            from .metrics.ascii import chart_from_report
            chart = chart_from_report(report)
            if chart:
                print(file=out)
                print(chart, file=out)
        print(file=out)
        if not report.all_claims_hold:
            failures += 1
    if failures:
        print(f"{failures} experiment(s) had failing claims", file=out)
        return 1
    return 0


def _info(out=sys.stdout) -> int:
    """Inventory: components, configurations, cost model."""
    import repro
    from . import components as _components  # noqa: F401
    from .core.config import ALL_CONFIGS
    from .sim.costs import DEFAULT_COSTS
    from .unikernel.registry import GLOBAL_REGISTRY

    print(f"repro {repro.__version__} — VampOS reproduction (DSN 2024)",
          file=out)
    print("\ncomponents (Table I + RAMFS):", file=out)
    for name in GLOBAL_REGISTRY.names():
        cls = GLOBAL_REGISTRY.get(name)
        traits = []
        traits.append("stateful" if cls.STATEFUL else "stateless")
        if not cls.REBOOTABLE:
            traits.append("unrebootable")
        if cls.HANG_EXEMPT:
            traits.append("hang-exempt")
        deps = ", ".join(cls.DEPENDENCIES) or "-"
        print(f"  {name:<8} [{', '.join(traits)}] deps: {deps}",
              file=out)
    print("\nconfigurations (§VII-A):", file=out)
    for config in ALL_CONFIGS:
        merges = "; ".join(f"{g}={'+'.join(m)}"
                           for g, m in config.merges.items()) or "-"
        print(f"  {config.name:<12} scheduler={config.scheduler} "
              f"merges={merges}", file=out)
    print("\nrecovery escalation ladder (supervisor):", file=out)
    from .supervisor import DEFAULT_LADDER
    for rung in DEFAULT_LADDER:
        cost = getattr(DEFAULT_COSTS, rung.cost_attr)
        print(f"  {rung.key:<16} cost={cost}us"
              + ("  [degrades]" if rung.degrades else ""), file=out)
    print("  fail-stop        (implicit last resort)", file=out)
    print("\ncost model (virtual us):", file=out)
    for name, value in DEFAULT_COSTS.as_dict().items():
        print(f"  {name:<28} {value}", file=out)
    return 0


def _trace_command(args: argparse.Namespace) -> int:
    """``repro trace export|folded`` — recording -> viewer formats."""
    import json

    from .obs import export

    recording = export.load_recording(args.recording)
    recording = export.filter_recording(recording,
                                        component=args.component,
                                        category=args.category)
    if (args.component or args.category) and not recording["spans"] \
            and not recording["profile"]:
        print("no spans or stacks match the filters", file=sys.stderr)
        return 1
    if args.action == "export":
        out_path = args.out or "trace.json"
        document = export.to_chrome_trace(recording)
        problems = export.validate_chrome_trace(document)
        if problems:
            for problem in problems:
                print(f"invalid trace: {problem}", file=sys.stderr)
            return 1
        with open(out_path, "w") as fh:
            json.dump(document, fh, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(document['traceEvents'])} trace events to "
              f"{out_path} (open in Perfetto / chrome://tracing)",
              file=sys.stderr)
        return 0
    out_path = args.out or "profile.folded"
    with open(out_path, "w") as fh:
        fh.write(export.to_folded(recording))
    print(f"wrote folded stacks to {out_path} "
          f"(flamegraph.pl {out_path} > flame.svg)", file=sys.stderr)
    return 0


def _slo_command(args: argparse.Namespace, out=sys.stdout) -> int:
    """``repro slo`` — the SLO ledger view over a recording."""
    from .obs import export
    from .obs.slo import DEFAULT_SLO_TARGET, SloLedger

    recording = export.load_recording(args.recording)
    blobs = recording.get("slo", [])
    if not blobs:
        print("recording has no SLO ledgers (ran with --obs?)",
              file=out)
        return 1
    ledger = SloLedger.merged_from_jsonables(blobs)
    target = (args.target if args.target is not None
              else DEFAULT_SLO_TARGET)
    print(ledger.render(target), file=out)
    return 0


def _health_command(args: argparse.Namespace, out=sys.stdout) -> int:
    """``repro health`` — heartbeat-sampled vital signs."""
    from .obs import export
    from .obs.timeline import HealthTimeline

    recording = export.load_recording(args.recording)
    timeline = HealthTimeline.from_jsonable(
        recording.get("timeline", {}))
    if timeline.is_empty():
        print("recording has no health samples (heartbeats under "
              "--obs feed the timeline)", file=out)
        return 1
    print(timeline.render(), file=out)
    return 0


def _postmortem_command(args: argparse.Namespace,
                        out=sys.stdout) -> int:
    """``repro postmortem`` — validate + render death artifacts.

    Accepts either one postmortem document (as written to
    ``$REPRO_POSTMORTEM_DIR``) or a flight recording holding any
    number of them; exits non-zero when a document fails the schema.
    """
    import json

    from .obs.postmortem import render_postmortem, validate_postmortem

    with open(args.path) as fh:
        document = json.load(fh)
    if document.get("doc") == "repro-postmortem":
        docs = [document]
    elif document.get("kind") == "repro-flight-recording":
        docs = document.get("postmortems", [])
        if not docs:
            print("recording has no postmortems (nothing died)",
                  file=out)
            return 1
    else:
        print(f"{args.path} is neither a postmortem nor a flight "
              f"recording", file=sys.stderr)
        return 2
    failures = 0
    for position, doc in enumerate(docs):
        problems = validate_postmortem(doc)
        if problems:
            failures += 1
            for problem in problems:
                print(f"postmortem[{position}] invalid: {problem}",
                      file=sys.stderr)
            continue
        print(render_postmortem(doc), file=out)
    return 1 if failures else 0


def _top_command(args: argparse.Namespace, out=sys.stdout) -> int:
    """``repro top`` — ASCII dashboard over a recording."""
    from .obs import export
    from .obs.top import render_top

    recording = export.load_recording(args.recording)
    print(render_top(recording, limit=args.limit), file=out)
    return 0


def _run_with_obs(args: argparse.Namespace, body) -> int:
    """Run ``body()`` with the flight recorder on when ``--obs`` was
    given; the recording is saved afterwards and a one-line summary
    goes to **stderr** (stdout reports stay byte-identical)."""
    if not getattr(args, "obs", False):
        return body()
    from .obs import export, state as obs_state

    obs_state.enable(sample_dispatch=getattr(args, "obs_sample", None))
    try:
        code = body()
        recording = obs_state.collector().to_recording()
    finally:
        obs_state.disable()
    export.save_recording(recording, args.obs_out)
    metrics = recording["metrics"]
    print(f"flight recording: {len(recording['spans'])} spans "
          f"({recording['spans_dropped']} dropped, "
          f"{recording['trace_dropped']} trace-ring evictions), "
          f"{len(metrics['counters'])} counters, "
          f"{len(metrics['histograms'])} histograms, "
          f"{len(recording['profile'])} profile stacks, "
          f"{len(recording['slo'])} SLO ledger(s), "
          f"{len(recording['postmortems'])} postmortem(s) -> "
          f"{args.obs_out}", file=sys.stderr)
    return code


def _chaos_soak_command(args: argparse.Namespace, out=sys.stdout) -> int:
    rounds = min(args.rounds, 12) if args.quick else args.rounds
    report = chaos_soak.run(rounds=rounds,
                            requests_per_round=args.requests,
                            seed=args.seed, repeats=args.repeats,
                            jobs=_jobs(args))
    print(report.render(), file=out)
    return 0 if report.all_claims_hold else 1


def _fleet_command(args: argparse.Namespace, out=sys.stdout) -> int:
    from .fleet import FleetSpec
    from .fleet import run as fleet_run

    spec = FleetSpec.quick() if args.quick else FleetSpec()
    overrides = {name: getattr(args, attr)
                 for name, attr in (("shards", "shards"),
                                    ("replicas", "replicas"),
                                    ("ticks", "ticks"),
                                    ("base_rate", "rate"))
                 if getattr(args, attr) is not None}
    if overrides:
        spec = FleetSpec(**{**spec.__dict__, **overrides})
    report = fleet_run(spec, seed=args.seed, jobs=_jobs(args))
    print(report.render(), file=out)
    return 0 if report.all_claims_hold else 1


def main(argv: Optional[List[str]] = None, out=sys.stdout) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for exp_id, (_, description) in EXPERIMENTS.items():
            print(f"{exp_id:<11} {description}", file=out)
        return 0
    if args.command == "info":
        return _info(out)
    if args.command == "trace":
        return _trace_command(args)
    if args.command == "top":
        return _top_command(args, out=out)
    if args.command == "slo":
        return _slo_command(args, out=out)
    if args.command == "health":
        return _health_command(args, out=out)
    if args.command == "postmortem":
        return _postmortem_command(args, out=out)
    if args.command == "crucible":
        from .crucible import explore
        return explore(budget=args.budget, jobs=_jobs(args),
                       seed=args.seed, canary=args.canary,
                       state_path=args.state, resume=args.resume,
                       corpus_out=args.corpus_out,
                       shrink_limit=args.shrink_limit,
                       frontier=args.frontier, out=out)
    if args.command == "run":
        return _run_with_obs(
            args, lambda: _execute(args.ids, args, out=out))
    if args.command == "chaos-soak":
        return _run_with_obs(
            args, lambda: _chaos_soak_command(args, out=out))
    if args.command == "fleet":
        return _run_with_obs(
            args, lambda: _fleet_command(args, out=out))
    if args.command == "all":
        if args.quick:
            args.scale = min(args.scale, 120)
            args.trials = min(args.trials, 10)
        return _run_with_obs(
            args, lambda: _execute(list(EXPERIMENTS), args, out=out))
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
