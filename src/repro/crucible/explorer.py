"""The explorer: fan the frontier out, judge, shrink, report.

``explore()`` is what ``repro crucible`` runs: a budget of frontier
indices is shipped through :func:`repro.parallel.parallel_map` (one
cell = one scenario = four runs + the oracle panel), merged back in
index order, and aggregated into a deterministic report — the printed
bytes depend only on ``(frontier, seed, budget, resume state)``, never
on ``--jobs`` or completion order.  Violations are re-generated in the
parent and delta-debugged serially; minimized scenarios go to the
corpus directory when one is given.

Resumability: ``--state PATH`` persists the frontier's name, its
cursor and the cumulative tallies, so repeated invocations sweep
successive index windows of the same seeded frontier without
re-running anything; resuming under another seed or frontier is
refused.

Canary mode self-tests the whole pipeline: a scenario with a planted
transparency bug (a reboot silently drops a logged request) must be
*found* by the oracle panel and *shrunk* to a handful of events —
proving the explorer can catch exactly the class of bug it exists for.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from ..obs.postmortem import validate_postmortem
from ..obs.slo import DEFAULT_SLO_TARGET, SloLedger
from ..parallel import parallel_map
from ..supervisor import PHASES
from .corpus import corpus_entry, write_corpus_file
from .generate import FRONTIERS, canary_scenario
from .oracles import ORACLES, evaluate_oracles
from .runner import run_bundle, violation_postmortem
from .scenario import Scenario, scenario_id
from .shrinker import shrink_events, violation_predicate

#: violations shrunk (and corpus-written) per invocation — the rest
#: are still reported, just not minimized
_SHRINK_CAP = 8

#: the canary must shrink at least this far to count as found
CANARY_MAX_EVENTS = 6


def explore_cell(root_seed: int, index: int,
                 frontier: str = "main") -> Dict[str, Any]:
    """One frontier cell: generate, run the bundle, judge.

    Module-level and JSON-in/JSON-out so it pickles into pool workers
    and merges byte-identically.  ``frontier`` names the
    :data:`~repro.crucible.generate.FRONTIERS` entry to draw from;
    ``index == -1`` selects the canary scenario instead.
    """
    if index < 0:
        scenario = canary_scenario(root_seed)
        config, fault, site = scenario.config, "canary", "reboot"
    else:
        scenario, config, fault, site = \
            FRONTIERS[frontier].cell(root_seed, index)
    bundle = run_bundle(scenario)
    verdicts = evaluate_oracles(scenario, bundle)
    main = bundle["main"]
    violations = sorted(name for name, texts in verdicts.items()
                        if texts)
    postmortem = main.postmortem
    if violations and postmortem is None:
        # The oracles convicted a run that survived: freeze an
        # oracle_violation artifact from a bit-identical re-run.
        postmortem = violation_postmortem(scenario, violations)
    return {
        "index": index,
        "id": scenario_id(scenario),
        "config": config,
        "fault": fault,
        "site": site,
        "seed": scenario.seed,
        "events": scenario.events,
        "canary": scenario.canary,
        "violations": violations,
        "problems": {name: texts for name, texts in verdicts.items()
                     if texts},
        "site_counts": main.site_counts,
        "pending_armings": main.pending_armings,
        "terminal": main.terminal,
        "degraded": bool(main.degraded_final),
        "lossy": main.lossy_cut is not None,
        "slo": main.slo,
        "phase_totals": main.phase_totals,
        "phase_episodes": main.phase_episodes,
        "postmortem": postmortem,
    }


def _load_state(path: Optional[str], resume: bool, seed: int,
                frontier: str) -> Dict[str, Any]:
    empty = {"seed": seed, "frontier": frontier, "next_index": 0,
             "explored_total": 0, "violations_total": 0}
    if not path or not resume or not os.path.exists(path):
        return empty
    with open(path) as fh:
        state = json.load(fh)
    if state.get("seed") != seed:
        raise SystemExit(
            f"--resume: state file {path} was produced with seed "
            f"{state.get('seed')}, not {seed}")
    if state.get("frontier") != frontier:
        raise SystemExit(
            f"--resume: state file {path} tracks the "
            f"{state.get('frontier')} frontier, not {frontier}")
    return state


def _save_state(path: str, state: Dict[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(state, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _shrink_violation(cell: Dict[str, Any],
                      shrink_limit: int) -> Dict[str, Any]:
    """Minimize one violating cell's schedule (serial, in-parent)."""
    scenario = Scenario(config=cell["config"], seed=cell["seed"],
                        events=[list(e) for e in cell["events"]],
                        canary=cell["canary"])
    predicate = violation_predicate(scenario, cell["violations"])
    minimized, evaluations = shrink_events(scenario.events, predicate,
                                           limit=shrink_limit)
    shrunk = scenario.with_events(minimized)
    verdicts = evaluate_oracles(shrunk, run_bundle(shrunk))
    return {
        "scenario": shrunk,
        "violated": sorted(n for n, t in verdicts.items() if t),
        "problems": {n: t for n, t in verdicts.items() if t},
        "from_events": len(cell["events"]),
        "to_events": len(minimized),
        "evaluations": evaluations,
    }


def _render_report(seed: int, start: int, budget: int,
                   cells: List[Dict[str, Any]],
                   shrunk: Dict[int, Dict[str, Any]],
                   corpus_files: Dict[int, str],
                   state: Optional[Dict[str, Any]],
                   frontier: str) -> str:
    spec = FRONTIERS[frontier]
    lines = [f"== crucible: {spec.title} =="]
    lines.append(
        f"seed {seed}, budget {budget} "
        f"(frontier indices {start}..{start + budget - 1})")
    lines.append(f"axes: {spec.axes}")

    coverage: Dict[str, int] = {}
    pending = 0
    clean = terminal = degraded = lossy = 0
    for cell in cells:
        for site, count in cell["site_counts"].items():
            coverage[site] = coverage.get(site, 0) + count
        pending += cell["pending_armings"]
        if cell["terminal"]:
            terminal += 1
        if cell["degraded"]:
            degraded += 1
        if cell["lossy"]:
            lossy += 1
        if not cell["violations"] and not cell["terminal"] \
                and not cell["lossy"]:
            clean += 1
    lines.append("site coverage (probe hits across main runs): "
                 + ", ".join(f"{site}={coverage.get(site, 0)}"
                             for site in ("msg_push", "msg_pull",
                                          "checkpoint", "replay_step",
                                          "ladder_rung")))
    lines.append(f"outcomes: clean={clean}, lossy={lossy}, "
                 f"terminal={terminal}, degraded={degraded}, "
                 f"armings-never-fired={pending}, "
                 f"postmortems={sum(1 for c in cells if c['postmortem'])}")

    ledger = SloLedger.merged_from_jsonables(
        [cell["slo"] for cell in cells if cell["slo"]])
    ok, err = ledger.request_totals()
    burn = ledger.burn_rate(DEFAULT_SLO_TARGET)
    lines.append(
        f"SLO (main runs, target {DEFAULT_SLO_TARGET * 100:.1f}%): "
        f"{ok} ok / {err} served errors"
        + (f", budget burn {burn:.2f}x" if burn is not None else ""))
    availabilities = [(comp, ledger.availability(comp))
                      for comp in ledger.components()]
    availabilities = [(comp, avail) for comp, avail in availabilities
                      if avail is not None]
    if availabilities:
        comp, avail = min(availabilities,
                          key=lambda item: (item[1], item[0]))
        lines.append(f"  worst availability: {comp} "
                     f"{avail * 100:.3f}%")

    phase_totals: Dict[str, Dict[str, float]] = {}
    phase_episodes: Dict[str, int] = {}
    for cell in cells:
        for kind, totals in cell["phase_totals"].items():
            bucket = phase_totals.setdefault(kind, {})
            for phase, amount in totals.items():
                bucket[phase] = bucket.get(phase, 0.0) + amount
        for kind, count in cell["phase_episodes"].items():
            phase_episodes[kind] = phase_episodes.get(kind, 0) + count
    if phase_episodes:
        lines.append("MTTR phase attribution (main runs, virtual us):")
        for kind in sorted(phase_episodes):
            totals = phase_totals.get(kind, {})
            detail = " ".join(f"{phase}={totals.get(phase, 0.0):.1f}"
                              for phase in PHASES
                              if totals.get(phase))
            lines.append(f"  {kind}: {phase_episodes[kind]} episode(s)"
                         + (f" [{detail}]" if detail else ""))

    lines.append("oracle verdicts:")
    for name in ORACLES:
        violations = sum(1 for cell in cells
                         if name in cell["violations"])
        lines.append(f"  {name:<24} {len(cells)} checked, "
                     f"{violations} violation(s)")

    violating = [cell for cell in cells if cell["violations"]]
    if not violating:
        lines.append("violations: none")
    else:
        lines.append(f"violations: {len(violating)} scenario(s)")
        for cell in violating:
            axes = f"{cell['config']}/{cell['fault']}@{cell['site']}"
            lines.append(f"  [index {cell['index']}] id={cell['id']} "
                         f"{axes}")
            lines.append("    violated: "
                         + ", ".join(cell["violations"]))
            for name, texts in sorted(cell["problems"].items()):
                for text in texts:
                    lines.append(f"    - {name}: {text}")
            mini = shrunk.get(cell["index"])
            if mini is not None:
                lines.append(
                    f"    shrunk: {mini['from_events']} -> "
                    f"{mini['to_events']} events "
                    f"({mini['evaluations']} evaluations)")
            path = corpus_files.get(cell["index"])
            if path is not None:
                lines.append(f"    corpus: {os.path.basename(path)}")
            doc = cell.get("postmortem")
            if doc is not None:
                schema_problems = validate_postmortem(doc)
                lines.append(
                    f"    postmortem: {doc['kind']} "
                    + ("(schema valid)" if not schema_problems else
                       f"(SCHEMA INVALID: {schema_problems[0]})"))
    if state is not None:
        lines.append(
            f"cumulative: {state['explored_total']} scenario(s) "
            f"explored, {state['violations_total']} violation(s), "
            f"next index {state['next_index']}")
    return "\n".join(lines)


def explore(budget: int = 120, jobs: Optional[int] = 1,
            seed: int = 20240806, canary: bool = False,
            state_path: Optional[str] = None, resume: bool = False,
            corpus_out: Optional[str] = None,
            shrink_limit: int = 160, frontier: str = "main",
            out=None) -> int:
    """The ``repro crucible`` command body; returns the exit code."""
    import sys
    if out is None:  # pragma: no cover - CLI default
        out = sys.stdout

    if canary:
        return _explore_canary(seed, corpus_out, shrink_limit, out)

    state = _load_state(state_path, resume, seed, frontier)
    start = int(state["next_index"])
    cells = parallel_map(explore_cell,
                         [(seed, index, frontier)
                          for index in range(start, start + budget)],
                         jobs)

    shrunk: Dict[int, Dict[str, Any]] = {}
    corpus_files: Dict[int, str] = {}
    for cell in cells:
        if not cell["violations"] or len(shrunk) >= _SHRINK_CAP:
            continue
        mini = _shrink_violation(cell, shrink_limit)
        shrunk[cell["index"]] = mini
        if corpus_out:
            entry = corpus_entry(mini["scenario"], mini["violated"],
                                 mini["problems"],
                                 meta={"found_by": "crucible",
                                       "root_seed": seed,
                                       "frontier_index": cell["index"],
                                       "axes": [cell["config"],
                                                cell["fault"],
                                                cell["site"]]})
            corpus_files[cell["index"]] = write_corpus_file(corpus_out,
                                                            entry)

    violations = sum(1 for cell in cells if cell["violations"])
    state["next_index"] = start + budget
    state["explored_total"] = state["explored_total"] + len(cells)
    state["violations_total"] = state["violations_total"] + violations
    print(_render_report(seed, start, budget, cells, shrunk,
                         corpus_files,
                         state if state_path else None, frontier),
          file=out)
    if state_path:
        _save_state(state_path, state)
    return 1 if violations else 0


def _explore_canary(seed: int, corpus_out: Optional[str],
                    shrink_limit: int, out) -> int:
    """Self-test: the planted bug must be found and shrunk small."""
    cell = explore_cell(seed, -1)
    lines = ["== crucible: canary mode =="]
    lines.append("planted: the first component reboot silently drops "
                 "the newest completed call-log entry")
    found = "transparency" in cell["violations"]
    if not found:
        lines.append("canary FAIL: the transparency oracle did not "
                     "fire (violations: "
                     + (", ".join(cell["violations"]) or "none") + ")")
        print("\n".join(lines), file=out)
        return 1
    lines.append("detected: " + ", ".join(cell["violations"]))
    doc = cell.get("postmortem")
    if doc is not None:
        schema_problems = validate_postmortem(doc)
        lines.append("postmortem: " + doc["kind"]
                     + (" (schema valid)" if not schema_problems else
                        f" (SCHEMA INVALID: {schema_problems[0]})"))
    mini = _shrink_violation(cell, shrink_limit)
    lines.append(f"shrunk: {mini['from_events']} -> "
                 f"{mini['to_events']} events "
                 f"({mini['evaluations']} evaluations)")
    if corpus_out:
        entry = corpus_entry(mini["scenario"], mini["violated"],
                             mini["problems"],
                             meta={"found_by": "crucible-canary",
                                   "root_seed": seed})
        path = write_corpus_file(corpus_out, entry)
        lines.append(f"corpus: {os.path.basename(path)}")
    ok = mini["to_events"] <= CANARY_MAX_EVENTS \
        and "transparency" in mini["violated"]
    lines.append("canary " + ("PASS" if ok else "FAIL")
                 + f": transparency violation minimized to "
                   f"{mini['to_events']} event(s) "
                   f"(required <= {CANARY_MAX_EVENTS})")
    print("\n".join(lines), file=out)
    return 0 if ok else 1
