"""The fleet frontier: kills and blackholes behind the balancer.

The sweep must come back clean — health routing makes instance faults
tenant-invisible, and the static arm's visible errors are sanctioned
by a lossy cut — while the planted stale-router canary must be
convicted by the *existing* transparency oracle and ddmin-shrunk to a
handful of events.
"""

from __future__ import annotations

from repro.crucible.fleet import (
    fleet_faultfree_twin,
    is_fleet_scenario,
    run_fleet_bundle,
)
from repro.crucible.generate import (
    FLEET_SWEEP,
    fleet_canary_scenario,
    fleet_scenario_for_index,
)
from repro.crucible.oracles import evaluate_oracles
from repro.crucible.runner import run_bundle, run_scenario
from repro.crucible.scenario import Scenario
from repro.crucible.shrinker import shrink_events, violation_predicate

SEED = 20240806


def _scenario(events, seed=77):
    return Scenario(config="VampOS-Supervised", seed=seed,
                    events=events)


def _violations(scenario):
    verdicts = evaluate_oracles(scenario, run_bundle(scenario))
    return sorted(name for name, texts in verdicts.items() if texts)


def test_fleet_scenarios_dispatch_to_the_fleet_runner():
    scenario = _scenario([["ftick"]])
    assert is_fleet_scenario(scenario)
    outcome = run_scenario(scenario)
    assert outcome.results  # per-tenant serving rows
    assert all(row[1] == "ftick" for row in outcome.results)
    assert set(outcome.final_state) == {"tenants"}


def test_component_scenarios_still_use_the_component_runner():
    scenario = Scenario(config="VampOS-DaS", seed=3,
                        events=[["op", "open", 0]])
    assert not is_fleet_scenario(scenario)
    outcome = run_scenario(scenario)
    assert outcome.results[0][1] == "open"


def test_bundle_has_no_rootfree_arm():
    bundle = run_fleet_bundle(_scenario([["ftick"], ["ftick"]]))
    assert set(bundle) == {"main", "reference", "refmode", "noshrink"}


def test_health_routed_kill_is_tenant_invisible():
    scenario = _scenario([["fpolicy", "health"], ["ftick"],
                          ["fkill", 0], ["ftick"], ["ftick"]])
    bundle = run_fleet_bundle(scenario)
    assert bundle["main"].lossy_cut is None
    assert not _violations(scenario)


def test_static_kill_marks_a_lossy_cut():
    scenario = _scenario([["fpolicy", "static"], ["ftick"],
                          ["fkill", 0], ["ftick"]])
    bundle = run_fleet_bundle(scenario)
    assert bundle["main"].lossy_cut == 2
    assert not _violations(scenario)


def test_faultfree_twin_blanks_faults_but_keeps_configuration():
    scenario = _scenario([["fstale", 2], ["fkill", 0],
                          ["fblackhole", 1], ["ftick"]])
    twin = fleet_faultfree_twin(scenario)
    assert twin.events == [["fstale", 2], ["fnoop"], ["fnoop"],
                           ["ftick"]]


def test_full_sweep_is_clean():
    for index in range(FLEET_SWEEP):
        scenario = fleet_scenario_for_index(SEED, index)
        assert not _violations(scenario), scenario.note


def test_canary_convicts_transparency_without_a_lossy_cut():
    scenario = fleet_canary_scenario(SEED)
    bundle = run_fleet_bundle(scenario)
    verdicts = evaluate_oracles(scenario, bundle)
    assert verdicts["transparency"]
    assert bundle["main"].lossy_cut is None


def test_canary_shrinks_to_a_handful_of_events():
    scenario = fleet_canary_scenario(SEED)
    predicate = violation_predicate(scenario, ["transparency"])
    minimized, _ = shrink_events(scenario.events, predicate, limit=160)
    assert len(minimized) <= 5
    shrunk = scenario.with_events(minimized)
    assert "transparency" in _violations(shrunk)


def test_corpus_carries_a_pinned_fleet_scenario():
    from repro.crucible.corpus import load_corpus
    entries = load_corpus("tests/corpus")
    fleet_entries = [e for e in entries
                     if is_fleet_scenario(
                         Scenario.from_json(e["scenario"]))]
    assert fleet_entries, "expected a ddmin-shrunk fleet corpus entry"
    assert any("transparency" in e["expected"]["violated"]
               for e in fleet_entries)


def test_unknown_fleet_events_are_rejected():
    import pytest
    with pytest.raises(ValueError):
        run_scenario(_scenario([["ftick"], ["fwarp", 1]]))
    with pytest.raises(ValueError):
        run_scenario(_scenario([["fpolicy", "roulette"], ["ftick"]]))
