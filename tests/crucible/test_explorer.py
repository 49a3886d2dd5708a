"""End-to-end explorer behaviour: determinism, resume, canary."""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.cli import build_parser
from repro.crucible import explore
from repro.crucible.explorer import CANARY_MAX_EVENTS, explore_cell
from repro.crucible.generate import FRONTIERS
from repro.crucible.shrinker import shrink_events


def _run(tmp_path=None, **kwargs):
    out = io.StringIO()
    code = explore(out=out, **kwargs)
    return code, out.getvalue()


@pytest.mark.parametrize("frontier", sorted(FRONTIERS))
def test_report_is_byte_identical_across_jobs(frontier):
    code1, report1 = _run(budget=4, jobs=1, seed=5150, frontier=frontier)
    code2, report2 = _run(budget=4, jobs=2, seed=5150, frontier=frontier)
    assert report1 == report2
    assert code1 == code2 == 0
    assert report1.startswith(
        f"== crucible: {FRONTIERS[frontier].title} ==\n")
    assert f"axes: {FRONTIERS[frontier].axes}\n" in report1
    assert "violations: none" in report1


def test_resume_advances_the_frontier_window(tmp_path):
    state_path = os.path.join(tmp_path, "state.json")
    _, first = _run(budget=3, jobs=1, seed=5150, state_path=state_path)
    with open(state_path) as fh:
        state = json.load(fh)
    assert state["next_index"] == 3
    assert state["explored_total"] == 3
    _, second = _run(budget=3, jobs=1, seed=5150,
                     state_path=state_path, resume=True)
    assert "indices 3..5" in second
    with open(state_path) as fh:
        state = json.load(fh)
    assert state["next_index"] == 6
    assert state["explored_total"] == 6


def test_resume_refuses_a_mismatched_seed(tmp_path):
    state_path = os.path.join(tmp_path, "state.json")
    _run(budget=2, jobs=1, seed=5150, state_path=state_path)
    with pytest.raises(SystemExit):
        _run(budget=2, jobs=1, seed=5151, state_path=state_path,
             resume=True)


def test_resume_refuses_a_mismatched_frontier(tmp_path):
    state_path = os.path.join(tmp_path, "state.json")
    _run(budget=2, jobs=1, seed=5150, state_path=state_path)
    with pytest.raises(SystemExit, match="main frontier, not storm"):
        _run(budget=2, jobs=1, seed=5150, state_path=state_path,
             resume=True, frontier="storm")
    with open(state_path) as fh:
        state = json.load(fh)
    assert state["frontier"] == "main"
    assert state["next_index"] == 2  # the refused run saved nothing


def test_resume_continues_the_same_frontier(tmp_path):
    state_path = os.path.join(tmp_path, "state.json")
    _run(budget=2, jobs=1, seed=5150, state_path=state_path,
         frontier="storm")
    _, second = _run(budget=2, jobs=1, seed=5150, state_path=state_path,
                     resume=True, frontier="storm")
    assert second.startswith(
        f"== crucible: {FRONTIERS['storm'].title} ==")
    assert "indices 2..3" in second
    assert "cumulative: 4 scenario(s) explored" in second
    with open(state_path) as fh:
        state = json.load(fh)
    assert state["frontier"] == "storm"
    assert state["next_index"] == 4


def test_frontier_options_are_mutually_exclusive(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args(["crucible", "--storm", "--root",
                           "--budget", "1"])
    assert excinfo.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    for option in ("--storm", "--root", "--fleet"):
        args = parser.parse_args(["crucible", option])
        assert args.frontier == option[2:]
    assert parser.parse_args(["crucible"]).frontier == "main"


def test_canary_cell_detects_the_planted_violation():
    cell = explore_cell(20240806, -1)
    assert cell["canary"]
    assert "transparency" in cell["violations"]


def test_canary_mode_passes_end_to_end(tmp_path):
    code, report = _run(seed=20240806, canary=True,
                        corpus_out=os.path.join(tmp_path, "corpus"))
    assert code == 0
    assert "canary PASS" in report
    assert "detected: transparency" in report


def test_shrinker_minimizes_against_a_plain_predicate():
    # violation := the schedule still contains both 3 and 7
    events = [["op", str(n)] for n in range(10)]

    def predicate(candidate):
        tags = {event[1] for event in candidate}
        return "3" in tags and "7" in tags

    minimized, evaluations = shrink_events(events, predicate, limit=200)
    assert sorted(event[1] for event in minimized) == ["3", "7"]
    assert evaluations <= 200


def test_shrinker_respects_its_evaluation_budget():
    events = [["op", str(n)] for n in range(12)]
    calls = []

    def predicate(candidate):
        calls.append(1)
        return len(candidate) >= 2

    minimized, evaluations = shrink_events(events, predicate, limit=5)
    assert evaluations <= 5
    assert len(calls) <= 5
    assert predicate(minimized)


def test_canary_max_events_matches_the_acceptance_bound():
    assert CANARY_MAX_EVENTS == 6
