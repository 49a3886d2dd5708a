"""Property tests for the health router.

The load balancer's core promise: under the health policy, traffic
never lands on an instance the router *knows* is bad while a healthy
one exists — for any observation history Hypothesis can dream up.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fleet.router import (
    DEGRADED,
    DOWN,
    DRAINING,
    HEALTHY,
    PROBATION,
    HealthRouter,
    Observation,
)

#: the tiers in routing preference order
TIERS = (HEALTHY, PROBATION, DEGRADED, DRAINING, DOWN)

#: anything the probe loop can feed the router, including blackholes
observations = st.one_of(
    st.just(Observation(probe_ok=None)),
    st.builds(Observation, probe_ok=st.booleans(),
              degraded=st.booleans(), dead=st.booleans()),
)


@given(instances=st.integers(2, 5),
       feed=st.lists(st.tuples(st.integers(0, 4), observations),
                     max_size=60),
       stale=st.integers(0, 3),
       loads=st.lists(st.floats(0, 50), min_size=5, max_size=5))
def test_never_routes_off_healthy_when_healthy_exists(
        instances, feed, stale, loads):
    router = HealthRouter(instances, policy="health", stale_ticks=stale)
    for index, obs in feed:
        router.observe(index % instances, obs)
    picked = router.route(loads[:instances])
    if any(state == HEALTHY for state in router.states):
        assert router.states[picked] == HEALTHY
    assert router.misroutes == 0


@given(instances=st.integers(2, 5),
       feed=st.lists(st.tuples(st.integers(0, 4), observations),
                     max_size=60))
def test_fallback_tier_is_the_best_available(instances, feed):
    """With nothing healthy, routing degrades through probation →
    degraded → draining → down, never skipping a populated tier."""
    router = HealthRouter(instances, policy="health")
    for index, obs in feed:
        router.observe(index % instances, obs)
    picked = router.route([0.0] * instances)
    for tier in (HEALTHY, PROBATION, DEGRADED, DRAINING, DOWN):
        populated = [i for i, s in enumerate(router.states)
                     if s == tier]
        if populated:
            assert picked in populated
            break


@given(probes=st.integers(1, 4), good=st.integers(0, 6))
def test_probation_readmits_only_after_the_full_streak(probes, good):
    router = HealthRouter(2, policy="health", probation_probes=probes)
    router.observe(0, Observation(probe_ok=False))
    assert router.states[0] == DRAINING
    for _ in range(good):
        router.observe(0, Observation(probe_ok=True))
    if good >= probes:
        assert router.states[0] == HEALTHY
    elif good > 0:
        assert router.states[0] == PROBATION
    else:
        assert router.states[0] == DRAINING


@given(stale=st.integers(0, 4), silent=st.integers(1, 8))
def test_silence_drains_exactly_past_the_tolerance(stale, silent):
    router = HealthRouter(2, policy="health", stale_ticks=stale)
    for _ in range(silent):
        router.observe(0, Observation(probe_ok=None))
    if silent > stale:
        assert router.states[0] == DRAINING
    else:
        assert router.states[0] == HEALTHY  # the stale-data window


def test_one_flapping_probe_restarts_the_streak():
    router = HealthRouter(2, policy="health", probation_probes=3)
    router.observe(0, Observation(probe_ok=False))
    router.observe(0, Observation(probe_ok=True))
    router.observe(0, Observation(probe_ok=True))
    router.observe(0, Observation(probe_ok=False))
    router.observe(0, Observation(probe_ok=True))
    assert router.states[0] == PROBATION


def test_health_policy_prefers_the_least_loaded_instance():
    router = HealthRouter(3, policy="health")
    assert router.route([5.0, 2.0, 9.0]) == 1
    assert router.route([1.0, 1.0, 9.0]) == 0  # tie -> lowest index


def test_static_policy_round_robins_blindly():
    router = HealthRouter(3, policy="static")
    router.observe(1, Observation(probe_ok=False, dead=True))
    picks = [router.route([0.0] * 3) for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]


def test_rejects_bad_configuration():
    with pytest.raises(ValueError):
        HealthRouter(0)
    with pytest.raises(ValueError):
        HealthRouter(2, policy="roulette")


def reference_route(router, loads):
    """One pick by the routing rule written out per request: static
    round-robin, else the least-loaded instance of the best populated
    tier (ties to the lowest index), counting misroutes."""
    if router.policy == "static":
        index = router._rr % len(router.states)
        router._rr += 1
        return index
    for tier in TIERS:
        candidates = [i for i, s in enumerate(router.states) if s == tier]
        if candidates:
            break
    index = min(candidates, key=lambda i: (loads[i], i))
    if router.states[index] != HEALTHY and HEALTHY in router.states:
        router.misroutes += 1
    return index


def serve(picks, loads, weight, capacity):
    """Apply the serving loop's updates to each pick as it is made: a
    pick that would overflow ``capacity`` sheds and leaves ``loads``
    alone.  Returns the picks."""
    out = []
    for index in picks:
        out.append(index)
        if loads[index] + weight <= capacity:
            loads[index] += weight
    return out


@given(instances=st.integers(1, 5),
       policy=st.sampled_from(["health", "static"]),
       feed=st.lists(st.tuples(st.integers(0, 4), observations),
                     max_size=40),
       stale=st.integers(0, 2),
       warmup=st.integers(0, 7),
       loads=st.lists(st.floats(0, 50), min_size=5, max_size=5),
       batches=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 3)),
                        max_size=4),
       capacity=st.integers(0, 80))
def test_batched_picks_equal_sequential_route_calls(
        instances, policy, feed, stale, warmup, loads, batches, capacity):
    """``route_many`` makes the picks that ``admitted`` calls of
    ``route`` (and of the written-out rule) make, with the same load
    and shed updates between picks; ``_rr`` and ``misroutes`` end up
    the same."""
    routers = [HealthRouter(instances, policy=policy, stale_ticks=stale)
               for _ in range(3)]
    for router in routers:
        for index, obs in feed:
            router.observe(index % instances, obs)
        for _ in range(warmup):
            router.route([0.0] * instances)
    batched, sequential, reference = routers
    loads_b, loads_s, loads_r = (loads[:instances] for _ in range(3))
    for admitted, weight in batches:
        picks_b = serve(batched.route_many(loads_b, admitted), loads_b,
                        weight, capacity)
        picks_s = serve((sequential.route(loads_s)
                         for _ in range(admitted)),
                        loads_s, weight, capacity)
        picks_r = serve((reference_route(reference, loads_r)
                         for _ in range(admitted)),
                        loads_r, weight, capacity)
        assert picks_b == picks_s == picks_r
        assert loads_b == loads_s == loads_r
        assert batched._rr == sequential._rr == reference._rr
        assert batched.misroutes == sequential.misroutes \
            == reference.misroutes


def test_route_many_advances_round_robin_for_the_whole_batch():
    router = HealthRouter(3, policy="static")
    router.route([0.0] * 3)
    picks = router.route_many([0.0] * 3, 5)
    assert router._rr == 6  # before the first pick is taken
    assert list(picks) == [1, 2, 0, 1, 2]
    assert router.route([0.0] * 3) == 0
