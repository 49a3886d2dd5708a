"""Oracle test for one tenant-tick of fleet serving.

:func:`~repro.fleet.campaign.serve_tenant_tick` derives what cannot
change inside a tenant-tick once and counts a health-policy queue shed
for the rest of the batch in one step.  It must be indistinguishable
from the obvious loop below (route, check capacity, draw jitter,
observe, one request at a time) for any probe reports, loads, tenant
profile, queue capacity, router history and RNG seed: the same counts,
loads, histogram bits and RNG position.
"""

from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.fleet.campaign import FleetSpec, serve_tenant_tick
from repro.fleet.instance import ProbeReport
from repro.fleet.profiles import TrafficProfile
from repro.fleet.router import HealthRouter, Observation
from repro.obs.metrics import Histogram


def naive_serve(spec, reports, router, loads, admitted, profile, draw,
                hist):
    """The obviously-correct reference: one ``route`` call, capacity
    check, jitter draw and ``observe`` per admitted request."""
    capacity = spec.queue_capacity
    weight = profile.weight
    per_ok = [0] * len(reports)
    per_err = [0] * len(reports)
    queue_shed = 0
    for _ in range(admitted):
        idx = router.route(loads)
        if loads[idx] + weight > capacity:
            queue_shed += 1
            continue
        loads[idx] += weight
        report = reports[idx]
        jitter = 0.9 + 0.2 * draw()
        if report.dead:
            per_err[idx] += 1
            hist.observe(spec.timeout_us)
        elif report.degraded or not report.ok:
            per_err[idx] += 1
            hist.observe(report.service_us * spec.errpage_mult * jitter)
        else:
            per_ok[idx] += 1
            depth = 1.0 + loads[idx] / capacity
            hist.observe(report.service_us * profile.latency_mult
                         * depth * jitter)
    return per_ok, per_err, queue_shed


reports = st.builds(ProbeReport, ok=st.booleans(), degraded=st.booleans(),
                    dead=st.booleans(),
                    service_us=st.floats(1.0, 300_000.0))

observations = st.one_of(
    st.just(Observation(probe_ok=None)),
    st.builds(Observation, probe_ok=st.booleans(),
              degraded=st.booleans(), dead=st.booleans()),
)

#: one tenant-tick: admitted requests and the tenant's profile
tenant_ticks = st.tuples(
    st.integers(0, 120),
    st.builds(TrafficProfile, name=st.just("t"), weight=st.integers(1, 3),
              latency_mult=st.floats(0.5, 4.0)))


def fields(hist):
    return (hist.count, hist.total.hex(), hist.min.hex(), hist.max.hex(),
            hist.buckets)


@given(replicas=st.integers(1, 4),
       policy=st.sampled_from(["health", "static"]),
       history=st.lists(st.tuples(st.integers(0, 3), observations),
                        max_size=24),
       probes=st.lists(reports, min_size=4, max_size=4),
       loads=st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 17.5, 40.0]),
                      min_size=4, max_size=4),
       capacity=st.integers(1, 90),
       errpage_mult=st.floats(1.0, 5.0),
       ticks=st.lists(tenant_ticks, min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32))
def test_serving_step_matches_the_per_request_loop(
        replicas, policy, history, probes, loads, capacity, errpage_mult,
        ticks, seed):
    spec = FleetSpec(shards=1, replicas=replicas, queue_capacity=capacity,
                     errpage_mult=errpage_mult)
    probes = probes[:replicas]
    sides = []
    for serve in (serve_tenant_tick, naive_serve):
        router = HealthRouter(replicas, policy=policy)
        for index, obs in history:
            router.observe(index % replicas, obs)
        for index, report in enumerate(probes):
            router.observe(index, report.observation())
        rng = random.Random(seed)
        tick_loads = loads[:replicas]
        hist = Histogram()
        counts = [serve(spec, probes, router, tick_loads, admitted,
                        profile, rng.random, hist)
                  for admitted, profile in ticks]
        sides.append((counts, tick_loads, fields(hist), rng.random(),
                      router._rr, router.misroutes))
    batched, naive = sides
    assert batched[0] == naive[0]  # per-instance ok/err, queue sheds
    assert batched[1] == naive[1]  # final loads
    assert batched[2] == naive[2]  # histogram, bit for bit
    assert batched[3] == naive[3]  # the next serve_rng draw
    assert batched[4:] == naive[4:]  # router position and misroutes


def test_a_health_queue_shed_sheds_the_rest_of_the_batch():
    spec = FleetSpec(shards=1, replicas=2, queue_capacity=4)
    probes = [ProbeReport(ok=True, degraded=False, dead=False,
                          service_us=100.0)] * 2
    hist = Histogram()
    per_ok, per_err, queue_shed = serve_tenant_tick(
        spec, probes, HealthRouter(2), [0.0, 0.0], 10,
        TrafficProfile("t", weight=3), random.Random(1).random, hist)
    assert per_ok == [1, 1] and per_err == [0, 0]
    assert queue_shed == 8
    assert hist.count == 2
