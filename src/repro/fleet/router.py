"""Health-check-driven routing with drain, probation and re-admission.

The router keeps a health state per instance, fed one
:class:`Observation` per tick from the probe loop:

* ``healthy`` — probed OK, nothing degraded: eligible for traffic;
* ``degraded`` — the instance's supervisor reports quarantined
  components (it answers, but with served errors): drained;
* ``draining`` — the probe failed (reset/refused/ENODEV) or went
  silent past the staleness tolerance: drained conservatively;
* ``down`` — the probe found a dead kernel: drained;
* ``probation`` — a previously-drained instance probed OK; it stays
  out of rotation until ``probation_probes`` consecutive good probes
  re-admit it (one flapping probe restarts the streak).

``policy="health"`` routes to the least-loaded healthy instance
(ties break on the lowest index, so choices are deterministic);
when nothing is healthy it degrades gracefully through probation →
degraded → draining → down rather than refusing outright.
``policy="static"`` is the control arm: round-robin over every
instance, health ignored.

``stale_ticks`` is the probe-silence tolerance: with the default 0 a
silent instance is drained on the very next tick.  Raising it opens a
window where the router serves from stale health data — a
misconfiguration the crucible's fleet canary pins as a transparency
violation.

Every routing decision under the health policy is checked against the
ledger: picking a non-healthy instance while a healthy one exists
increments ``misroutes``, and the campaign claims it stays zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle, islice
from typing import Iterator, List, Optional, Sequence

HEALTHY = "healthy"
DEGRADED = "degraded"
DRAINING = "draining"
DOWN = "down"
PROBATION = "probation"

#: graceful-degradation order when no instance is healthy
_FALLBACK = (PROBATION, DEGRADED, DRAINING, DOWN)


@dataclass(frozen=True)
class Observation:
    """One tick's probe result for one instance.

    ``probe_ok=None`` means no probe data arrived at all (a router
    blackhole): the router must fall back on staleness, not on the
    instance's actual state.
    """

    probe_ok: Optional[bool]
    degraded: bool = False
    dead: bool = False


def _least_loaded(candidates: List[int], loads: Sequence[float],
                  count: int) -> Iterator[int]:
    """The least-loaded candidate, ``count`` times.  ``index(min())``
    finds the first of equal loads, and the candidates ascend, so ties
    go to the lowest index.  Only the last pick's load is re-read
    before the next pick."""
    tier = [loads[i] for i in candidates]
    for _ in range(count):
        j = tier.index(min(tier))
        yield candidates[j]
        tier[j] = loads[candidates[j]]


class HealthRouter:
    """Deterministic health-routed (or static) instance selection."""

    def __init__(self, instances: int, policy: str = "health",
                 probation_probes: int = 2,
                 stale_ticks: int = 0) -> None:
        if instances < 1:
            raise ValueError("need at least one instance")
        if policy not in ("health", "static"):
            raise ValueError(f"unknown routing policy {policy!r}")
        self.policy = policy
        self.probation_probes = int(probation_probes)
        self.stale_ticks = int(stale_ticks)
        self.states: List[str] = [HEALTHY] * instances
        self._ok_streak = [0] * instances
        self._silent = [0] * instances
        self._rr = 0
        self.misroutes = 0

    # --- health bookkeeping (probe loop calls this) -----------------------

    def observe(self, index: int, obs: Observation) -> None:
        if obs.probe_ok is None:
            # No probe data: trust the last known state for up to
            # stale_ticks silent ticks, then drain conservatively.
            self._silent[index] += 1
            if self._silent[index] > self.stale_ticks:
                self.states[index] = DRAINING
                self._ok_streak[index] = 0
            return
        self._silent[index] = 0
        if obs.dead:
            self.states[index] = DOWN
            self._ok_streak[index] = 0
        elif obs.degraded:
            self.states[index] = DEGRADED
            self._ok_streak[index] = 0
        elif not obs.probe_ok:
            self.states[index] = DRAINING
            self._ok_streak[index] = 0
        elif self.states[index] == HEALTHY:
            pass  # steady state: nothing to count
        else:
            # A drained instance probed OK: walk the probation streak.
            self._ok_streak[index] += 1
            if self._ok_streak[index] >= self.probation_probes:
                self.states[index] = HEALTHY
                self._ok_streak[index] = 0
            else:
                self.states[index] = PROBATION

    # --- routing ----------------------------------------------------------

    def candidates(self) -> List[int]:
        """Routable instances under the health policy: the healthy
        set, else the best non-healthy tier (probation first)."""
        healthy = [i for i, s in enumerate(self.states) if s == HEALTHY]
        if healthy:
            return healthy
        for tier in _FALLBACK:
            tiered = [i for i, s in enumerate(self.states) if s == tier]
            if tiered:
                return tiered
        return list(range(len(self.states)))  # pragma: no cover

    def route(self, loads: Sequence[float]) -> int:
        """Pick an instance for one request. ``loads`` is the current
        per-instance queue depth; the health policy picks the
        least-loaded candidate (ties -> lowest index)."""
        return next(self.route_many(loads, 1))

    def route_many(self, loads: Sequence[float],
                   count: int) -> Iterator[int]:
        """Picks for ``count`` requests, as ``count`` calls of
        :meth:`route` would make them.

        Observations cannot arrive between the requests, so the
        candidate tier is derived once.  Before asking for the next
        pick the caller may change the load of the last one (the
        health policy reads it again), but no other.  ``_rr`` and
        ``misroutes`` advance for all ``count`` picks up front, so a
        caller that knows the remaining picks (under the health
        policy, a shed leaves ``loads`` as they were) may stop
        early."""
        if self.policy == "static":
            start = self._rr % len(self.states)
            self._rr += count
            order = list(range(start, len(self.states))) \
                + list(range(start))
            return islice(cycle(order), count)
        candidates = self.candidates()
        if self.states[candidates[0]] != HEALTHY \
                and HEALTHY in self.states:
            self.misroutes += count  # pragma: no cover - claim guard
        return _least_loaded(candidates, loads, count)

    def healthy_count(self) -> int:
        return sum(1 for s in self.states if s == HEALTHY)
