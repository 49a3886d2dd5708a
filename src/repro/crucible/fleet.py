"""The fleet frontier: the load balancer as a crucible subject.

Fleet scenarios put a miniature serving fleet — three echo-server
unikernels behind a :class:`~repro.fleet.router.HealthRouter`, two
tenants admitted through token buckets — under instance-level faults
(kills, router blackholes) and judge it with the *same* oracle panel
as the component frontier.  The mapping:

* **op results** are per-tick per-tenant serving rows
  ``[index, "ftick", tick, tenant, ok, err, shed]`` — what the
  tenants observed;
* the **reference** twin replaces every fault event (``fkill`` /
  ``frevive`` / ``fblackhole`` / ``fheal``) with ``fnoop`` while
  keeping policy/staleness configuration: what the tenants *should*
  have observed if no instance ever failed;
* the **lossy cut** marks where divergence became sanctioned: a kill
  under the ``static`` policy (the control arm routes blindly, so
  tenant-visible errors are expected), or a kill that leaves no
  instance alive.  A kill under the health policy is *not* lossy —
  the router must drain around it, and any tenant-visible error is a
  genuine transparency violation (the fleet canary plants exactly
  this: a probe blackhole plus a stale-tolerance misconfiguration
  that lets the router serve from a dead instance's last known
  health);
* **ledger parity** binds per instance: every instance's cost-ledger
  totals/counts appear prefixed ``i<k>:`` and the clock is the summed
  charged virtual time plus the shed charge, so the ``refmode`` twin
  must reproduce the whole fleet's accounting bit-exactly.

Event grammar (all events are JSON rows, ddmin-deletable):

``["ftick"]``                 one serving tick: advance + probe +
                              route + serve every tenant's arrivals
``["fkill", k]``              instance ``k`` dies (kernel marked dead)
``["frevive", k]``            operator full-reboots instance ``k``
``["fblackhole", k]``         probe results from ``k`` stop reaching
                              the router (the instance still serves)
``["fheal", k]``              the blackhole on ``k`` lifts
``["fpolicy", name]``         switch routing policy (health/static)
``["fstale", n]``             set the router's staleness tolerance
``["fnoop"]``                 nothing (keeps twin indices aligned)
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..apps.echo import EchoServer
from ..core.config import config_by_name
from ..fastpath import reference_mode
from ..fleet.admission import ShedAccount, TokenBucket
from ..fleet.router import HealthRouter, Observation
from ..obs.postmortem import emit_postmortem
from ..obs.slo import SloLedger, ledger_now_us
from ..parallel.seeding import shard_seed
from ..sim.engine import Simulation
from ..unikernel.errors import KernelPanic, SyscallError
from ..workloads.echo_load import EchoWorkload
from .runner import TERMINAL, RunOutcome
from .scenario import Scenario

#: every event tag the fleet runner understands; a scenario carrying
#: any of these is dispatched here instead of the component runner
FLEET_EVENTS = ("ftick", "fkill", "frevive", "fblackhole", "fheal",
                "fpolicy", "fstale", "fnoop")

#: the fault subset the fault-free twin blanks out (configuration
#: events — policy, staleness — survive into the twin)
_FAULT_TAGS = ("fkill", "frevive", "fblackhole", "fheal")

_REPLICAS = 3
_TENANTS = ("alpha", "beta")
_TICK_US = 50_000.0
_BUCKET_RATE = 6
_BUCKET_BURST = 8


def is_fleet_scenario(scenario: Scenario) -> bool:
    """True when any event belongs to the fleet grammar."""
    return any(event and event[0] in FLEET_EVENTS
               for event in scenario.events)


def fleet_faultfree_twin(scenario: Scenario) -> Scenario:
    """The scenario with every instance fault blanked to ``fnoop``:
    same length, same indices, but no instance ever fails — what the
    tenants should have observed."""
    return scenario.with_events(
        [["fnoop"] if event[0] in _FAULT_TAGS else list(event)
         for event in scenario.events])


def _arrivals(tick: int, tenant_index: int) -> int:
    """Deterministic per-tick offered load: a sawtooth that crosses
    the token bucket's rate, so admission sheds on the peaks."""
    return 4 + ((tick + tenant_index) % 4) * 2


class _Fleet:
    """The running fleet: instances, router, buckets, accounts."""

    def __init__(self, scenario: Scenario, config) -> None:
        self.instances: List[EchoServer] = []
        self.workloads: List[EchoWorkload] = []
        for k in range(_REPLICAS):
            app = EchoServer(
                Simulation(seed=shard_seed(scenario.seed, "fleet", k)),
                mode=config)
            self.instances.append(app)
            self.workloads.append(EchoWorkload(app))
        self.alive = [True] * _REPLICAS
        self.silent = [False] * _REPLICAS
        self.router = HealthRouter(_REPLICAS, policy="health")
        self.buckets = {name: TokenBucket(_BUCKET_RATE, _BUCKET_BURST)
                        for name in _TENANTS}
        self.shed = ShedAccount()
        self.slo = SloLedger(enabled=True, label="crucible-fleet")
        self.tenant_totals = {name: [0, 0, 0] for name in _TENANTS}
        self.ticks = 0

    # --- one serving tick -------------------------------------------------

    def probe(self, k: int) -> Observation:
        """Probe instance ``k`` and note its true state in the SLO
        ledger; a blackhole hides the result from the *router* only."""
        now_us = self.ticks * _TICK_US
        if not self.alive[k]:
            self.slo.note_state(f"i{k}", "dead", now_us)
            if self.silent[k]:
                return Observation(probe_ok=None)
            return Observation(probe_ok=False, dead=True)
        try:
            ok = self.workloads[k].one_exchange()
        except SyscallError:
            ok = False
        self.slo.note_state(f"i{k}", "up" if ok else "rebooting",
                            now_us)
        if self.silent[k]:
            return Observation(probe_ok=None)
        return Observation(probe_ok=ok)

    def tick(self, index: int, outcome: RunOutcome) -> None:
        for k in range(_REPLICAS):
            if self.alive[k]:
                self.instances[k].sim.clock.advance(_TICK_US)
                try:
                    self.instances[k].poll()
                except SyscallError:
                    pass  # a served error — the instance still runs
            self.router.observe(k, self.probe(k))
        loads = [0.0] * _REPLICAS
        for t_index, tenant in enumerate(_TENANTS):
            arrived = _arrivals(self.ticks, t_index)
            bucket = self.buckets[tenant]
            bucket.refill()
            admitted = bucket.take(arrived)
            shed = arrived - admitted
            per_ok = [0] * _REPLICAS
            per_err = [0] * _REPLICAS
            for k in self.router.route_many(loads, admitted):
                loads[k] += 1.0
                if not self.alive[k]:
                    per_err[k] += 1
                    continue
                try:
                    good = self.workloads[k].one_exchange()
                except SyscallError:
                    good = False
                if good:
                    per_ok[k] += 1
                else:
                    per_err[k] += 1
            self.shed.charge(shed)
            ok, err = sum(per_ok), sum(per_err)
            totals = self.tenant_totals[tenant]
            totals[0] += ok
            totals[1] += err
            totals[2] += shed
            for k in range(_REPLICAS):
                self.slo.note_requests(f"i{k}", tenant,
                                       ok=per_ok[k], err=per_err[k])
            outcome.results.append(
                [index, "ftick", self.ticks, tenant, ok, err, shed])
        self.ticks += 1

    # --- fault + configuration events -------------------------------------

    def kill(self, index: int, k: int, outcome: RunOutcome) -> None:
        if self.alive[k]:
            self.alive[k] = False
        if self.router.policy == "static" or not any(self.alive):
            # A blind control arm, or nothing left to route to:
            # tenant-visible errors are sanctioned from here on.
            outcome.note_lossy(index)

    def revive(self, k: int) -> None:
        if not self.alive[k]:
            self.instances[k].kernel.full_reboot()
            self.alive[k] = True

    # --- harvest ----------------------------------------------------------

    def harvest(self, outcome: RunOutcome) -> None:
        now_us = self.ticks * _TICK_US
        self.slo.close(now_us)
        outcome.slo = self.slo.to_jsonable(now_us=now_us)
        degraded = set()
        clock_us = self.shed.charged_us
        for k, app in enumerate(self.instances):
            ledger = app.sim.ledger
            for key, value in ledger.totals.items():
                outcome.ledger_totals[f"i{k}:{key}"] = value
            for key, value in ledger.counts.items():
                outcome.ledger_counts[f"i{k}:{key}"] = value
            clock_us += ledger_now_us(ledger)
            supervisor = getattr(app.kernel, "supervisor", None)
            if supervisor is not None:
                degraded.update(supervisor.degraded)
        outcome.ledger_totals["fleet:shed_charge_us"] = \
            self.shed.charged_us
        outcome.ledger_counts["fleet:sheds"] = self.shed.sheds
        outcome.ledger_counts["fleet:charges"] = self.shed.charges
        outcome.clock_us = clock_us
        outcome.degraded_final = sorted(degraded)

    def final_state(self) -> Dict[str, Any]:
        """What the tenants can observe: their own served/shed counts.
        Instance liveness is deliberately absent — a routed-around
        kill must be invisible here."""
        return {"tenants": {name: list(self.tenant_totals[name])
                            for name in _TENANTS}}


def run_fleet_scenario(scenario: Scenario, ops_only: bool = False,
                       shrink_override: Optional[bool] = None,
                       restore_probes: bool = True,
                       kernel_hook: Optional[Callable] = None
                       ) -> RunOutcome:
    """Execute a fleet scenario and collect a :class:`RunOutcome`.

    ``ops_only`` runs the fault-free twin (the serving schedule with
    every instance fault blanked) — the transparency reference.
    ``restore_probes`` is accepted for signature parity and ignored:
    fleet state equivalence is judged through the tenant counters.
    """
    del restore_probes
    config = config_by_name(scenario.config)
    if shrink_override is not None:
        config = config.with_(shrink_enabled=shrink_override)
    if ops_only:
        scenario = fleet_faultfree_twin(scenario)
    outcome = RunOutcome()
    fleet = _Fleet(scenario, config)
    for index, event in enumerate(scenario.events):
        tag = event[0]
        try:
            if tag == "ftick":
                fleet.tick(index, outcome)
            elif tag == "fkill":
                fleet.kill(index, int(event[1]) % _REPLICAS, outcome)
            elif tag == "frevive":
                fleet.revive(int(event[1]) % _REPLICAS)
            elif tag == "fblackhole":
                fleet.silent[int(event[1]) % _REPLICAS] = True
            elif tag == "fheal":
                fleet.silent[int(event[1]) % _REPLICAS] = False
            elif tag == "fpolicy":
                policy = str(event[1])
                if policy not in ("health", "static"):
                    raise ValueError(
                        f"unknown routing policy {policy!r}")
                fleet.router.policy = policy
            elif tag == "fstale":
                fleet.router.stale_ticks = int(event[1])
            elif tag == "fnoop":
                pass
            else:
                raise ValueError(f"unknown fleet event {tag!r}")
        except TERMINAL as exc:
            outcome.terminal = type(exc).__name__
            outcome.note_lossy(index)
            kernel = _dying_kernel(fleet, exc)
            if kernel is not None and kernel.last_postmortem is None:
                kind = ("root_panic" if isinstance(exc, KernelPanic)
                        else "fail_stop")
                emit_postmortem(
                    kernel, kind,
                    getattr(exc, "component", None) or "KERNEL",
                    reason=f"{type(exc).__name__}: {exc}")
            if kernel is not None:
                outcome.postmortem = kernel.last_postmortem
            break
    if outcome.terminal is None:
        outcome.final_state = fleet.final_state()
    fleet.harvest(outcome)
    if kernel_hook is not None:
        kernel_hook(fleet.instances[0].kernel)
    return outcome


def _dying_kernel(fleet: _Fleet, exc: BaseException):
    """The kernel that raised ``exc`` — the first one that froze a
    postmortem, else the first crashed one, else None."""
    for app in fleet.instances:
        if app.kernel.last_postmortem is not None:
            return app.kernel
    for app in fleet.instances:
        if app.kernel.crashed:
            return app.kernel
    return None


def run_fleet_bundle(scenario: Scenario) -> Dict[str, RunOutcome]:
    """The four-way evaluation of a fleet scenario: main, the
    fault-free reference twin, the ``reference_mode`` parity twin and
    the shrink-disabled twin (no rootfree arm — fleet scenarios carry
    no root events)."""
    main = run_fleet_scenario(scenario)
    reference = run_fleet_scenario(scenario, ops_only=True)
    with reference_mode():
        refmode = run_fleet_scenario(scenario)
    noshrink = run_fleet_scenario(scenario, shrink_override=False)
    return {"main": main, "reference": reference, "refmode": refmode,
            "noshrink": noshrink}
