"""The frontier: index → scenario, pure and seed-stable.

The fault space is a cartesian product — configuration × fault kind ×
injection site — swept in rounds: index ``i`` selects the axes by
residue and the sweep round (``variant``) by quotient, so any budget
prefix covers every axis combination before repeating with fresh
seeds.  A scenario's seed is derived with
:func:`repro.parallel.seeding.shard_seed` from the root seed and its
axis labels only — not from the index arithmetic — so re-slicing the
frontier (resume, different budgets) never changes what any cell runs.

The generator decorates the axis point with a workload: an open and a
write first (so logs and state exist to lose), the fault with whatever
support events make its site reachable (a reboot to drive checkpoint /
replay sites, a victim panic to drive the ladder site, a heartbeat to
sense a bit flip), and a tail of ops that would observe any damage.
Randomness comes only from :class:`~repro.sim.rng.DeterministicRNG`
streams — never the ``random`` module, never the wall clock.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Tuple

from ..parallel.seeding import shard_seed
from ..sim.rng import DeterministicRNG
from .scenario import DET_BUG_FUNCS, FAULT_KINDS, PATHS, Scenario, TARGETS

#: the configuration axis (names resolved by ``config_by_name``)
CONFIGS = ("VampOS-DaS", "VampOS-Noop", "VampOS-FSm",
           "VampOS-Supervised")

#: the injection-site axis: ``direct`` injects between top-level ops,
#: the rest arm the fault on a probed runtime boundary
SITES_AXIS = ("direct", "msg_push", "msg_pull", "checkpoint",
              "replay_step", "ladder_rung")

#: axis product size: one full sweep of the fault space
SWEEP = len(CONFIGS) * len(FAULT_KINDS) * len(SITES_AXIS)

#: how far into the future a site arming may aim, per site (hits);
#: small enough that most armings actually fire during the scenario
_HIT_RANGE = {"msg_push": 6, "msg_pull": 6, "checkpoint": 2,
              "replay_step": 3, "ladder_rung": 1}


def axes_for_index(index: int) -> tuple:
    """``index`` → (config, fault, site, variant)."""
    if index < 0:
        raise ValueError("frontier indices are non-negative")
    residue, variant = index % SWEEP, index // SWEEP
    config = CONFIGS[residue % len(CONFIGS)]
    residue //= len(CONFIGS)
    fault = FAULT_KINDS[residue % len(FAULT_KINDS)]
    residue //= len(FAULT_KINDS)
    site = SITES_AXIS[residue]
    return config, fault, site, variant


def _fault_event(rng, prefix: str, fault: str, site: str,
                 target: str) -> List[Any]:
    if fault == "det_bug":
        tail: List[Any] = [fault, target, DET_BUG_FUNCS[target]]
    else:
        tail = [fault, target]
    if site == "direct":
        return ["inject"] + tail
    hit = rng.randint(0, _HIT_RANGE[site])
    return ["site", site, hit] + tail


def _ops(rng, count: int) -> List[List[Any]]:
    events = []
    for _ in range(count):
        kind = rng.choice(("write", "read", "seek", "stat", "open",
                           "close"))
        if kind == "open" or kind == "stat":
            events.append(["op", kind, rng.randint(0, len(PATHS) - 1)])
        elif kind == "write":
            text = "".join(rng.choice("abc")
                           for _ in range(rng.randint(1, 5)))
            events.append(["op", "write", rng.randint(0, 3), text])
        elif kind == "read":
            events.append(["op", "read", rng.randint(0, 3),
                           rng.randint(1, 12)])
        elif kind == "seek":
            events.append(["op", "seek", rng.randint(0, 3),
                           rng.randint(0, 8)])
        else:
            events.append(["op", "close", rng.randint(0, 3)])
    return events


def scenario_for_index(root_seed: int, index: int) -> Scenario:
    """The frontier cell at ``index`` under ``root_seed``."""
    config, fault, site, variant = axes_for_index(index)
    seed = shard_seed(root_seed, "crucible", config, fault, site,
                      variant)
    rng = DeterministicRNG(seed).stream("events")
    target = rng.choice(TARGETS)

    # state first: something to log, checkpoint and lose
    events: List[List[Any]] = [
        ["op", "open", rng.randint(0, len(PATHS) - 1)],
        ["op", "write", 0, "".join(rng.choice("abc")
                                   for _ in range(rng.randint(2, 6)))],
    ]
    events.extend(_ops(rng, rng.randint(0, 2)))

    events.append(_fault_event(rng, "fault", fault, site, target))
    if site in ("checkpoint", "replay_step"):
        # the armed site only fires inside a reboot; schedule one
        events.append(["reboot", rng.choice(TARGETS)])
    elif site == "ladder_rung":
        # the ladder only walks on a failure: panic a victim the next
        # VFS op will reach, so the armed rung probe actually fires
        events.append(["inject", "panic", "VFS"])
    if fault == "bit_flip":
        # corruption is sensed (and healed) by the heart-beat sweep
        events.append(["heartbeat"])

    events.extend(_ops(rng, rng.randint(1, 3)))
    if rng.randint(0, 3) == 0:
        # cross the supervisor's backoff / probation windows
        events.append(["advance", float(rng.choice((2, 6, 15))) * 1e6])
        events.append(["heartbeat"])
    events.extend(_ops(rng, rng.randint(0, 2)))

    return Scenario(config=config, seed=seed, events=events,
                    note=f"frontier[{index}] {fault}@{site}")


#: the storm family's target-subset axis: every multi-component
#: combination of the scenario targets, smallest first.  {9PFS, RAMFS}
#: is the fully-independent pair (their recovery tracks overlap
#: completely); the subsets containing VFS exercise the dependent case
#: (VFS's track must serialize behind its failed providers).
STORM_SUBSETS = (("9PFS", "RAMFS"), ("VFS", "9PFS"), ("VFS", "RAMFS"),
                 ("VFS", "9PFS", "RAMFS"))

#: one full sweep of the storm family's axes
STORM_SWEEP = len(CONFIGS) * len(STORM_SUBSETS)


def storm_axes_for_index(index: int) -> tuple:
    """``index`` → (config, subset, variant) on the storm frontier."""
    if index < 0:
        raise ValueError("frontier indices are non-negative")
    residue, variant = index % STORM_SWEEP, index // STORM_SWEEP
    config = CONFIGS[residue % len(CONFIGS)]
    subset = STORM_SUBSETS[residue // len(CONFIGS)]
    return config, subset, variant


def storm_scenario_for_index(root_seed: int, index: int) -> Scenario:
    """The multi-fault storm frontier: several components' heaps are
    marked corrupted at once and a single heartbeat sweep recovers them
    all — through the parallel recovery planner when the configuration
    and fast-path flags allow, serially otherwise.

    The oracle panel then holds the planner to the serial-equivalence
    contract: identical op results and ledger against the
    ``reference_mode`` twin (which forces the serial sweep), a clock no
    later than the twin's, and an observable final state a clean reboot
    cannot perturb.
    """
    config, subset, variant = storm_axes_for_index(index)
    seed = shard_seed(root_seed, "crucible", "storm", config,
                      "+".join(subset), variant)
    rng = DeterministicRNG(seed).stream("events")

    # state + traffic first: the call-log edge index must hold live
    # caller→callee edges for the planner's dependency graph, and
    # there must be logged state for a broken restore to lose
    events: List[List[Any]] = [
        ["op", "open", rng.randint(0, len(PATHS) - 1)],
        ["op", "write", 0, "".join(rng.choice("abc")
                                   for _ in range(rng.randint(2, 6)))],
    ]
    events.extend(_ops(rng, rng.randint(1, 3)))

    # the storm: every subset member corrupted before one sweep
    for target in subset:
        events.append(["corrupt", target])
    events.append(["heartbeat"])

    events.extend(_ops(rng, rng.randint(1, 3)))
    if rng.randint(0, 1) == 0:
        # a second, quieter storm after the backoff window — recovery
        # must stay plannable when components have reboot history
        events.append(["advance", float(rng.choice((2, 6))) * 1e6])
        events.append(["corrupt", subset[0]])
        events.append(["corrupt", subset[-1]])
        events.append(["heartbeat"])
    events.extend(_ops(rng, rng.randint(0, 2)))

    return Scenario(config=config, seed=seed, events=events,
                    note=f"storm[{index}] {'+'.join(subset)}@{config}")


#: the root-fault family's kind axis: a direct root panic (absorbed by
#: rejuvenation or terminal), kernel-side aging swept by a heartbeat
#: (``heavy`` draws enough damage to cross the proactive wear
#: threshold; ``age`` usually stays under it), aging plus a pending
#: panic, and a component failure recovered *under* a pending root
#: panic (the ladder walks while the root itself is compromised)
ROOT_KINDS = ("panic", "age", "heavy", "age_panic", "recover")

#: one full sweep of the root family's axes
ROOT_SWEEP = len(CONFIGS) * len(ROOT_KINDS)


def root_axes_for_index(index: int) -> tuple:
    """``index`` → (config, kind, variant) on the root frontier."""
    if index < 0:
        raise ValueError("frontier indices are non-negative")
    residue, variant = index % ROOT_SWEEP, index // ROOT_SWEEP
    config = CONFIGS[residue % len(CONFIGS)]
    kind = ROOT_KINDS[residue // len(CONFIGS)]
    return config, kind, variant


def root_scenario_for_index(root_seed: int, index: int) -> Scenario:
    """The root-rejuvenation frontier: the *kernel* is the failure
    domain.  Scenarios damage the root (a panic flag, kernel-side
    aging) under live application traffic; configurations with root
    rejuvenation armed must absorb the damage invisibly — which the
    ``root_transparency`` oracle checks against a never-damaged twin —
    while disarmed configurations fail-stop terminally.
    """
    config, kind, variant = root_axes_for_index(index)
    seed = shard_seed(root_seed, "crucible", "root", config, kind,
                      variant)
    rng = DeterministicRNG(seed).stream("events")

    # state + traffic first: live fds, call logs and in-flight history
    # the microreboot must carry across unharmed
    events: List[List[Any]] = [
        ["op", "open", rng.randint(0, len(PATHS) - 1)],
        ["op", "write", 0, "".join(rng.choice("abc")
                                   for _ in range(rng.randint(2, 6)))],
    ]
    events.extend(_ops(rng, rng.randint(0, 2)))

    if kind == "panic":
        events.append(["root_panic"])
    elif kind == "age":
        # modest wear: usually below the proactive threshold, so the
        # heartbeat only *samples* it; the ladder's wear arm still sees
        # a worn root if a component fails later
        events.append(["root_age", rng.randint(4, 40)])
        events.append(["heartbeat"])
    elif kind == "heavy":
        # enough damage events to cross the 2 MiB proactive threshold
        # (~3 KiB mean leak per op) while staying far from the 16 MiB
        # arena: the heartbeat must rejuvenate, not crash
        events.append(["root_age", rng.randint(700, 1000)])
        events.append(["heartbeat"])
    elif kind == "age_panic":
        events.append(["root_age", rng.randint(4, 24)])
        events.append(["root_panic"])
        events.append(["heartbeat"])
    else:  # recover: a leaf fails while the root itself is panicked
        events.append(["root_panic"])
        events.append(["inject", "panic", rng.choice(TARGETS)])

    events.extend(_ops(rng, rng.randint(1, 3)))
    if rng.randint(0, 3) == 0:
        # cross the supervisor's backoff / probation windows
        events.append(["advance", float(rng.choice((2, 6, 15))) * 1e6])
        events.append(["heartbeat"])
    events.extend(_ops(rng, rng.randint(0, 2)))

    return Scenario(config=config, seed=seed, events=events,
                    note=f"root[{index}] {kind}@{config}")


#: the fleet family's routing-policy axis (the health arm must stay
#: transparent; the static arm is the sanctioned-loss control)
FLEET_POLICIES = ("health", "static")

#: the fleet family's fault axis: a plain instance kill, a probe
#: blackhole alone, a blackhole that then hides a kill (the default
#: zero staleness tolerance must still drain in time), and a kill
#: followed by an operator revive
FLEET_FAULTS = ("kill", "blackhole", "kill+blackhole", "kill+revive")

#: one full sweep of the fleet family's axes
FLEET_SWEEP = len(FLEET_POLICIES) * len(FLEET_FAULTS)


def fleet_axes_for_index(index: int) -> tuple:
    """``index`` → (policy, fault, variant) on the fleet frontier."""
    if index < 0:
        raise ValueError("frontier indices are non-negative")
    residue, variant = index % FLEET_SWEEP, index // FLEET_SWEEP
    policy = FLEET_POLICIES[residue % len(FLEET_POLICIES)]
    fault = FLEET_FAULTS[residue // len(FLEET_POLICIES)]
    return policy, fault, variant


def fleet_scenario_for_index(root_seed: int, index: int) -> Scenario:
    """The fleet-serving frontier: instance kills and router
    blackholes behind the load balancer (see ``crucible.fleet``).

    Under the health policy with the default staleness tolerance,
    every fault here must stay tenant-invisible: the router drains
    dead or silent instances before serving into them, so the
    transparency oracle holds the serving rows to the fault-free
    twin's.  Under the static policy a kill marks a lossy cut — blind
    round-robin is *expected* to surface errors — and the oracles
    only bind up to it.
    """
    policy, fault, variant = fleet_axes_for_index(index)
    seed = shard_seed(root_seed, "crucible", "fleet", policy, fault,
                      variant)
    rng = DeterministicRNG(seed).stream("events")
    target = rng.randint(0, 2)

    events: List[List[Any]] = [["fpolicy", policy]]
    events.extend([["ftick"]] * rng.randint(1, 2))
    if fault == "kill":
        events.append(["fkill", target])
    elif fault == "blackhole":
        events.append(["fblackhole", target])
        events.extend([["ftick"]] * rng.randint(1, 2))
        events.append(["fheal", target])
    elif fault == "kill+blackhole":
        events.append(["fblackhole", target])
        events.append(["ftick"])
        events.append(["fkill", target])
    else:  # kill+revive
        events.append(["fkill", target])
        events.extend([["ftick"]] * rng.randint(1, 2))
        events.append(["frevive", target])
    events.extend([["ftick"]] * rng.randint(2, 3))

    return Scenario(config="VampOS-Supervised", seed=seed,
                    events=events,
                    note=f"fleet[{index}] {fault}@{policy}")


def fleet_canary_scenario(root_seed: int) -> Scenario:
    """The planted fleet-routing bug: a raised staleness tolerance.

    With ``fstale 2`` the router trusts an instance's last known
    health for two silent ticks.  A probe blackhole followed by a kill
    leaves the router routing tenant traffic into a dead instance —
    errors the health policy promises never to surface, which the
    transparency oracle must convict (no lossy cut: replicas remain
    healthy throughout).  Shrinking must reduce it to the stale
    window, the blackhole, the kill and one serving tick.
    """
    seed = shard_seed(root_seed, "crucible", "fleet-canary")
    events = [
        ["fstale", 2],
        ["ftick"],
        ["fblackhole", 0],
        ["ftick"],
        ["fkill", 0],
        ["ftick"],
        ["fheal", 0],
        ["ftick"],
    ]
    return Scenario(config="VampOS-Supervised", seed=seed,
                    events=events,
                    note="fleet canary: stale health window hides a "
                         "dead instance")


def canary_scenario(root_seed: int) -> Scenario:
    """The planted transparency bug (see ``runner._install_canary``).

    A deliberately small scenario — open, write, reboot, read — whose
    reboot silently drops the last logged write from the rebooted
    component's call log.  The replay then reconstructs a state that
    never saw the request, which the transparency and restore oracles
    must catch; shrinking must reduce it to a handful of events.
    """
    seed = shard_seed(root_seed, "crucible", "canary")
    events = [
        ["op", "open", 2],
        ["op", "write", 0, "abcabc"],
        ["op", "write", 0, "cba"],
        ["reboot", "VFS"],
        ["op", "read", 0, 9],
        ["op", "stat", 2],
    ]
    return Scenario(config="VampOS-DaS", seed=seed, events=events,
                    canary=True, note="canary: dropped log entry")


#: what a frontier's cell function returns: the scenario plus the
#: (config, fault, site) labels the report and corpus metadata show
CellAxes = Tuple[Scenario, str, str, str]


def _main_cell(root_seed: int, index: int) -> CellAxes:
    config, fault, site, _ = axes_for_index(index)
    return scenario_for_index(root_seed, index), config, fault, site


def _storm_cell(root_seed: int, index: int) -> CellAxes:
    config, subset, _ = storm_axes_for_index(index)
    return (storm_scenario_for_index(root_seed, index), config, "storm",
            "+".join(subset))


def _root_cell(root_seed: int, index: int) -> CellAxes:
    config, kind, _ = root_axes_for_index(index)
    return root_scenario_for_index(root_seed, index), config, "root", kind


def _fleet_cell(root_seed: int, index: int) -> CellAxes:
    policy, kind, _ = fleet_axes_for_index(index)
    scenario = fleet_scenario_for_index(root_seed, index)
    return scenario, scenario.config, kind, policy


class Frontier(NamedTuple):
    """One explorable frontier: its report header and its cells."""

    #: the report title (``== crucible: <title> ==``)
    title: str
    #: the report's axes line (after ``axes: ``)
    axes: str
    #: ``(root_seed, index)`` -> (scenario, config, fault, site)
    cell: Callable[[int, int], CellAxes]


#: every frontier ``repro crucible`` can sweep, by name
FRONTIERS: Dict[str, Frontier] = {
    "main": Frontier(
        "deterministic fault-space exploration",
        f"{len(CONFIGS)} configs x {len(FAULT_KINDS)} faults x "
        f"{len(SITES_AXIS)} sites = {SWEEP} scenarios per sweep",
        _main_cell),
    "storm": Frontier(
        "multi-fault storm exploration",
        f"{len(CONFIGS)} configs x {len(STORM_SUBSETS)} target subsets "
        f"= {STORM_SWEEP} scenarios per sweep",
        _storm_cell),
    "root": Frontier(
        "root rejuvenation exploration",
        f"{len(CONFIGS)} configs x {len(ROOT_KINDS)} root fault kinds "
        f"= {ROOT_SWEEP} scenarios per sweep",
        _root_cell),
    "fleet": Frontier(
        "fleet serving exploration",
        f"{len(FLEET_POLICIES)} routing policies x {len(FLEET_FAULTS)} "
        f"instance faults = {FLEET_SWEEP} scenarios per sweep",
        _fleet_cell),
}
