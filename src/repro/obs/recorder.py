"""The flight recorder and its per-process collector.

One :class:`FlightRecorder` attaches to each :class:`Simulation`
created while observability is enabled (``repro ... --obs``); it is the
object the instrumented hot paths talk to through a single
``sim.obs is not None`` guard.  All recorders of one process share an
:class:`ObsCollector`, which owns the span log, the mergeable metrics
registry and the charge and crossing tallies that the virtual-time
profile is derived from.  The hot hooks only count (one integer bump
per charge or compiled crossing); sums are computed when the collector
is read.

Determinism contract (the same one the parallel engine gives reports):

* span ids and track ids are allocated in execution order;
* a pool worker starts every cell with a **fresh** collector
  (:func:`repro.obs.state.begin_cell`) and hands the resulting blob
  back with the cell result;
* the parent absorbs blobs in canonical cell order, renumbering each
  blob's locally-allocated ids by the running totals — which is exactly
  the numbering a serial run would have produced, so the saved
  recording is byte-identical at any ``--jobs`` count.

The recorder is purely observational: it never touches the RNG and
never advances the clock — unless the operator opts into
``FLAGS.charge_tracing``, which prices every span open/close at
``costs.trace_emit`` virtual microseconds (for studying the paper's
"monitoring feeds the recovery loop" overhead argument).
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from ..fastpath import FLAGS
from .metrics import Gauge, Histogram, MetricsRegistry
from .profiler import profile_from_tally
from .spans import Span, renumber
from .timeline import HealthTimeline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import Simulation

#: per-recorder span budget; long soaks beyond it keep counting
#: (``spans_dropped``) but stop storing (deterministic keep-first)
DEFAULT_MAX_SPANS = 250_000

#: 1-in-N sampling of ``dispatch`` spans (the highest-volume category:
#: one per cross-component call).  Deterministic by collector counter —
#: the first of every N dispatches records — so a run stores exactly
#: ``ceil(calls / N)`` dispatch spans at any ``--jobs`` count.  The
#: dispatcher asks :meth:`FlightRecorder.dispatch_due` before it builds
#: a span, so a sampled-out dispatch costs one counter bump.  Metrics
#: keep seeing every call exactly; the profile keeps attributing every
#: charge (same counts, same total time), but charges under a
#: sampled-out span fold into its parent's path — the dispatch frame
#: only appears for the sampled representatives.
ENV_SAMPLE_DISPATCH = "REPRO_OBS_SAMPLE_DISPATCH"


def _max_spans() -> int:
    try:
        return int(os.environ.get("REPRO_OBS_MAX_SPANS",
                                  DEFAULT_MAX_SPANS))
    except ValueError:
        return DEFAULT_MAX_SPANS


def _sample_dispatch() -> int:
    try:
        rate = int(os.environ.get(ENV_SAMPLE_DISPATCH, "1"))
    except ValueError:
        return 1
    return rate if rate > 1 else 1


class FlightRecorder:
    """Per-simulation span stack + metrics/profile front-end."""

    __slots__ = ("sim", "collector", "track", "_stack", "path",
                 "charges", "_crossings", "_metrics", "_recorded",
                 "_budget")

    def __init__(self, sim: "Simulation", collector: "ObsCollector",
                 track: int) -> None:
        self.sim = sim
        self.collector = collector
        self.track = track
        #: open spans, innermost last; (span, path-before-it) pairs
        self._stack: List[Any] = []
        #: cached ';'-joined span-name path for profile attribution
        self.path = ""
        #: the collector's tallies and live registry, bound once (the
        #: collector only ever adds into them in place).  ``charges``
        #: is public: the dispatcher bumps it for the charges it
        #: applies inline, ``charges[obs.path, category, amount] += 1``.
        self.charges = collector.charges
        self._crossings = collector.crossings
        self._metrics = collector.registry
        self._recorded = 0
        self._budget = _max_spans()

    # --- spans ------------------------------------------------------------

    def current_span_id(self) -> Optional[int]:
        return self._stack[-1][0].sid if self._stack else None

    def dispatch_due(self) -> bool:
        """Should this dispatch open its span?  Ask once per dispatch,
        before building the span's name and arguments (see
        ENV_SAMPLE_DISPATCH).

        Sampled before :meth:`open_span`'s budget check: a sampled-out
        span is neither recorded nor "dropped", and the decision is a
        pure function of the collector-local counter (cells start at
        zero, so any --jobs sharding keeps exactly the spans the serial
        run keeps).
        """
        collector = self.collector
        rate = collector.dispatch_sample
        if rate > 1:
            seen = collector.dispatch_seen
            collector.dispatch_seen = seen + 1
            return not seen % rate
        return True

    def open_span(self, category: str, name: str,
                  parent: Optional[int] = None,
                  **args: Any) -> Optional[Span]:
        """Open a span under ``parent`` (default: the innermost open
        span).  Returns None once the recorder's span budget is spent —
        ``close_span(None)`` is a no-op, so call sites stay branchless.
        """
        if self._recorded >= self._budget:
            self.collector.spans_dropped += 1
            return None
        if parent is None:
            parent = self.current_span_id()
        span = Span(sid=self.collector.alloc_span_id(), parent=parent,
                    track=self.track, category=category, name=name,
                    start_us=self.sim.clock.now_us, args=args)
        self.collector.spans.append(span)
        self._recorded += 1
        self._stack.append((span, self.path))
        self.path = name if not self.path else self.path + ";" + name
        if FLAGS.charge_tracing:
            self.sim.charge("trace_emit", self.sim.costs.trace_emit)
        return span

    def close_span(self, span: Optional[Span], **args: Any) -> None:
        if span is None:
            return
        # Pop back to this span; tolerates frames a raised exception
        # skipped past (their end time is this close's time).
        while self._stack:
            top, path_before = self._stack.pop()
            self.path = path_before
            if top.end_us is None:
                top.end_us = self.sim.clock.now_us
            if top is span:
                break
        if args:
            span.args.update(args)
        if FLAGS.charge_tracing:
            self.sim.charge("trace_emit", self.sim.costs.trace_emit)

    # --- metrics (thin aliases onto the shared registry) -------------------

    def inc(self, name: str, amount: float = 1) -> None:
        self._metrics.inc(name, amount)

    def set_gauge(self, name: str, value: float) -> None:
        self._metrics.set_gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        self._metrics.observe(name, value)

    # --- virtual-time profiling -------------------------------------------

    def on_charge(self, category: str, amount_us: float) -> None:
        """Count one cost-model charge against the open span stack.

        One integer bump in the collector's charge tally, keyed
        ``(span path, category, amount)``; the profile's folded stack
        (span-name path plus the mechanism as the leaf frame) and its
        exact sums are derived on read (see
        :func:`repro.obs.profiler.profile_from_tally`).
        """
        self.charges[self.path, category, amount_us] += 1

    def sample_health(self, kernel: Any) -> None:
        """One heartbeat-driven health sample into the collector's
        timeline (see :mod:`repro.obs.timeline`).

        Reads vital signs only — root wear, message-arena occupancy,
        the degraded set, per-component allocator leaks and the trace
        ring buffer's eviction count.  No RNG, and charge-free unless
        ``FLAGS.charge_tracing`` prices it like any other emission.
        """
        from ..faults.aging import leak_snapshot

        now = self.sim.clock.now_us
        timeline = self.collector.timeline
        timeline.record("root.wear_bytes", now,
                        kernel.root_wear.leaked_bytes())
        timeline.record("msgdom.used_bytes", now,
                        kernel.message_domain.used_bytes)
        timeline.record("supervisor.degraded", now,
                        len(kernel.supervisor.degraded))
        for name, leaked in leak_snapshot(kernel.image).items():
            timeline.record(f"leak.{name}", now, leaked)
        self._metrics.set_gauge("trace.dropped", self.sim.trace.dropped)
        if FLAGS.charge_tracing:
            self.sim.charge("trace_emit", self.sim.costs.trace_emit)

    def on_trace_drop(self) -> None:
        """One trace-ring eviction (wired to ``Trace.on_drop``)."""
        self.collector.trace_dropped += 1

    def on_crossing(self, tape, depth: int, used_bytes: int) -> None:
        """Count one compiled domain crossing (the dispatch fast lane's
        obs hook).

        One integer bump keyed ``(span path, tape, queue depth)``, plus
        the ``msgdom.used_bytes`` gauge, which keeps last-value
        semantics and so is set inline.  Reading the collector folds
        the tally into exactly what the reference path reports for the
        same crossing: one charge per tape item under the unchanged
        path (the tape charges never open or close spans), the
        ``msgdom.pushes``/``pulls`` counters and the integer
        queue-depth observation.  ``tape`` is any hashable iterable of
        ``(category, amount)`` pairs; the dispatcher's hash by identity,
        so the key costs no walk over the pairs.
        """
        self._crossings[self.path, tape, depth] += 1
        gauges = self._metrics.gauges
        gauge = gauges.get("msgdom.used_bytes")
        if gauge is None:
            gauge = gauges["msgdom.used_bytes"] = Gauge()
        gauge.set(used_bytes)


class ObsCollector:
    """Per-process accumulator shared by every recorder."""

    def __init__(self) -> None:
        #: the live metrics registry; read it through :attr:`metrics`,
        #: which folds the pending crossings in first
        self.registry = MetricsRegistry()
        #: (span path, category, amount) -> number of such charges
        self.charges: Dict[Any, int] = defaultdict(int)
        #: (span path, tape, queue depth) -> number of compiled
        #: crossings not yet folded into ``charges`` and the registry
        self.crossings: Dict[Any, int] = defaultdict(int)
        self.spans: List[Span] = []
        self.spans_dropped = 0
        #: trace-ring evictions across every attached simulation
        self.trace_dropped = 0
        self._next_span = 0
        self._next_track = 0
        #: 1-in-N dispatch-span sampling (see ENV_SAMPLE_DISPATCH)
        self.dispatch_sample = _sample_dispatch()
        self.dispatch_seen = 0
        #: live SLO ledgers registered by kernels in this process/cell
        #: (serialised at snapshot time, in registration order)
        self.slo_ledgers: List[Any] = []
        #: already-serialised ledger blobs absorbed from worker cells
        self.slo_blobs: List[Dict[str, Any]] = []
        #: heartbeat-sampled vital signs (see sample_health)
        self.timeline = HealthTimeline()
        #: postmortem documents, in execution order
        self.postmortems: List[Dict[str, Any]] = []

    # --- derived views ----------------------------------------------------

    def _fold_crossings(self) -> None:
        """Fold the crossing tally into the charge tally and the
        ``msgdom`` counters and queue-depth histogram.  All integer
        counts (depths too), so the result does not depend on when the
        fold runs or how crossings interleave with inline updates."""
        crossings = self.crossings
        if not crossings:
            return
        charges = self.charges
        depths: Dict[int, int] = {}
        for (path, tape, depth), n in crossings.items():
            for category, amount in tape:
                charges[path, category, amount] += n
            depths[depth] = depths.get(depth, 0) + n
        crossings.clear()
        registry = self.registry
        counted = sum(depths.values())
        counters = registry.counters
        for name in ("msgdom.pushes", "msgdom.pulls"):
            counters[name] = counters.get(name, 0) + counted
        hist = registry.histograms.get("msgdom.queue_depth")
        if hist is None:
            hist = registry.histograms["msgdom.queue_depth"] = Histogram()
        for depth, n in depths.items():
            hist.observe_repeated(depth, n)

    @property
    def metrics(self) -> MetricsRegistry:
        """The live registry, with every crossing so far folded in."""
        self._fold_crossings()
        return self.registry

    @property
    def profile(self) -> Dict[str, List[float]]:
        """Folded stack -> [total virtual us, charge count], derived
        from the charge tally (exact sums, rounded once)."""
        self._fold_crossings()
        return profile_from_tally(self.charges)

    # --- allocation -------------------------------------------------------

    def alloc_span_id(self) -> int:
        sid = self._next_span
        self._next_span += 1
        return sid

    def recorder_for(self, sim: "Simulation") -> FlightRecorder:
        track = self._next_track
        self._next_track += 1
        return FlightRecorder(sim, self, track)

    # --- shard plumbing ---------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A picklable blob of everything recorded so far (what a pool
        worker returns alongside its cell result)."""
        self._fold_crossings()
        return {
            "spans": list(self.spans),
            "metrics": self.registry,
            "charges": dict(self.charges),
            "n_spans": self._next_span,
            "n_tracks": self._next_track,
            "spans_dropped": self.spans_dropped,
            "trace_dropped": self.trace_dropped,
            "dispatch_seen": self.dispatch_seen,
            "slo": self.slo_blobs
            + [ledger.to_jsonable() for ledger in self.slo_ledgers],
            "timeline": self.timeline.to_jsonable(),
            "postmortems": list(self.postmortems),
        }

    def absorb(self, blob: Dict[str, Any]) -> None:
        """Fold a worker blob in (canonical cell order!), renumbering
        its locally-allocated span/track ids into this collector's id
        space — the numbering a serial run would have used."""
        self.spans.extend(renumber(blob["spans"], self._next_span,
                                   self._next_track))
        self._next_span += blob["n_spans"]
        self._next_track += blob["n_tracks"]
        self.registry.merge_from(blob["metrics"])
        # Integer counts: the profile merge is exact and independent of
        # the absorb order by construction.
        charges = self.charges
        for key, n in blob["charges"].items():
            charges[key] += n
        self.spans_dropped += blob["spans_dropped"]
        self.trace_dropped += blob.get("trace_dropped", 0)
        self.dispatch_seen += blob["dispatch_seen"]
        self.slo_blobs.extend(blob.get("slo", ()))
        self.timeline.absorb(blob.get("timeline", {}))
        self.postmortems.extend(blob.get("postmortems", ()))

    # --- serialisation ----------------------------------------------------

    def to_recording(self) -> Dict[str, Any]:
        """The canonical JSON-ready recording document."""
        return {
            "schema": 1,
            "kind": "repro-flight-recording",
            "spans": [s.to_dict() for s in self.spans],
            "spans_dropped": self.spans_dropped,
            "trace_dropped": self.trace_dropped,
            "metrics": self.metrics.to_dict(),
            "profile": {k: {"us": v[0], "count": v[1]}
                        for k, v in sorted(self.profile.items())},
            "slo": self.slo_blobs
            + [ledger.to_jsonable() for ledger in self.slo_ledgers],
            "timeline": self.timeline.to_jsonable(),
            "postmortems": list(self.postmortems),
        }
