"""Session-aware log shrinking (§V-F).

Two mechanisms keep the function-call logs bounded:

1. **Canceling functions.**  When a canceling call (``close()``-like)
   executes on session key *k*, the data operations on *k* (reads,
   writes, seeks…) become unnecessary for restoration and are pruned.
   The opener/close pair itself survives until the key is *reused*: a
   new session opener on *k* prunes the stale pair (this is the ``-1``
   net growth of ``open()`` in Table III).

2. **Threshold-triggered forced shrinking.**  When a log exceeds the
   threshold (default 100 entries, §VI), VampOS takes "the same or
   similar effect as forcing components to invoke canceling functions":
   the per-key operation series collapses into one synthetic entry
   holding the key's current state (extracted from the component),
   which replay re-installs directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..sim.engine import Simulation
from ..unikernel.component import (
    LANE_CANCELING,
    LANE_KEYED,
    LANE_OPENER,
    LANE_RESULT_KEY,
    Component,
)
from .calllog import CallLogEntry, ComponentCallLog
from ..fastpath import FLAGS

DEFAULT_SHRINK_THRESHOLD = 100


def is_scalar_key(value: Any) -> bool:
    """Whether a key_from_result call's result can key its entry."""
    return isinstance(value, (int, str)) and not isinstance(value, bool)


@dataclass
class ShrinkStats:
    canceling_prunes: int = 0
    pair_prunes: int = 0
    forced_shrinks: int = 0
    entries_removed: int = 0
    synthetic_entries: int = 0


class LogShrinker:
    """Applies both shrinking mechanisms to one component's log."""

    def __init__(self, sim: Simulation, component: Component,
                 log: ComponentCallLog,
                 threshold: int = DEFAULT_SHRINK_THRESHOLD,
                 enabled: bool = True) -> None:
        self.sim = sim
        self.component = component
        self.log = log
        self.threshold = threshold
        self.enabled = enabled
        self.stats = ShrinkStats()

    # --- hooks called after each logged call completes -------------------------------

    def complete(self, entry: CallLogEntry, result: Any, lane: int) -> None:
        """The compiled dispatch's completion of one logged call.

        Closes the active entry, records the result and applies the
        shrink rules of the export's lane (see ``LANE_*`` in
        :mod:`repro.unikernel.component`) as straight-line code.  Charge
        for charge and prune for prune it is the reference completion:
        ``pop_active``, ``set_result``, ``completed``, the
        key_from_result rekey or drop, then :meth:`on_entry_complete`.
        """
        log = self.log
        log.pop_active(entry)
        if lane == LANE_KEYED and entry.key is not None and self.enabled \
                and self.component.entry_is_state_neutral(entry.func,
                                                          entry.key):
            # The call changed nothing restoration needs (socket
            # read/write): it leaves the log as it completes.
            log.retire(entry, result)
            self.stats.entries_removed += 1
            self.sim.charge("log_prune", self.sim.costs.log_prune)
            return
        log.complete(entry, result)
        if lane == LANE_RESULT_KEY:
            if result is None:
                # The call opened no session (accept() with an empty
                # backlog): nothing to restore, drop it.
                log.drop(entry)
                return
            if is_scalar_key(result):
                log.rekey(entry, result)
            self.on_entry_complete(entry)
            return
        if not self.enabled:
            return
        if entry.key is not None:
            if lane == LANE_CANCELING:
                self._prune_canceled(entry)
            elif lane == LANE_OPENER:
                self._prune_stale_pair(entry)
        if len(log) > self.threshold and self._compactable():
            self.force_shrink()

    def on_entry_complete(self, entry: CallLogEntry) -> None:
        if not self.enabled:
            return
        if entry.key is not None and not entry.session_opener \
                and not entry.canceling \
                and self.component.entry_is_state_neutral(entry.func,
                                                          entry.key):
            # The call changed nothing restoration needs (e.g. socket
            # read/write): drop it on the spot (Table III's zeros).
            self.log.remove_entries([entry])
            self.stats.entries_removed += 1
            self.sim.charge("log_prune", self.sim.costs.log_prune)
            return
        if entry.canceling and entry.key is not None:
            self._prune_canceled(entry)
        if entry.session_opener and entry.key is not None:
            self._prune_stale_pair(entry)
        if len(self.log) > self.threshold and self._compactable():
            self.force_shrink()

    # --- canceling-function pruning ------------------------------------------------------

    def _prune_canceled(self, canceling_entry: CallLogEntry) -> None:
        """Drop the data operations of the canceled session."""
        doomed = [
            e for e in self.log.entries_for_key(canceling_entry.key)
            if e is not canceling_entry
            and not e.session_opener
            and not e.canceling
            # synthetic entries re-establish the session state and act
            # as its opener during replay — they must survive here and
            # fall to the pair prune on key reuse instead
            and not e.is_synthetic
            # durable entries (component-held data, e.g. RAMFS writes)
            # outlive a mere session close; only a durable canceling
            # function (remove) or forced compaction may drop them
            and (not e.durable or canceling_entry.durable)
        ]
        removed = self.log.remove_entries(doomed)
        if removed:
            self.stats.canceling_prunes += 1
            self.stats.entries_removed += removed
            self.sim.charge("log_prune",
                            removed * self.sim.costs.log_prune)
            self.sim.emit("shrink", "canceled",
                          component=self.component.NAME,
                          key=canceling_entry.key, removed=removed)

    def _prune_stale_pair(self, opener_entry: CallLogEntry) -> None:
        """A reused key prunes the previous opener..canceling pair."""
        doomed = [
            e for e in self.log.entries_for_key(opener_entry.key)
            if e is not opener_entry
        ]
        # Only prune when the old session actually ended (a canceling
        # entry — or a synthetic tombstone from a forced shrink — is
        # present); an id collision with a *live* session cannot happen
        # under lowest-free allocation.
        if not any(e.canceling or e.is_synthetic for e in doomed):
            return
        removed = self.log.remove_entries(doomed)
        if removed:
            self.stats.pair_prunes += 1
            self.stats.entries_removed += removed
            self.sim.charge("log_prune",
                            removed * self.sim.costs.log_prune)
            self.sim.emit("shrink", "pair_pruned",
                          component=self.component.NAME,
                          key=opener_entry.key, removed=removed)

    # --- threshold-triggered forced shrinking --------------------------------------------

    def _compactable(self) -> bool:
        """Whether a forced shrink would actually remove anything.

        Re-firing the (storage-touching) forced shrink on every append
        when all keys are already down to one entry would only burn
        time; the prototype's threshold check has the same effect
        because a shrink drops the log below the threshold.

        The per-key live counts make this O(1); the reference scan is
        kept for the neutrality tests.
        """
        if FLAGS.fast_paths:
            return self.log.has_multi_entry_key()
        seen: Dict[Any, int] = {}
        for entry in self.log.entries:
            if entry.key is None:
                continue
            seen[entry.key] = seen.get(entry.key, 0) + 1
            if seen[entry.key] >= 2:
                return True
        return False

    def force_shrink(self) -> int:
        """Collapse per-key operation series into synthetic entries.

        For every key with more than one remaining entry, extract the
        key's current state from the component and replace the series
        with a single ``__setstate__`` entry positioned where the series
        ended.  Keyless entries (mount, mkdir) are untouched.  Returns
        the number of entries removed.
        """
        self.sim.charge("forced_shrink", self.sim.costs.forced_shrink)
        self.stats.forced_shrinks += 1
        by_key: Dict[Any, List[CallLogEntry]] = {}
        if FLAGS.fast_paths:
            for key in self.log.live_keys():
                series = self.log.entries_for_key(key)
                if series:
                    by_key[key] = series
        else:
            for entry in self.log.entries:
                if entry.key is not None:
                    by_key.setdefault(entry.key, []).append(entry)
        removed_total = 0
        for key, series in by_key.items():
            if len(series) < 2:
                continue
            patch = self.component.extract_key_state(key)
            if patch is None:
                # The key has no live state (session fully closed):
                # nothing to restore, drop the whole series.
                removed_total += self.log.remove_entries(series)
                continue
            synthetic = self.log.make_synthetic(key, patch)
            self.log.replace_entries(series, synthetic, at_entry=series[-1])
            removed_total += len(series)
            self.stats.synthetic_entries += 1
        self.stats.entries_removed += removed_total
        self.sim.emit("shrink", "forced", component=self.component.NAME,
                      removed=removed_total,
                      remaining=len(self.log))
        return removed_total
