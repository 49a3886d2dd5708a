"""Function-call and return-value logs (Fig. 4, §V-B).

The message domain keeps, per stateful component, a log of the calls
*into* the component (the function-call log) and, attached to each such
entry, the return values of the calls the component made *out* while
executing it (the return-value log).  Encapsulated restoration replays
the call log and answers the outbound calls from the attached return
values instead of executing them, so the running components never see
the restoration (Fig. 3).

Entries deep-copy arguments and results: the log must stay valid even
if the caller later mutates the objects it passed (and a faulty
component must not be able to corrupt its own recovery data — in the
paper the logs live in the message domain behind their own MPK tag for
exactly this reason).  Immutable payloads (the vast majority of logged
syscall arguments) are stored by reference instead — mutation-safety
holds trivially and the copy is free.

Hot-path data structures (see DESIGN.md, "Fast-path invariants"):

* ``self._entries`` holds every entry in append order, with pruned
  entries tombstoned (``entry.alive = False``) and compacted away once
  they outnumber the live ones; the public ``entries`` view exposes
  only live entries.
* ``self._by_key`` indexes live entries per session key, so the
  shrinker's per-key queries cost O(entries for that key) instead of
  O(log length).
* ``space_bytes()`` / ``record_count()`` are maintained incrementally
  on append / prune / retval-attach instead of walking the log.  A
  logged entry's ``key`` and ``result`` are assigned after append only
  through its log (``rekey``, ``set_result``, ``complete``, ``retire``;
  the dispatcher does both), so the index and the accounting never go
  stale.
"""

from __future__ import annotations

import copy
import itertools
from typing import Any, Dict, List, Optional, Tuple

from ..fastpath import (
    FLAGS,
    HANDLE_CACHE_LIMIT,
    HANDLES,
    type_fingerprint,
)
from ..fastpath import IMMUTABLE_SCALARS as _IMMUTABLE_SCALARS  # noqa: F401
from ..fastpath import is_immutable as _is_immutable

#: content-keyed caches shared with the snapshot/message fast paths
_LOG_BYTES = HANDLES.log_bytes
_BLOBS = HANDLES.blobs


class ReturnValueRecord:
    """One outbound call's outcome, recorded for replay interception."""

    __slots__ = ("target", "func", "result", "error")

    def __init__(self, target: str, func: str, result: Any = None,
                 error: Optional[Tuple[str, str]] = None) -> None:
        self.target = target
        self.func = func
        self.result = result
        #: (errno, message) when the call raised a SyscallError; replay
        #: re-raises it so the component takes the same path again
        self.error = error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ReturnValueRecord(target={self.target!r}, "
                f"func={self.func!r}, result={self.result!r}, "
                f"error={self.error!r})")


class CallLogEntry:
    """One logged inbound call.

    Slotted (hot-path class: one is built per logged syscall) and free
    of attribute hooks, so building one costs plain slot stores.  The
    ``_log`` slot is the owning :class:`ComponentCallLog` back-pointer.
    Once an entry is in a log, its ``key`` and ``result`` change only
    through that log (:meth:`ComponentCallLog.rekey`,
    :meth:`ComponentCallLog.set_result`), which keeps the per-key index
    and the space accounting exact; ``tests/test_calllog_lint.py``
    holds the rest of the package to that.
    """

    __slots__ = ("seq", "func", "args", "kwargs", "key", "result",
                 "session_opener", "canceling", "durable", "nested",
                 "synthetic_patch", "completed", "alive", "_log",
                 "_space")

    def __init__(self, seq: int, func: str, args: Tuple[Any, ...],
                 kwargs: Dict[str, Any], key: Any = None,
                 result: Any = None, session_opener: bool = False,
                 canceling: bool = False, durable: bool = False,
                 nested: Optional[List[ReturnValueRecord]] = None,
                 synthetic_patch: Optional[Tuple[Any, Any]] = None,
                 completed: bool = False, alive: bool = True) -> None:
        self._log: Optional[ComponentCallLog] = None
        self.seq = seq
        self.func = func
        self.args = args
        self.kwargs = kwargs
        #: session key (fd / fid / socket id) for session-aware shrinking
        self.key = key
        self.result = result
        #: whether this entry opens a session for its key (open/socket)
        self.session_opener = session_opener
        #: whether this entry is a canceling function (close)
        self.canceling = canceling
        #: durable entries hold data the component itself stores (§V-F
        #: caveat); canceling prunes skip them
        self.durable = durable
        #: return values of the component's outbound calls during this
        #: call
        self.nested = nested if nested is not None else []
        #: forced-shrink synthetic entry: apply this state patch instead
        #: of replaying pruned per-key operations
        self.synthetic_patch = synthetic_patch
        #: False while the call is still executing; replay skips
        #: in-flight entries (their nested retvals are partial)
        self.completed = completed
        #: tombstone flag: False once the entry has been pruned
        self.alive = alive
        #: cached space_bytes() while registered in a log (maintained by
        #: the owning log so _unregister never re-walks the payloads)
        self._space = 0

    def __getstate__(self) -> Dict[str, Any]:
        # Copies/pickles detach from the owning log: the copy is not in
        # any log's index, so pruning it through one would corrupt
        # accounting.
        return {name: getattr(self, name) for name in self.__slots__
                if name != "_log"}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self._log = None
        for name, value in state.items():
            setattr(self, name, value)

    @property
    def is_synthetic(self) -> bool:
        return self.synthetic_patch is not None

    def entry_count(self) -> int:
        """How many log records this entry holds (call + retvals)."""
        return 1 + len(self.nested)

    def space_bytes(self) -> int:
        """This entry's contribution to the Fig. 7b space accounting."""
        total = 64 + _payload_bytes(self.args) + _payload_bytes(self.result)
        for record in self.nested:
            total += 64 + _payload_bytes(record.result)
        return total


class ComponentCallLog:
    """The per-component slice of the message domain's logs."""

    #: compact the tombstoned entry list once the dead outnumber the
    #: live beyond this floor (amortised O(1) per prune)
    _COMPACT_FLOOR = 32

    def __init__(self, component: str) -> None:
        self.component = component
        #: append-ordered entries, including tombstones (see `entries`)
        self._entries: List[CallLogEntry] = []
        self._dead = 0
        #: per-key index over live entries (may hold stale references
        #: that `entries_for_key` lazily compacts away)
        self._by_key: Dict[Any, List[CallLogEntry]] = {}
        #: live entries per key / count of keys with >= 2 live entries
        self._key_live: Dict[Any, int] = {}
        self._multi_keys = 0
        # incremental accounting (kept equal to a full recompute)
        self._live_count = 0
        self._record_count = 0
        self._space_bytes = 0
        self._seq = itertools.count(1)
        #: caller->target call edges: live return-value records per
        #: callee, maintained incrementally on append/tombstone so the
        #: recovery planner reads the dependency graph off the hot path
        self._edge_counts: Dict[str, int] = {}
        #: entries currently being executed (innermost last); outbound
        #: retvals attach to the innermost active entry
        self._active: List[CallLogEntry] = []
        # lifetime counters for the experiments
        self.total_appended = 0
        self.total_pruned = 0
        self.total_retvals = 0

    # --- recording --------------------------------------------------------------

    def append(self, func: str, args: Tuple[Any, ...],
               kwargs: Dict[str, Any], key: Any = None,
               session_opener: bool = False,
               canceling: bool = False,
               durable: bool = False) -> CallLogEntry:
        entry = CallLogEntry(next(self._seq), func, _copy_payload(args),
                             _copy_kwargs(kwargs) if kwargs else {}, key,
                             None, session_opener, canceling, durable)
        # Inlined _register, specialised for a fresh entry: alive is
        # already True, nested is empty and result is None, so the
        # space walk collapses to 64 (header) + 8 (None result) + the
        # args price and the record count to exactly 1.
        self._entries.append(entry)
        entry._log = self
        if key is not None:
            self._index_add(key, entry)
        self._live_count += 1
        self._record_count += 1
        space = 72 + _payload_bytes(entry.args)
        entry._space = space
        self._space_bytes += space
        self.total_appended += 1
        return entry

    def adopt(self, entry: CallLogEntry) -> CallLogEntry:
        """Append an externally built entry (e.g. a synthetic one from
        :meth:`make_synthetic`) with full index + accounting."""
        self._register(entry)
        self.total_appended += 1
        return entry

    def push_active(self, entry: CallLogEntry) -> None:
        self._active.append(entry)

    def pop_active(self, entry: CallLogEntry) -> None:
        """Close the innermost active entry.

        The active stack mirrors the dispatcher's call nesting exactly
        (push/pop happen in paired try/finally blocks); a mismatch
        means nested return values are being attributed to the wrong
        entry — recovery data corruption — so it is a hard error rather
        than a silent no-op.
        """
        if not self._active or self._active[-1] is not entry:
            innermost = (f"{self._active[-1].func!r} "
                         f"seq={self._active[-1].seq}"
                         if self._active else "<none>")
            raise RuntimeError(
                f"call-log corruption in {self.component!r}: "
                f"pop_active({entry.func!r} seq={entry.seq}) does not "
                f"match the innermost active entry ({innermost})")
        self._active.pop()

    @property
    def active_entry(self) -> Optional[CallLogEntry]:
        return self._active[-1] if self._active else None

    def record_retval(self, target: str, func: str, result: Any = None,
                      error: Optional[Tuple[str, str]] = None) -> bool:
        """Attach an outbound call's outcome to the active entry.

        Returns True when a record was stored (i.e. a logged call of
        this component is currently executing).
        """
        active = self._active
        if not active:
            return False
        entry = active[-1]
        # Scalar/bytes results (the vast majority) copy by identity and
        # price trivially under every flag combination: deepcopy returns
        # the same object for atomic immutables, so the fast path is
        # exactly equivalent to _copy_payload + _payload_bytes.
        cls = result.__class__
        if result is None or cls is int or cls is float:
            copied = result
            size = 8
        elif cls is bytes:
            copied = result
            size = len(result)
        else:
            copied = _copy_payload(result)
            size = -1
        entry.nested.append(ReturnValueRecord(target, func, copied, error))
        if entry.alive:
            self._record_count += 1
            delta = 64 + (_payload_bytes(result) if size < 0 else size)
            self._space_bytes += delta
            entry._space += delta
            counts = self._edge_counts
            counts[target] = counts.get(target, 0) + 1
        self.total_retvals += 1
        return True

    def clear_nested(self, entry: CallLogEntry) -> None:
        """Drop an entry's recorded return values (retry-after-reboot
        repopulates them)."""
        if entry.alive and entry.nested:
            self._record_count -= len(entry.nested)
            delta = 0
            for record in entry.nested:
                delta += 64 + _payload_bytes(record.result)
            self._space_bytes -= delta
            entry._space -= delta
            self._edges_drop(entry.nested)
        entry.nested.clear()

    # --- queries -------------------------------------------------------------------

    @property
    def entries(self) -> List[CallLogEntry]:
        """The live entries, in append order (tombstones hidden)."""
        if self._dead:
            return [e for e in self._entries if e.alive]
        return list(self._entries)

    def __len__(self) -> int:
        return self._live_count

    def record_count(self) -> int:
        """Total records: call entries plus attached return values."""
        if not FLAGS.fast_paths:
            return sum(e.entry_count() for e in self.entries)
        return self._record_count

    def entries_for_key(self, key: Any) -> List[CallLogEntry]:
        if not FLAGS.fast_paths:
            return [e for e in self.entries if e.key == key]
        bucket = self._by_key.get(key)
        if not bucket:
            return []
        live = [e for e in bucket if e.alive and e.key == key]
        if len(live) != len(bucket):
            # lazily drop tombstones / rekeyed strays from the bucket
            if live:
                self._by_key[key] = list(live)
            else:
                del self._by_key[key]
        return live

    def live_keys(self) -> List[Any]:
        """Keys with at least one live entry, oldest key first."""
        return list(self._key_live)

    def call_edges(self) -> Dict[str, int]:
        """Outbound call edges of this component: callee name -> number
        of live return-value records targeting it.

        This is the recovery planner's raw dependency data ("this
        component's logged history calls into those components"), kept
        incrementally so reading it is O(edges), never O(log).
        """
        if not FLAGS.fast_paths:
            counts: Dict[str, int] = {}
            for entry in self.entries:
                for record in entry.nested:
                    counts[record.target] = counts.get(record.target, 0) + 1
            return counts
        return dict(self._edge_counts)

    def edge_targets(self) -> List[str]:
        """Components this log's live entries call into, sorted."""
        return sorted(self.call_edges())

    def has_multi_entry_key(self) -> bool:
        """O(1): does any key hold >= 2 live entries?  (This is the
        forced-shrink `_compactable` predicate.)"""
        return self._multi_keys > 0

    def space_bytes(self) -> int:
        """Approximate log memory footprint (for Fig. 7b accounting).

        Priced per record rather than via sys.getsizeof so the number
        is deterministic across Python builds: 64 bytes of header per
        record plus the payload bytes of any byte-string arguments and
        results.  Maintained incrementally; `recompute_space_bytes`
        walks the log and must always agree.
        """
        if not FLAGS.fast_paths:
            return self.recompute_space_bytes()
        return self._space_bytes

    def recompute_space_bytes(self) -> int:
        """Reference O(n) walk (tests assert it matches the counter)."""
        return sum(e.space_bytes() for e in self._entries if e.alive)

    # --- pruning primitives (used by the shrinker) -------------------------------------

    def remove_entries(self, doomed: List[CallLogEntry]) -> int:
        removed = 0
        for entry in doomed:
            if entry.alive and entry._log is self:
                self._unregister(entry)
                removed += 1
        self.total_pruned += removed
        if self._dead > self._COMPACT_FLOOR \
                and self._dead * 2 > len(self._entries):
            self._compact()
        return removed

    def complete(self, entry: CallLogEntry, result: Any) -> None:
        """Record a finished call: its result (see :meth:`set_result`)
        and the ``completed`` mark replay looks for."""
        self.set_result(entry, result)
        entry.completed = True

    def retire(self, entry: CallLogEntry, result: Any) -> None:
        """Complete ``entry`` and remove it at once (a state-neutral
        call).  The result is stored unpriced: the removal would only
        subtract its price again."""
        entry.result = result
        entry.completed = True
        self.drop(entry)

    def drop(self, entry: CallLogEntry) -> None:
        """``remove_entries([entry])`` for one entry, without the list
        (the dispatcher's per-call prunes)."""
        if entry.alive and entry._log is self:
            self._unregister(entry)
            self.total_pruned += 1
            if self._dead > self._COMPACT_FLOOR \
                    and self._dead * 2 > len(self._entries):
                self._compact()

    def replace_entries(self, doomed: List[CallLogEntry],
                        replacement: CallLogEntry,
                        at_entry: CallLogEntry) -> None:
        """Replace ``doomed`` with ``replacement`` at the position of
        ``at_entry`` (forced shrinking)."""
        index = next(i for i, e in enumerate(self._entries)
                     if e is at_entry)  # identity, not dataclass ==
        self._register(replacement, index=index)
        self.remove_entries(doomed)

    def make_synthetic(self, key: Any, patch: Any) -> CallLogEntry:
        entry = CallLogEntry(seq=next(self._seq), func="__setstate__",
                             args=(), kwargs={}, key=key, completed=True,
                             synthetic_patch=(key, copy.deepcopy(patch)))
        self.total_appended += 1
        return entry

    def clear(self) -> None:
        """Drop the logged history (fresh restart / live update).

        Entries still on the active stack survive: they describe calls
        that are mid-dispatch, whose paired push/pop bookkeeping the
        dispatcher still owns and whose retry executes against the new
        baseline — so they re-seed the emptied log instead of vanishing
        from the recovery history.
        """
        survivors = list(self._active)
        keep = {id(entry) for entry in survivors}
        for entry in self._entries:
            if id(entry) in keep:
                continue
            if entry.alive:
                entry.alive = False
            entry._log = None
        self._entries.clear()
        self._dead = 0
        self._by_key.clear()
        self._key_live.clear()
        self._multi_keys = 0
        self._live_count = 0
        self._record_count = 0
        self._space_bytes = 0
        self._edge_counts.clear()
        for entry in survivors:
            self._register(entry)

    # --- index + accounting internals -----------------------------------------------

    def _register(self, entry: CallLogEntry,
                  index: Optional[int] = None) -> None:
        entry.alive = True
        if index is None:
            self._entries.append(entry)
        else:
            self._entries.insert(index, entry)
        entry._log = self
        if entry.key is not None:
            self._index_add(entry.key, entry)
        self._live_count += 1
        self._record_count += entry.entry_count()
        space = entry.space_bytes()
        entry._space = space
        self._space_bytes += space
        if entry.nested:
            counts = self._edge_counts
            for record in entry.nested:
                counts[record.target] = counts.get(record.target, 0) + 1

    def _compact(self) -> None:
        """Drop the tombstones (amortised O(1) per prune)."""
        self._entries = [e for e in self._entries if e.alive]
        self._dead = 0

    def _unregister(self, entry: CallLogEntry) -> None:
        entry.alive = False
        self._dead += 1
        if entry.key is not None:
            self._index_drop(entry.key)
        self._live_count -= 1
        self._record_count -= entry.entry_count()
        # entry._space tracks every registered-lifetime mutation
        # (result assignment, nested retvals), so no payload re-walk
        self._space_bytes -= entry._space
        if entry.nested:
            self._edges_drop(entry.nested)

    def _edges_drop(self, records: List[ReturnValueRecord]) -> None:
        counts = self._edge_counts
        for record in records:
            remaining = counts.get(record.target, 0) - 1
            if remaining > 0:
                counts[record.target] = remaining
            else:
                counts.pop(record.target, None)

    def _index_add(self, key: Any, entry: CallLogEntry) -> None:
        self._by_key.setdefault(key, []).append(entry)
        count = self._key_live.get(key, 0) + 1
        self._key_live[key] = count
        if count == 2:
            self._multi_keys += 1

    def _index_drop(self, key: Any) -> None:
        count = self._key_live.get(key, 0) - 1
        if count <= 0:
            self._key_live.pop(key, None)
            self._by_key.pop(key, None)
        else:
            self._key_live[key] = count
        if count == 1:
            self._multi_keys -= 1

    def rekey(self, entry: CallLogEntry, new_key: Any) -> None:
        """Assign ``entry.key`` after append, re-indexing a live entry
        (the dispatcher's key_from_result path)."""
        old_key = entry.key
        if new_key == old_key:
            return
        entry.key = new_key
        if not entry.alive:
            return
        if old_key is not None:
            self._index_drop(old_key)
        if new_key is not None:
            self._index_add(new_key, entry)

    def set_result(self, entry: CallLogEntry, result: Any) -> None:
        """Assign ``entry.result`` after append, tracking a live
        entry's space delta (the dispatcher's completion path)."""
        old = entry.result
        entry.result = result
        if entry.alive:
            delta = _payload_bytes(result) - _payload_bytes(old)
            if delta:
                self._space_bytes += delta
                entry._space += delta


# --- payload helpers -------------------------------------------------------------

# The immutability check (`_is_immutable`) is shared with the snapshot
# store's state-blob fast path; the canonical implementation lives in
# repro.fastpath and is imported at the top of this module.


def _copy_payload(value: Any) -> Any:
    """The copy fast path: immutable payloads (None/bool/int/float/str/
    bytes and tuples thereof — the vast majority of logged syscall
    arguments) need no defensive copy; everything else deep-copies
    exactly as before.

    Repeated immutable argument tuples additionally share one
    canonical logged blob.  The blob key carries a recursive type
    fingerprint: ``(1,) == (True,)`` but they are distinguishable
    payloads, so equality alone must not let one stand in for the
    other.
    """
    if FLAGS.fast_paths:
        if _is_immutable(value):
            if type(value) is tuple and value:
                key = (value, type_fingerprint(value))
                canonical = _BLOBS.get(key)
                if canonical is not None:
                    return canonical
                if len(_BLOBS) >= HANDLE_CACHE_LIMIT:
                    _BLOBS.clear()
                _BLOBS[key] = value
            return value
        if type(value) is dict \
                and all(_is_immutable(v) for v in value.values()):
            # a flat dict of immutables needs only a fresh top-level
            # dict — mutation-safety matches the deep copy
            return dict(value)
    return copy.deepcopy(value)


def _copy_kwargs(kwargs: Dict[str, Any]) -> Dict[str, Any]:
    if not kwargs:
        return {}
    if FLAGS.fast_paths \
            and all(_is_immutable(v) for v in kwargs.values()):
        return dict(kwargs)
    return copy.deepcopy(kwargs)


def _payload_bytes(value: Any) -> int:
    """Log-space price of one payload.

    On the fast paths, str and immutable-tuple prices are answered
    from a content-keyed cache: the price depends only on content, and
    within the immutable family equal values always price identically
    (str only equals str; the scalar types whose equality crosses type
    boundaries all price at 8 and never reach the cache).

    Dispatches on the exact class first (every real payload is a
    built-in); subclasses take the original ``isinstance`` chain in
    :func:`_payload_bytes_slow` with identical pricing.
    """
    cls = value.__class__
    if cls is bytes:
        return len(value)
    if cls is str:
        # encoded byte length, not character count (a str payload costs
        # what its UTF-8 serialisation occupies)
        if not FLAGS.fast_paths:
            return len(value.encode("utf-8"))
        size = _LOG_BYTES.get(value)
        if size is None:
            size = len(value.encode("utf-8"))
            if len(_LOG_BYTES) >= HANDLE_CACHE_LIMIT:
                _LOG_BYTES.clear()
            _LOG_BYTES[value] = size
        return size
    if cls is tuple:
        if FLAGS.fast_paths and value:
            try:
                size = _LOG_BYTES.get(value)
            except TypeError:  # unhashable element: compute directly
                return sum(map(_payload_bytes, value))
            if size is None:
                size = sum(map(_payload_bytes, value))
                if _is_immutable(value):
                    if len(_LOG_BYTES) >= HANDLE_CACHE_LIMIT:
                        _LOG_BYTES.clear()
                    _LOG_BYTES[value] = size
            return size
        return sum(map(_payload_bytes, value))
    if cls is list:
        return sum(map(_payload_bytes, value))
    if cls is dict:
        return sum(map(_payload_bytes, value.values()))
    if value is None or cls is int or cls is float or cls is bool:
        return 8
    return _payload_bytes_slow(value)


def _payload_bytes_slow(value: Any) -> int:
    """Subclass / oddball pricing — the original ``isinstance`` chain."""
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (tuple, list)):
        return sum(map(_payload_bytes, value))
    if isinstance(value, dict):
        return sum(map(_payload_bytes, value.values()))
    return 8
