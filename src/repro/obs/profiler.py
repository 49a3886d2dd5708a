"""Virtual-time profiler output.

``Simulation.charge`` notifies the flight recorder of every cost-model
charge; the recorder counts it against the stack of open spans, one
integer bump per ``(span path, mechanism, amount)``.  The profile is
derived from those counts on read (:func:`profile_from_tally`): a
``folded-stack -> [virtual µs, charge count]`` ledger whose folded
stack is the span path plus the charged mechanism as the leaf frame,
and whose µs total is the exact sum of its charges, rounded once.
Counts add exactly, so shard merges cannot depend on their order.
This module also turns that ledger into the two standard downstream
formats:

* :func:`folded_lines` — Brendan Gregg folded-stack text, one
  ``frame;frame;... value`` line per stack, directly consumable by
  ``flamegraph.pl`` and speedscope's "folded" importer.  Values are
  integer virtual **nanoseconds** (folded readers want integers;
  nanoseconds keep sub-µs costs like 0.05 µs function calls visible).
* :func:`profile_table` — rows for ``repro top``: per-stack totals with
  share-of-total, sorted heaviest first.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Sequence, Tuple


def exact_total(terms: Iterable[Tuple[float, int]]) -> float:
    """``Σ amount·n`` over ``(amount, n)`` terms, computed exactly and
    rounded once to the nearest float.

    A finite float is an integer over a power of two
    (``float.as_integer_ratio``), so the sum is one integer over the
    largest of those powers, and ``int / int`` rounds correctly (an
    exact sum past the float range rounds to an infinity).  A
    non-finite amount gives what float addition gives: infinities and
    NaNs absorb every finite term, and opposite infinities make NaN.
    """
    num = 0
    shift = 0          # log2 of the common denominator
    special = None     # float sum of the non-finite amounts
    for amount, n in terms:
        if not math.isfinite(amount):
            special = amount if special is None else special + amount
            continue
        p, q = amount.as_integer_ratio()
        k = q.bit_length() - 1
        if k > shift:
            num <<= k - shift
            shift = k
        num += (p * n) << (shift - k)
    try:
        total = num / (1 << shift)
    except OverflowError:
        total = math.copysign(math.inf, num)
    return total if special is None else total + special


def profile_from_tally(tally: Dict[Tuple[str, str, float], int]
                       ) -> Dict[str, List[Any]]:
    """The ``folded-stack -> [virtual µs, charge count]`` profile of a
    charge tally keyed ``(span path, category, amount)``.

    ``count`` is the number of charges under the stack and ``us`` their
    :func:`exact_total`, so the result does not depend on the order the
    charges (or shard tallies) were counted in.
    """
    groups: Dict[str, List[Tuple[float, int]]] = {}
    for (path, category, amount), n in tally.items():
        key = (path + ";" + category) if path else category
        terms = groups.get(key)
        if terms is None:
            groups[key] = terms = []
        terms.append((amount, n))
    return {key: [exact_total(terms), sum(n for _, n in terms)]
            for key, terms in groups.items()}


def folded_lines(profile: Dict[str, Sequence[float]]) -> List[str]:
    """Render the profile as folded-stack lines (integer virtual ns)."""
    lines = []
    for key in sorted(profile):
        ns = int(round(profile[key][0] * 1000))
        lines.append(f"{key} {ns}")
    return lines


def profile_table(profile: Dict[str, Sequence[float]],
                  limit: int = 0) -> List[Tuple[str, float, int, float]]:
    """``(stack, total_us, charges, share)`` rows, heaviest first.

    Ties break on the stack string so the table is deterministic.
    """
    total = sum(v[0] for v in profile.values()) or 1.0
    rows = [(key, float(value[0]), int(value[1]), float(value[0]) / total)
            for key, value in profile.items()]
    rows.sort(key=lambda row: (-row[1], row[0]))
    if limit > 0:
        rows = rows[:limit]
    return rows


def leaf_totals(profile: Dict[str, Sequence[float]]) -> Dict[str, float]:
    """Virtual µs per leaf frame (the charged cost-model mechanism),
    summed over every stack it appears under."""
    totals: Dict[str, float] = {}
    for key, value in profile.items():
        leaf = key.rsplit(";", 1)[-1]
        totals[leaf] = totals.get(leaf, 0.0) + value[0]
    return totals
