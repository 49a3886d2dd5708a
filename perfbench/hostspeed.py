"""Host-speed calibration, interleaved with the measured work.

The shared hosts this benchmark runs on drift between speed regimes
about 1.5x apart, each lasting from seconds to minutes.  A pure-Python
loop slows down with the program.  So the benchmark runs a fixed kernel
every ``EVERY_S`` seconds between steps.  Every host-time metric is
scaled by the kernel's rate in the same stretch of time, relative to
``REFERENCE_RATE``.  The result reads as host time on a host that runs
the kernel ``REFERENCE_RATE`` times per second.

The kernel allocates no object the GC tracks.  The program's GC work
therefore never lands in a calibration sample, and calibrating never
brings a collection forward.
"""

from __future__ import annotations

from time import perf_counter
from typing import List

#: kernel runs per second on the reference host (a typical reading on
#: a 2-vCPU Xeon KVM guest, Python 3.11)
REFERENCE_RATE = 800.0
#: host seconds of measured work between two calibration samples
EVERY_S = 0.02
#: kernel runs in one set-up calibration burst (about 20 ms)
SETUP_RUNS = 15


class _Node:
    __slots__ = ("next", "key", "weight")


def _build(size: int = 4096, keys: int = 509) -> List[_Node]:
    nodes = [_Node() for _ in range(size)]
    for i, node in enumerate(nodes):
        node.next = nodes[(i * 1031 + 7) % size]
        node.key = f"k{i % keys}"
        node.weight = i % 97
    return nodes


_NODES = _build()
_INDEX = {f"k{i}": i for i in range(509)}


def _weigh(node: _Node, index: dict) -> int:
    return index[node.key] + node.weight


def kernel(steps: int = 6000) -> int:
    """Pointer chasing, dict lookups and calls: the interpreter work
    the program does, without allocating tracked objects."""
    node, index, acc = _NODES[0], _INDEX, 0
    for _ in range(steps):
        acc = (acc + _weigh(node, index)) & 0xFFFFF
        node = node.next
    return acc


def timed_runs(runs: int) -> float:
    """Run the kernel ``runs`` times; returns the host seconds taken."""
    start = perf_counter()
    for _ in range(runs):
        kernel()
    return perf_counter() - start


def factor(runs: int, seconds: float) -> float:
    """Host speed relative to the reference: a host-time figure times
    this factor is the figure at the reference speed."""
    return runs / seconds / REFERENCE_RATE
