"""Interpreter-speed calibration for timings taken on a shared, noisy machine.

The same fixed pure-Python work can take twice as long in one process as
in the next on a small shared box (neighbours on the sibling hardware
thread, host frequency changes).  A benchmark that reports raw wall time
then measures the box more than the program.  So the measuring process
interleaves short calibration probes with its operations, and every
timing is scaled by ``REFERENCE_S / recent probe time``: the result reads
as milliseconds on an interpreter running at the reference speed.  A
program change moves the scaled time; a slower box moves the probe too
and cancels out.  Raw times are kept next to the scaled ones in the
result files.
"""

from __future__ import annotations

import re
from statistics import median
from time import thread_time

#: Probe time of an unloaded run on the reference box (2 vCPU, CPython 3.11).
REFERENCE_S = 0.0008
#: Probes a scale factor is taken from: about a second of operations on each side.
WINDOW = 21

_WORDS = re.compile(r"<(/?)([a-z]+)>")
_TEXT = "".join(f"<item{index % 7}><name>n{index}</name></item{index % 7}>" for index in range(40))


class _Node:
    __slots__ = ("name", "children")

    def __init__(self, name: str):
        self.name = name
        self.children: list = []

    def add(self, child: "_Node") -> "_Node":
        self.children.append(child)
        return child


def probe() -> float:
    """CPU seconds one fixed slice of interpreter work takes right now.

    A mix of what the library spends its time on: dict probes and
    updates, tuple and list building, method calls on small objects, a
    regular-expression scan and string slicing and joining.  Thread CPU
    time, so the probe measures how fast the interpreter runs, not how
    long the thread waited for a CPU.
    """
    start = thread_time()
    table: dict[int, int] = {}
    items = []
    for index in range(1500):
        key = index % 61
        table[key] = table.get(key, 0) + index
        items.append((key, index))
    root = _Node("root")
    for index in range(300):
        root.add(_Node(_TEXT[index % 50 : index % 50 + 5])).add(_Node("leaf"))
    for _ in range(3):
        tags = [match.group(2) for match in _WORDS.finditer(_TEXT)]
    "".join(tags)
    sorted(items[:300])
    return thread_time() - start


class Speed:
    """Calibration probes taken during a run, and scale factors from them."""

    def __init__(self):
        self.history: list[float] = []

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            self.history.append(probe())

    def factor(self) -> float:
        """Scale factor from the most recent ``WINDOW`` probes."""
        return REFERENCE_S / median(self.history[-WINDOW:])

    def centred(self, index: int) -> float:
        """Scale factor for work done right after probe *index*, from probes on both sides."""
        low = max(0, index - WINDOW // 2)
        return REFERENCE_S / median(self.history[low : low + WINDOW])
