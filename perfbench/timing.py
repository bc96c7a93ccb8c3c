"""The benchmark's clock: CPU time, put at a fixed reference CPU speed.

Every duration is CPU time, not wall time: other tenants of a shared machine
delay a run without using its CPU. They also slow the CPU itself, though, by
sharing its cores and caches: on the 2-core machine the sizes were chosen
on, one beam-8 ``rop`` decoding of the short-forms test split took from
130 to 290 ms of CPU, in phases lasting several seconds. So each run also times a
fixed reference workload at regular points ("ticks": at most one per
``MIN_TICK_GAP_S`` of CPU time, offered at each training step, each
extracted document, each document the CLI decodes). It does a little of
each kind of work tokenpath does: a pure-Python loop, small numpy products,
a pass over a 2 MiB array, a JSON round trip, a small beam search and a walk
over scattered objects.

Every duration is read at one fixed speed, the one at which the reference
takes ``REFERENCE_TICK_S``: the CPU time from one tick to the next is scaled
by ``REFERENCE_TICK_S`` over the local tick time, the median of the nearest
``SMOOTH`` ticks. The scaled clock (``Meter.warp``) is monotone, so durations
on it still add up. Over a four-minute run of alternating extraction passes
and training steps, ten-second windows spread by 27-29% (interquartile
range over median) in CPU time and by 3-7% on this clock. A pure-Python loop
alone follows training as well, but decoding slows about 1.45 times as much
as it does, and much less of the spread goes. A change to tokenpath moves
its durations and not the ticks, so it shows in full. Ticks are not counted
in any duration.
"""
from __future__ import annotations

import bisect
import heapq
import json
import random
import statistics
import threading
import time

import numpy as np

# The fixed speed every figure is read at. On the machine the sizes were
# chosen on (a shared 2-vCPU Xeon virtual machine, Python 3.11) the median
# tick of a run was 1.9 to 3.6 ms, higher when two threads share the GIL.
REFERENCE_TICK_S = 1.5e-3
SMOOTH = 3
MIN_TICK_GAP_S = 0.03


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: float) -> None:
        self.x, self.y = x, y


_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((32, 64))
_WEIGHT = _rng.standard_normal((64, 64)) / 8
_GRID = _rng.standard_normal((30, 30))
_LARGE = np.ones(1 << 18)
_POINTS = [_Point(i, float(i)) for i in range(50_000)]
random.Random(0).shuffle(_POINTS)
_RECORD = {"words": [{"text": f"w{i}", "box": [i, i + 1.5, i + 2, i + 3.25], "id": i}
                     for i in range(60)]}


def _reference() -> float:
    """The work of one tick, a little of each kind tokenpath does."""
    total = 0.0
    for i in range(1000):  # the interpreter
        total += i * i
    for _ in range(4):  # small numpy products, as in scoring
        h = np.tanh(_SMALL @ _WEIGHT)
        s = h @ h.T
        total += float(np.exp(s - s.max(axis=1, keepdims=True)).sum())
    np.multiply(_LARGE, 1.0, out=_LARGE)  # one pass over 2 MiB
    total += float(_LARGE.sum())
    total += len(json.loads(json.dumps(_RECORD))["words"])  # record IO
    beams = [(0.0, (0,))]  # a beam search over a score grid, as in decoding
    for _ in range(6):
        candidates = []
        for score, path in beams:
            row = _GRID[path[-1]]
            for j in np.argsort(-row)[:6].tolist():
                if j not in path:
                    candidates.append((score + float(row[j]), path + (j,)))
        beams = heapq.nlargest(6, candidates)
    total += beams[0][0]
    for point in _POINTS[:5000]:  # objects scattered over a few MiB
        total += point.y
    return total


class Meter:
    """Clock and speed ticks of one run."""

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float]] = []  # (clock at the tick, tick seconds)
        self._spent = 0.0  # tick CPU seconds on every thread
        self._lock = threading.Lock()
        self._local = threading.local()
        self._knots: tuple[list[float], list[float], list[float]] | None = None
        self._last_tick = -MIN_TICK_GAP_S

    def _raw(self) -> float:
        if threading.current_thread() is threading.main_thread():
            return time.process_time() - self._spent
        return time.thread_time() - getattr(self._local, "spent", 0.0)

    def clock(self) -> float:
        """CPU seconds without ticks: of the whole process on the main thread
        (so a call that waits for worker threads is charged their work), of
        the calling thread on any other."""
        with self._lock:
            return self._raw()

    def tick(self) -> None:
        """Time the reference, unless the last tick is under
        ``MIN_TICK_GAP_S`` ago."""
        # Stamped on the process clock from any thread, the timeline that
        # main-thread readings, and so every reported duration, are on.
        with self._lock:
            at = time.process_time() - self._spent
            if at - self._last_tick < MIN_TICK_GAP_S:
                return
            self._last_tick = at
        t0 = time.thread_time()
        _reference()
        seconds = time.thread_time() - t0
        with self._lock:
            self._spent += seconds
            self._local.spent = getattr(self._local, "spent", 0.0) + seconds
            if seconds > 0:  # a CPU clock can stall for a tick under load
                self.ticks.append((at, seconds))
            self._knots = None

    def _build(self) -> tuple[list[float], list[float], list[float]]:
        """Tick times, the scale from each to the next, and the scaled clock
        at each tick."""
        ordered = sorted(self.ticks)
        at = [a for a, _ in ordered]
        seconds = [s for _, s in ordered]
        half = SMOOTH // 2
        scale = [REFERENCE_TICK_S / statistics.median(seconds[max(0, j - half):j + half + 1])
                 for j in range(len(seconds))]
        warped = [at[0] * scale[0]]
        for j in range(1, len(at)):
            warped.append(warped[-1] + (at[j] - at[j - 1]) * scale[j - 1])
        return at, scale, warped

    def warp(self, t: float) -> float:
        """A clock reading on the reference-speed clock; unscaled without
        ticks. Read it once the ticks that matter are in: each scale looks
        at ticks on both sides."""
        with self._lock:
            if not self.ticks:
                return t
            if self._knots is None:
                self._knots = self._build()
            at, scale, warped = self._knots
        k = max(0, bisect.bisect_right(at, t) - 1)
        return warped[k] + (t - at[k]) * scale[k]

    def seconds(self, start: float, end: float) -> float:
        """Reference-speed seconds between two clock readings."""
        return self.warp(end) - self.warp(start)
