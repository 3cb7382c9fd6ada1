"""A fixed piece of interpreter work that measures how fast the machine runs now.

On a shared host the CPU's speed drifts by up to 2x, in phases from a fraction
of a second to minutes, and the same operation's wall time drifts with it.
The benchmark times ``reference()`` just before and just after each group of
operations and reports each operation's time scaled by ``NOMINAL_NS`` over the
mean of the two: its wall time at the speed at which the reference takes
``NOMINAL_NS``.  The drift moves both timings alike, so it cancels in the
ratio; a change to fcx moves only the operation.

``ScaledClock`` does the same for a stretch of work that is not split into
operations, such as a set-up: it times the reference at laps the work marks.

The work is of the kinds fcx does: bit tests and shifts on integers of a few
hundred bits (as in ``gf2`` and the column reduction), splitting lines and
parsing integers into a dict (as in ``io.parse``), and a small-integer loop
over a list and a dict.  It imports nothing from fcx, so no change to the
program can change it.
"""

from __future__ import annotations

import gc
import time

# The reference's median time on the machine of the README's figures, so that
# scaled times read close to that machine's wall times.
NOMINAL_NS = 8_500_000

_WIDTH = 300
_ROWS = [((i * 0x9E3779B97F4A7C15) ^ (i << 61)) & ((1 << _WIDTH) - 1) for i in range(96)]
_LINES = [f"gen g{i} {i % 17 - 8}" for i in range(300)]


def _bits_and_parse() -> int:
    acc = 0
    for r in range(0, _WIDTH, 3):
        row = 0
        for j, bits in enumerate(_ROWS):
            row |= ((bits >> r) & 1) << j
        acc ^= row
    index: dict[str, tuple[int, int]] = {}
    for line in _LINES:
        _kw, uid, degree = line.split()
        index[uid] = (int(degree), len(index))
    return acc ^ sum(v[0] for v in index.values())


def _small_ints() -> int:
    s = 0
    table: dict[int, int] = {}
    cells = [0] * 1024
    for i in range(10_000):
        s ^= (i * 2654435761) & 0xFFFF
        table[i & 1023] = s
        cells[i & 1023] ^= s >> 3
    return s


def reference() -> int:
    acc = 0
    for _ in range(4):
        acc ^= _bits_and_parse()
    return acc ^ _small_ints()


def time_reference() -> int:
    """Wall time of one ``reference()`` in ns, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        reference()
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


def scale(before_ns: int, after_ns: int) -> float:
    """The factor that turns a wall time into one at the reference speed,
    given the reference timings just before and just after it."""
    return NOMINAL_NS / ((before_ns + after_ns) / 2)


class ScaledClock:
    """Wall time at the reference speed, summed over laps.

    The reference is timed at the start, at each ``lap()`` that comes at
    least ``every_ns`` after the last timing, and at ``stop()``; the time it
    takes is left out, and each stretch between two timings is scaled by them.
    """

    def __init__(self, every_ns: int) -> None:
        self.every_ns = every_ns
        self.total_ns = 0.0
        self.wall_ns = 0
        self._before = time_reference()
        self._start = time.perf_counter_ns()

    def lap(self, force: bool = False) -> None:
        elapsed = time.perf_counter_ns() - self._start
        if elapsed < self.every_ns and not force:
            return
        after = time_reference()
        self.wall_ns += elapsed
        self.total_ns += elapsed * scale(self._before, after)
        self._before = after
        self._start = time.perf_counter_ns()

    def stop(self) -> float:
        """Ends the last stretch; returns the total in seconds."""
        self.lap(force=True)
        return self.total_ns / 1e9

    @property
    def factor(self) -> float:
        """The overall scale, total over wall time, once stopped."""
        return self.total_ns / self.wall_ns if self.wall_ns else 1.0
