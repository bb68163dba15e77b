"""The co-measured reference loops: how fast is this host *right now*?

The sizing host's speed wanders by tens of percent within seconds, so no
statistic taken from wall-clock times alone repeats within a tenth.  It
wanders in two independent ways: the core's clock jumps between states a
fifth apart (everything cache-resident follows it, NumPy and interpreter
alike), and the memory side drifts with whatever else the machine is
doing.  So there are two fixed loops, and a *reading* is one time of
each:

- the **memory loop** has the memory behaviour of the kernel's lane
  path — ``np.take`` of 131,072 ids from an (8, 20000) table into an
  (8, 32768) buffer, ``np.clip``, ``np.add.reduceat``;
- the **compute loop** stays in the first-level cache — sort, prefix sum
  and binary search over 4,096 floats.

Neither imports anything from ``repro``: a change to the library cannot
move them.  Every timed interval is paired with readings taken right
beside it — one between consecutive requests of a closed loop, a few
around each set-up cycle and each group of open-loop arrivals — and
:func:`at_reference` converts it to what it would have been at the speed
the loops ran at when the baseline was recorded (``reference`` in
``baseline.json``).

``ref1`` is the loops in the calling process.  ``ref2`` is the loops in
two helper processes at once, reading the slower: the exposure of the
pooled workload is "both cores busy", which ``ref1`` does not see.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

_N_ROWS, _TABLE_WIDTH = 8, 20_000
_N_IDS, _BLOCK = 131_072, 32_768
_SMALL, _COMPUTE_REPS = 4_096, 14


def load_reference() -> dict:
    """``reference`` of ``baseline.json``: per workload and phase (and
    for the layer probes) the loops' readings on the host that recorded
    the baseline and the share of the phase that follows the compute
    loop."""
    path = Path(__file__).resolve().parent / "baseline.json"
    return json.loads(path.read_text(encoding="utf-8"))["reference"]


def at_reference(values_ms, readings, phase: dict, timer_ms: float = 0.0):
    """Timings as they would read at the baseline's speed.

    ``readings`` holds one ``(compute_ms, memory_ms)`` pair per value.
    ``phase`` holds the pair the baseline recorded and ``compute_share``:
    the share of the phase's time that follows the compute loop, the
    rest following the memory loop (``run.py --baseline`` fits it).
    ``timer_ms`` of every value is a timer, not work: left unscaled.
    """
    values = np.asarray(values_ms, dtype=float)
    compute, memory = np.asarray(readings, dtype=float).T
    share = phase["compute_share"]
    slowdown = (share * compute / phase["compute_ms"]
                + (1.0 - share) * memory / phase["memory_ms"])
    return timer_ms + np.maximum(values - timer_ms, 0.0) / slowdown


class RefLoop:
    """The fixed arrays of both loops (deterministic; no seed argument)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20120612)
        self.table = rng.random((_N_ROWS, _TABLE_WIDTH)) * 1e6
        self.ids = rng.integers(0, _TABLE_WIDTH, size=_N_IDS)
        self.buf = np.empty((_N_ROWS, _BLOCK))
        self.starts = np.arange(0, _BLOCK, 256)
        self.small = rng.random(_SMALL)

    def memory_iteration(self) -> None:
        for start in range(0, _N_IDS, _BLOCK):
            ids = self.ids[start:start + _BLOCK]
            for row in range(_N_ROWS):
                np.take(self.table[row], ids, out=self.buf[row])
            np.clip(self.buf, 2e5, 8e5, out=self.buf)
            np.add.reduceat(self.buf, self.starts, axis=1)

    def compute_iteration(self) -> None:
        for _ in range(_COMPUTE_REPS):
            ordered = np.sort(self.small)
            np.cumsum(ordered, out=ordered)
            np.searchsorted(ordered, self.small)

    def reading(self, iterations: int = 1) -> tuple[float, float]:
        """``(compute_ms, memory_ms)``: the median time of ``iterations``
        iterations of each loop."""
        out = []
        for loop in (self.compute_iteration, self.memory_iteration):
            times = []
            for _ in range(iterations):
                t0 = time.perf_counter()
                loop()
                times.append(time.perf_counter() - t0)
            out.append(statistics.median(times) * 1e3)
        return out[0], out[1]


class Ref2Helpers:
    """Two helper processes that each take a reading on command.

    Started once per round (their start-up overlaps the round's own
    imports) and idle — blocked on a pipe — between readings, so they
    do not compete with the requests.
    """

    def __init__(self) -> None:
        self._procs = [
            subprocess.Popen(
                [sys.executable, __file__], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True, bufsize=1,
            )
            for _ in range(2)
        ]

    def reading(self, iterations: int = 1) -> tuple[float, float]:
        for p in self._procs:
            p.stdin.write(f"{iterations}\n")
            p.stdin.flush()
        pairs = [json.loads(p.stdout.readline()) for p in self._procs]
        return max(c for c, _ in pairs), max(m for _, m in pairs)

    def close(self) -> None:
        for p in self._procs:
            p.stdin.close()
        for p in self._procs:
            p.wait(timeout=30)
            p.stdout.close()


def _helper_main() -> None:
    loop = RefLoop()
    loop.reading()
    for line in sys.stdin:
        print(json.dumps(loop.reading(int(line))), flush=True)


if __name__ == "__main__":
    _helper_main()
