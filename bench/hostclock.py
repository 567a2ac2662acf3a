"""Host speed, measured while the benchmark runs.

On a shared 2-vCPU VM the host's speed drifts by up to 1.5x within seconds:
the same pass of ops, repeated in one process, took 7.3 to 11.4 s.  So a
wall time says as much about the host as about the program.  `HostClock`
runs a fixed chunk of stdlib arithmetic (`chunk`), which uses nothing of the
program, from an interval timer while the ops run (`SIGALRM`, handled in the
one thread between bytecodes).  An op's time is then its wall time less the
chunks that ran inside it, scaled by `REF_CHUNK_S` over the mean chunk time
within `WINDOW_S` of the op: seconds at the host speed at which one chunk
takes `REF_CHUNK_S`.  On that VM, pass times so scaled spread 5% (IQR over
median) where their wall times spread 10% on small-batch and 27% on qubits4;
the chunk time and the op time moved together with correlation 0.95 and
0.98.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

# one chunk every PERIOD_S of wall time; a chunk takes about 4.5 ms, and
# chunks took 6-8% of a run
PERIOD_S = 0.05
# chunks this close to an op set its host speed
WINDOW_S = 0.5
# the mean chunk time on a 2-vCPU VM (Python 3.11.7) at its usual speed, so
# that scaled times read about as wall times did there
REF_CHUNK_S = 0.0045


def chunk() -> None:
    """Fixed work in the style of the program: exact Gauss-Jordan elimination
    of a 9 x 10 matrix of small random fractions."""
    rng = random.Random(7)
    n = 9
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
         for _ in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]


def timed_chunks(count: int) -> list[float]:
    """Seconds of each of `count` chunks run back to back."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        chunk()
        out.append(time.perf_counter() - t0)
    return out


class HostClock:
    """Chunks run from an interval timer, and op times scaled by them."""

    def __init__(self):
        self.chunks: list[tuple[float, float]] = []  # (start, end) of each
        self.running = False
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a chunk that overran the period is not nested
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            chunk()
            self.chunks.append((t0, time.perf_counter()))
        finally:
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.running = True

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.running = False

    @contextmanager
    def paused(self):
        """No chunks inside the block, e.g. while a child process is timed."""
        was_running = self.running
        if was_running:
            self.stop()
        try:
            yield
        finally:
            if was_running:
                self.start()

    def mean_chunk(self, t0: float, t1: float) -> float:
        """Mean chunk time within `WINDOW_S` of [t0, t1], or over all chunks
        when none ran that close."""
        near = [b - a for a, b in self.chunks if t0 - WINDOW_S <= a and b <= t1 + WINDOW_S]
        return statistics.fmean(near or [b - a for a, b in self.chunks])

    def scaled(self, t0: float, t1: float) -> float:
        """The op that ran from t0 to t1, in seconds at the reference speed."""
        inside = sum(b - a for a, b in self.chunks if t0 <= a and b <= t1)
        return (t1 - t0 - inside) * REF_CHUNK_S / self.mean_chunk(t0, t1)
