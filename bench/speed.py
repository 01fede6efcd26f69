"""Machine-speed reference for the time metrics.

On the shared 2-vCPU virtual machine of bench/DESIGN.md the same CPU-bound
work runs in one of two speed states about 1.6x apart, switching many times
a second, in proportions that drift over minutes; whole runs of the same
work took 35 to 45 CPU seconds.  Raw times of two commits measured minutes
apart are therefore not comparable.  The measured child runs a small fixed
reference computation every REF_INTERVAL_S of wall time and before every
timed operation, and records when each sample started and how long it took.
Every stretch of time between two samples is then divided by the slowness
seen around it (reference time / REF_NOMINAL_S, averaged over WINDOW_S of
wall time on either side), which turns it into time
on a machine where the reference takes REF_NOMINAL_S; the samples' own time
is left out.  `nominal` does that for any interval of the child's CPU
clock.  Wall time is not scaled or reported: the program is single-threaded
and waits on nothing, so its wall time is its CPU time plus time the host
gave to other guests (2 to 7 s of a 45 s run, from one run to the next).

The periodic samples come from a wall-clock timer (SIGALRM), whose handler
also enforces the per-request deadline of the query loop.  A CPU-time timer
(ITIMER_PROF) is not used: arming one coarsened the process CPU clock to the
4 ms scheduler tick (Linux 6.18 guest); nor is a thread, which would share
the interpreter with the workload."""

from __future__ import annotations

import signal
import time

import numpy as np

REF_NOMINAL_S = 0.0008  # reference CPU time in the slow state of bench/DESIGN.md
REF_INTERVAL_S = 0.1
CLIP = 2.0  # a sample slower than CLIP x the run's median was interrupted
WINDOW_S = 1.0  # slowness is averaged over the samples this close in wall time

_A = (np.arange(40 * 40, dtype=np.int64).reshape(40, 40) * 7) % 5


def reference() -> int:
    """Fixed mixed work: integer arithmetic, tuples and dicts, a small
    integer matmul, as in the p-adic, group and finite-field layers."""
    acc = 0
    table: dict[tuple[int, int], int] = {}
    for i in range(1500):
        t = (i % 97, (i * i) % 89)
        table[t] = table.get(t, 0) + i
        acc = (acc * 31 + t[0] * t[1]) % 1000003
    return acc + int((_A @ _A % 5).sum()) + len(table)


class Deadline(Exception):
    pass


class Sampler:
    """Reference samples of one child, as [cpu start, wall start, cpu
    duration, wall duration] on the process CPU clock and the monotonic wall
    clock (time.perf_counter, shared by every process of the machine).  With
    `enabled` false the timer only enforces deadlines."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: list[list[float]] = []
        self.deadline: float | None = None

    def sample(self) -> None:
        if not self.enabled:
            return
        c0, w0 = time.process_time(), time.perf_counter()
        reference()
        dc, dw = time.process_time() - c0, time.perf_counter() - w0
        self.samples.append([c0, w0, dc, dw])

    def _tick(self, signum, frame) -> None:
        self.sample()
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self.deadline = None
            raise Deadline()

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def slowness(samples: list[list[float]]) -> np.ndarray:
    """Per sample, its reference CPU time over REF_NOMINAL_S, clipped at CLIP
    times the run's median so that an interrupted sample counts as slow, not
    as stalled."""
    ref = np.array([s[2] for s in samples])
    return np.minimum(ref, CLIP * np.median(ref)) / REF_NOMINAL_S


def smoothed(samples: list[list[float]]) -> np.ndarray:
    """Per sample, the mean slowness of the samples within WINDOW_S of it in
    wall time.  Successive samples 0.1 s apart are nearly uncorrelated
    (+-5%), while the level drifts over seconds."""
    k = slowness(samples)
    wall = np.array([s[1] for s in samples])
    csum = np.concatenate([[0.0], np.cumsum(k)])
    lo = np.searchsorted(wall, wall - WINDOW_S, side="left")
    hi = np.searchsorted(wall, wall + WINDOW_S, side="right")
    return (csum[hi] - csum[lo]) / (hi - lo)


def nominal(samples: list[list[float]], a: float, b: float) -> float:
    """Nominal-speed length of [a, b] on the child's CPU clock: each stretch
    between the end of one sample and the start of the next is divided by
    the mean smoothed slowness of the two, the stretches before the first
    and after the last sample by that sample's, and the samples' own time is
    left out."""
    k = smoothed(samples)
    starts = [s[0] for s in samples]
    ends = [s[0] + s[2] for s in samples]
    pieces = [(float("-inf"), starts[0], k[0])]
    pieces += [(ends[i], starts[i + 1], (k[i] + k[i + 1]) / 2)
               for i in range(len(samples) - 1)]
    pieces.append((ends[-1], float("inf"), k[-1]))
    return sum(max(0.0, min(b, hi) - max(a, lo)) / kk for lo, hi, kk in pieces)
