"""Full-speed seconds: wall time corrected for a CPU that other tenants slow.

On a shared host each vCPU runs at full speed or markedly slower, when another
tenant's work competes for the same physical core, its caches or its memory
bus.  The state switches about every second, independently on each vCPU, and
for tens of seconds at a time most moments can be slow.  Process CPU time
slows with wall time, so the loss does not show as stolen time.  A wall time
taken over seconds carries whatever share of slow moments it met: on the
reference machine the same 960-epoch night took 19 s and 30 s within twenty
minutes, and the same train-120 unit 3.2 s and 5.6 s within one.

While a ``Probe`` is on, a timer signal interrupts the process every
``period`` seconds and runs a fixed kernel of the benchmark's own NumPy code,
timed in thread CPU time so that waiting for a core does not count.  Each
kernel has a fixed full-speed time, its fastest time seen in place on the
reference machine (a 2-vCPU Intel Xeon VM), rounded up, and a sample's ratio
full-speed time / own time is the CPU's speed share at that moment.  A fixed
time, rather than the fastest one of each run, keeps the scale from moving
with the number and luck of a run's samples; on another machine it makes
full-speed seconds relative to that reference.  ``seconds(t0, t1)`` is the
wall time of the interval minus the probe's own
time, scaled by the mean speed share of the samples taken inside it: the time
the interval would have taken at full speed.

The correction holds for code that slows like the kernel, so each workload
takes the kernel that resembles its hot loop: ``BROADCAST`` is sample
entropy's pairwise template comparison over megabyte-sized temporaries, which
is how feature extraction spends most of its time, and ``SMALL_CALLS`` is a
loop of small-matrix calls like the BLSTM's recurrence.  With the other
kernel, corrected night-960 units spread as much as their wall times do.

Forked processes do not inherit the timer.  For work done in worker
processes, ``hand_over_to_forks`` stops the probe in this process, whose
vCPU the workers share and whose kernel they would slow, and starts it in
every process forked afterwards; each appends its samples to a file that
``stop`` reads back.  ``perf_counter`` is the system's monotonic clock, so
the samples of all processes share one time line.
"""
from __future__ import annotations

import os
import signal
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

_rng = np.random.default_rng(0)
_A = 0.3 * _rng.standard_normal((16, 16))
_X = _rng.standard_normal(16)
_TEMPLATES = np.lib.stride_tricks.sliding_window_view(_rng.standard_normal(252), 3)


def _small_calls() -> None:
    x = _X
    for _ in range(200):
        x = np.tanh(_A @ x)


def _broadcast() -> None:
    diff = np.abs(_TEMPLATES[:, None, :] - _TEMPLATES[None, :, :]).max(axis=2)
    np.count_nonzero(diff <= 0.2)


@dataclass(frozen=True)
class Kernel:
    run: Callable[[], None]
    full_speed: float  # CPU seconds of one run at full speed
    period: float  # seconds between samples; keeps the probe near 1% of the time


SMALL_CALLS = Kernel(_small_calls, 0.3e-3, 0.05)
BROADCAST = Kernel(_broadcast, 4.5e-3, 0.5)


class Probe:
    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.samples: list = []  # (wall start, wall duration, CPU duration)
        self._running = False
        self._previous = None
        self._spill_dir = None  # where forked processes write their samples
        self._spill = None      # this forked process's sample file

    def _sample(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.thread_time()
        self.kernel.run()
        sample = (t0, time.perf_counter() - t0, time.thread_time() - c0)
        self.samples.append(sample)
        if self._spill:
            self._spill.write("%r %r %r\n" % sample)

    def start(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.kernel.period, self.kernel.period)
        self._running = True
        return self

    def _timer_off(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._running = False

    def hand_over_to_forks(self, spill_dir: Path) -> None:
        self._timer_off()
        self._spill_dir = spill_dir
        os.register_at_fork(after_in_child=self._start_in_fork)

    def _start_in_fork(self) -> None:
        if self._spill_dir is not None and not self._spill:
            self.samples = []
            self._spill = open(self._spill_dir / f"probe-{os.getpid()}.txt", "a",
                               buffering=1)
            self.start()

    def stop(self) -> None:
        self._timer_off()
        if self._spill_dir is not None:
            for path in sorted(self._spill_dir.glob("probe-*.txt")):
                self.samples += [tuple(map(float, line.split()))
                                 for line in path.read_text().splitlines()
                                 if len(line.split()) == 3]
            self._spill_dir = None

    def seconds(self, t0: float, t1: float) -> float:
        """Full-speed seconds of the interval [t0, t1]; an interval too short
        to hold a sample takes the mean speed share of the whole run, and a
        run without samples counts as full speed."""
        if not self.samples:
            return t1 - t0
        inside = [s for s in self.samples if t0 <= s[0] < t1]
        share = statistics.fmean(self.kernel.full_speed / c
                                 for _, _, c in inside or self.samples)
        busy = sum(w for _, w, _ in inside)
        return (t1 - t0 - busy) * share
