"""Timing on a shared machine: the program's time, corrected for the machine's load.

On a host shared with other tenants, their load slows a single thread of
this benchmark by up to 2x, in phases that last from a second to several
minutes -- longer than a run.  No statistic over one run's own timings
can filter a phase that covers the whole run.  So while a timed block
runs, a timer interrupts it every ``INTERVAL_S`` to time a fixed *probe*
(a little interpreter and small-array numpy work, the mix the workloads
spend their time on).  A probe runs its kernel twice and times the
second run, so that what the program left in the caches barely moves it.
The block's time is cut at the probes into stretches of program time;
each stretch is scaled by how much slower the probes around it ran than
the probe's quiet-machine time ``REFERENCE_S``.  The sum is the block's
*reference seconds*: the time the block would take on the quiet machine.
The probes' own time is not part of it.

Every stretch counts in full, so a change to any part of the program
moves the result by that part's share of the time.  The probe is not part
of the program; a change to the program moves it only through what it
leaves in the caches.  The correction is not exact: load that slows the
program more, or less, than the probe stays in part in the result (see
``README.md``).
"""

from __future__ import annotations

import signal
import time

import numpy as np

clock = time.perf_counter

#: Seconds between probes while a block is timed.
INTERVAL_S = 0.02
#: Probes on each side of a stretch whose median is the stretch's local
#: probe time.
WINDOW = 5
#: The probe's median time (its timed kernel run) on the reference machine
#: (2 vCPUs of a shared Xeon host under KVM, Python 3.11, numpy 2.4) in a
#: quiet phase.  It only sets the scale of reference seconds.
REFERENCE_S = 1.5e-4

_MATRIX = np.full((16, 16), 1.0 / 16.0)


def probe_kernel() -> float:
    """The fixed work a probe times."""
    acc, b = 0.0, _MATRIX
    for i in range(60):
        acc += i * 0.5
        b = np.tanh(b @ _MATRIX)
    return acc + float(b[0, 0])


_active = None


def _on_alarm(signum, frame):
    if _active is not None:
        _active.probe()


class Probes:
    """Context manager: probes the machine's speed while its block runs.

    Probes run once on entry, every ``INTERVAL_S`` of wall time (at the
    next bytecode boundary of the main thread) and once on exit.
    """

    def __init__(self) -> None:
        self.starts: list = []  # when each probe began and ended
        self.ends: list = []
        self.times: list = []  # each probe's timed kernel run
        self._busy = False

    def probe(self) -> None:
        if self._busy:  # a timer signal during a probe
            return
        self._busy = True
        start = clock()
        probe_kernel()  # warm-up
        timed = clock()
        probe_kernel()
        end = clock()
        self.starts.append(start)
        self.ends.append(end)
        self.times.append(end - timed)
        self._busy = False

    def __enter__(self) -> "Probes":
        global _active
        if signal.getsignal(signal.SIGALRM) is not _on_alarm:
            signal.signal(signal.SIGALRM, _on_alarm)
        self.probe()
        _active = self
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        global _active
        # The handler stays installed: a signal already pending when the
        # timer stops finds no active probes and does nothing.
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        _active = None
        self.probe()

    def stretches(self) -> np.ndarray:
        """Program time between consecutive probes, in wall seconds."""
        return np.asarray(self.starts[1:]) - np.asarray(self.ends[:-1])

    def program_s(self) -> float:
        """The block's wall time less the probes' time."""
        return float(self.stretches().sum())

    def reference_s(self) -> float:
        """The block's program time at the quiet machine's speed."""
        stretches = self.stretches()
        local = np.array([np.median(self.times[max(0, i - WINDOW):i + WINDOW + 2])
                          for i in range(len(stretches))])
        return float(np.sum(stretches * (REFERENCE_S / local)))

    def within(self, starts, ends) -> np.ndarray:
        """Probe seconds inside each interval ``[starts[k], ends[k]]``.

        A probe runs whole between two bytecodes, so it lies wholly inside
        or wholly outside any interval stamped by the program's own code.
        """
        total = np.concatenate(([0.0], np.cumsum(np.asarray(self.ends) - np.asarray(self.starts))))
        first = np.searchsorted(self.starts, starts, side="left")
        last = np.searchsorted(self.ends, ends, side="right")
        return total[np.maximum(last, first)] - total[first]
