"""Host-speed probe: a fixed snippet of Python timed every 50 ms of wall time.

On a shared host the benchmark's vCPU does not run at one speed. While a
neighbour keeps the sibling hyperthread busy, every instruction takes
longer: on a 2-vCPU KVM guest (Intel Xeon) the simulator's calls ran
1.5-2x slower for stretches of tens of milliseconds to minutes, with no
steal time and no run-queue wait inside the guest to show it. How much of
a 40-second run falls in such stretches changes with the host's load from
one minute to the next, and wall time with it.

The probe runs the same small snippet (a thousand method calls, attribute
reads and `random.Random` draws, about 0.1 ms at full speed: the kind of
interpreter work the slot engine is made of) from a SIGALRM handler every
50 ms of wall time, in the benchmark's own thread, so each sample is the
snippet's time at that moment on the vCPU the simulator is using, and

    rescaled(call) = (call time - probe time inside it)
                     * mean over its samples of (REFERENCE_S / sample)

estimates the call's time on a host where the snippet takes REFERENCE_S:
samples are evenly spaced in wall time, so the mean of REFERENCE_S/sample
is the call's speed relative to that host. REFERENCE_S is the snippet's
time on an uncontended vCPU of the guest above, so there the rescaled time
is the uncontended time. It is a constant, not the run's fastest sample,
because some runs never see an uncontended moment. The rescaling is as
good as the snippet's slowdown matches the simulator's; see
crbench/README.md for how closely it did.

The handler runs only between bytecodes, so during a long native call
(a large matrix product) its samples wait until the call returns.
"""

from __future__ import annotations

import random
import signal
import time

INTERVAL_S = 0.05
# the snippet's time at full speed on the 2-vCPU Xeon guest: the fastest
# samples of 40-second runs there read 0.100-0.147 ms, most 0.100-0.125 ms
REFERENCE_S = 1.0e-4


class _Affine:
    __slots__ = ("gain", "offset")

    def __init__(self):
        self.gain, self.offset = 1.0, 2.0

    def apply(self, x: float) -> float:
        return self.gain * x + self.offset


class SpeedProbe:
    """Context manager: samples the snippet's time while it is entered."""

    def __init__(self):
        self.samples: list = []  # seconds per run of the snippet, in order
        self._affine = _Affine()
        self._rng = random.Random(0)  # its own generator: no shared state touched
        self._previous = None

    def _snippet(self, signum, frame) -> None:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(1000):
            acc += self._affine.apply(self._rng.random())
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._snippet)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> int:
        """Index of the next sample; two marks bracket a timed call."""
        return len(self.samples)


def rescale(seconds: float, samples) -> float:
    """A call's time at the reference speed (see module docstring).

    A call that no sample fell inside is returned as measured.
    """
    if not samples:
        return seconds
    speed = sum(REFERENCE_S / s for s in samples) / len(samples)
    return (seconds - sum(samples)) * speed
