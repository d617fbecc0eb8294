"""The machine's speed, sampled while the benchmark works.

The speed of the machine the figures come from moves by up to 1.6x in phases
that last from seconds to minutes (README, "Speed phases of the machine").
While sampling, a SIGALRM handler runs a fixed kernel every ``INTERVAL_S``
seconds of wall time, during set-up, march and post-processing alike, and
records how long it took.  The kernel mixes the two kinds of work the
workloads do, interpreted Python and compiled dense linear algebra, in about
equal time: the interpreter and the compiled code do not slow down by the
same share in every phase.  `now()` is
`time.perf_counter()` minus the time spent in the handler, so the samples add
nothing to the times measured with it.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.linalg

KERNEL_ADDS = 50_000
KERNEL_LU = 5
_KERNEL_MATRIX = np.add.outer(np.arange(200.0), np.arange(200.0)) % 7 + 200.0 * np.eye(200)
REF_S = 0.0055           # the kernel's time at the reference speed
INTERVAL_S = 0.1

_paused = 0.0
_samples: list[float] = []


def now() -> float:
    """A clock that stops while a speed sample runs."""
    return time.perf_counter() - _paused


def kernel_s() -> float:
    """Time of one run of the fixed kernel."""
    t0 = time.perf_counter()
    s = 0
    for i in range(KERNEL_ADDS):
        s += i
    for _ in range(KERNEL_LU):
        scipy.linalg.lu_factor(_KERNEL_MATRIX)
    return time.perf_counter() - t0


def _sample(signum=None, frame=None) -> None:
    global _paused
    t0 = time.perf_counter()
    _samples.append(kernel_s())
    _paused += time.perf_counter() - t0


def start() -> None:
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)


def take() -> float:
    """The mean speed since the last call, relative to the reference.

    A time measured over the same span, multiplied by it, is the time at the
    reference speed.
    """
    if not _samples:
        _sample()
    samples = _samples[:]
    del _samples[:len(samples)]
    return REF_S / statistics.fmean(samples)
