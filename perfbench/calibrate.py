"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to a factor of two, in stretches of seconds, as other tenants come and
go.  To keep that drift out of the reported times, a Clock runs a small
fixed pure-Python kernel every PERIOD_S seconds of a timed call, from a
SIGALRM handler in the timed thread itself, so the kernel sees the same
machine states as the call, interleaved with it.  The call's time, less
the kernel's, is then scaled by REFERENCE_S over the kernel's mean time:
it reads as it would on a machine where one kernel call takes REFERENCE_S.
The mean, not the median, matches the call, which also sums over states.

The kernel mimics the library's hot loops -- a sparse product of maps
keyed by exponent tuples whose coefficients are small slotted objects
holding dicts, plus counting into a tuple-keyed dict -- so that contention
slows it as it slows the library.  It imports nothing from the library,
so a change to the library never changes the kernel.  Do not change the
kernel, its inputs, PERIOD_S or REFERENCE_S: that would change the unit of
every reported time.
"""
from __future__ import annotations

import gc
import signal
import time

# Seconds one kernel call is scaled to; about its mean on a 2-core shared
# 2.0 GHz Xeon virtual machine (Python 3.11.7).
REFERENCE_S = 0.0015
# Seconds between kernel calls during a timed call: about a tenth of the
# timed time goes to the kernel.
PERIOD_S = 0.01


class _Coeff:
    """A Laurent polynomial in one variable, as a dict degree -> int."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __add__(self, other):
        c = dict(self.c)
        for d, n in other.c.items():
            m = c.get(d, 0) + n
            if m:
                c[d] = m
            else:
                c.pop(d, None)
        return _Coeff(c)

    def __mul__(self, other):
        c = {}
        for d1, n1 in self.c.items():
            for d2, n2 in other.c.items():
                c[d1 + d2] = c.get(d1 + d2, 0) + n1 * n2
        return _Coeff({d: n for d, n in c.items() if n})


def _operand(n_terms, rank, seed):
    """A fixed sparse map with n_terms keys in range(7)**rank.  Drawn from
    a linear congruential generator rather than the random module, which
    a set-up child would otherwise import before its timing starts."""
    out, x = {}, seed
    while len(out) < n_terms:
        draws = []
        for _ in range(rank + 4):
            x = (1103515245 * x + 12345) % 2**31
            draws.append(x >> 16)
        a, b, c, d = draws[rank:]
        out[tuple(r % 7 for r in draws[:rank])] = _Coeff(
            {a % 5 - 2: 1 - 2 * (b % 2), c % 5 - 2: 1 - 2 * (d % 2)})
    return out


_LEFT = _operand(30, 5, 1)
_RIGHT = _operand(12, 5, 2)


def kernel():
    """One fixed unit of work; returns the sizes of its results."""
    product = {}
    for ka, ca in _LEFT.items():
        for kb, cb in _RIGHT.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            if sum(k) > 30:
                continue
            prev = product.get(k)
            product[k] = ca * cb if prev is None else prev + ca * cb
    counts = {}
    for i in range(700):
        k = (i % 211, i % 97)
        counts[k] = counts.get(k, 0) + i
    return len(product), len(counts)


def _kernel_time():
    # With the collector off, the kernel's short-lived allocations cannot
    # trigger a collection, so the timed call's collections, and with them
    # its peak memory, happen as they would without the kernel.
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    kernel()
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


class Clock:
    """Times one call with the kernel interleaved: start(), the call,
    stop().  Uses SIGALRM, so only one Clock may run at a time, in the
    main thread."""

    def start(self):
        # One sample before the call, so that even a call shorter than
        # PERIOD_S has a kernel time to be scaled by.
        self._before = _kernel_time()
        self._during = []
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _tick(self, signum, frame):
        self._during.append(_kernel_time())

    def stop(self):
        """(seconds as measured, seconds at the reference speed) of the
        call; the first includes the kernel calls, the second does not."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._old)
        samples = [self._before, *self._during]
        mean = sum(samples) / len(samples)
        return wall, (wall - sum(self._during)) * REFERENCE_S / mean
