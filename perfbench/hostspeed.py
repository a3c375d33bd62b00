"""Host speed: the time of a fixed pure-Python loop, and timings scaled by it.

The shared 2-core hosts this benchmark runs on change speed by 20-40% over
seconds to minutes (a loop of 300,000 iterations took anywhere from 23 to
54 ms between runs, with thread CPU time tracking wall time, so the cause is
the host, not scheduling).  Longer runs do not average that out.  So the
benchmark times the loop throughout the work it measures and reports each
time scaled to a reference host on which the loop takes ``REF_S``.  The
unscaled times are printed in the stamp.

Only the standard library is used, so that set-up can be timed from the
first import of the library on.
"""

from __future__ import annotations

import signal
import time

LOOP_N = 20_000
# loop time of the reference host; close to this host's typical value, so
# scaled times read about as measured here
REF_S = 0.002
REPEATS = 5
SAMPLE_EVERY_S = 0.2


def _loop() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP_N):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def loop_s() -> float:
    """Median time of ``REPEATS`` runs of the loop: the host's speed now."""
    return sorted(_loop() for _ in range(REPEATS))[REPEATS // 2]


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between ``loop_s`` samples ``before`` and
    ``after``, as they would read on the reference host."""
    return seconds * REF_S / (0.5 * (before + after))


class Sampler:
    """Times the loop every ``SAMPLE_EVERY_S`` while it is entered.

    The samples are taken by a SIGALRM handler, which Python runs in the
    main thread between bytecodes, so the host's speed is known throughout
    an operation of any length without starting a thread.  ``busy`` counts
    the seconds spent in the handler, so that callers can take them out of
    the operations it interrupted (about 1% of their time).
    """

    def __init__(self):
        self.times: list[float] = []
        self.loops: list[float] = []
        self.busy = 0.0
        self._old_handler = None

    def _sample(self, *_) -> None:
        t = time.perf_counter()
        loop = _loop()
        self.times.append(t)
        self.loops.append(loop)
        self.busy += loop

    def __enter__(self) -> Sampler:
        self._sample()
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def scaled(self, seconds: float, t0: float, t1: float) -> float:
        """``seconds`` of work done between ``t0`` and ``t1``, as they would
        read on the reference host: scaled by the mean loop time of the
        samples taken in between, or of the last one before when there are
        none."""
        inside = [s for t, s in zip(self.times, self.loops) if t0 <= t <= t1]
        if not inside:
            inside = [s for t, s in zip(self.times, self.loops) if t <= t1][-1:]
        return seconds * REF_S * len(inside) / sum(inside)
