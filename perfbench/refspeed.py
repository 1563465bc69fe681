"""Machine speed sampled during a pass, to rescale its time to a reference speed.

On a shared host the same pass runs up to 1.5x slower when neighbours are
busy, in phases of seconds to minutes, so raw wall times of runs a few
minutes apart spread by more than the changes the benchmark should show.
While a pass runs, a SIGALRM timer interrupts it every INTERVAL_S and runs
two calibration rounds, timing the second (the first brings the round's
code and data back into cache): a fixed mix of mpmath, Fraction and dict work, the
kinds of work zetaform's own time goes to, using none of zetaform's code.
(Of the mixes tried, this one tracked the workloads best: rescaled pass
times of five runs within 1.5%, raw ones within 16%.)
Each stretch of the pass between two rounds is rescaled by
REF_ROUND_S / (the round time measured at its end, median of three), which
gives the time the stretch would take on a machine where a round takes
REF_ROUND_S; about this machine's speed when it is not slowed down
(2-vCPU x86-64 VM: rounds of 0.27-0.30 ms when quiet, 0.5 ms typical).
The rounds' own time, both rounds, is taken out of the pass time.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

import mpmath

INTERVAL_S = 0.04  # two rounds of about 0.5 ms every 40 ms: about 2.5% of a pass
REF_ROUND_S = 3.0e-4


def calibration_round() -> None:
    # a harmonic-type sum in 30-digit floats with integer powers, as the
    # oracle computes, then Fraction sums and dict updates, as the engine does
    with mpmath.workdps(30):
        zz = mpmath.mpf(-1) / 3
        h = total = mpmath.mpf(0)
        for n in range(1, 13):
            h += (n + zz) ** -2
            total += h * h / (n + 1 + zz) ** 2
    f = Fraction(1, 3)
    for i in range(1, 40):
        f += Fraction(1, i)
    d: dict = {}
    for i in range(250):
        d[(i, i % 7)] = d.get((i % 5, i), 0) + i


def round_time(rounds: int = 20) -> float:
    """Median time of a few back-to-back rounds (the first one warms up)."""
    calibration_round()
    times = []
    for _ in range(rounds):
        t = time.perf_counter()
        calibration_round()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class Sampler:
    """Times one calibration round every INTERVAL_S while active."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (tick start, tick end, round time)
        self.start = self.end = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        calibration_round()  # untimed
        t = time.perf_counter()
        calibration_round()
        end = time.perf_counter()
        self.samples.append((start, end, end - t))

    def __enter__(self):
        calibration_round()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # shorter than INTERVAL_S: time one round after it
            self._tick(None, None)
        self._stretches = self.stretches()
        return False

    def stretches(self) -> list[tuple[float, float, float]]:
        """(start, end, scale) of each stretch of pass work between rounds."""
        times = [c for _, _, c in self.samples]
        smooth = [statistics.median(times[max(0, i - 1):i + 2]) for i in range(len(times))]
        out, prev = [], self.start
        for (start, end, _), m in zip(self.samples, smooth):
            out.append((prev, start, REF_ROUND_S / m))
            prev = end
        out.append((prev, self.end, REF_ROUND_S / smooth[-1]))
        return out

    def rescale(self, a: float, b: float) -> tuple[float, float]:
        """(work seconds, reference seconds) of the pass between a and b."""
        work = ref = 0.0
        for s, e, scale in self._stretches:
            overlap = min(b, e) - max(a, s)
            if overlap > 0:
                work += overlap
                ref += overlap * scale
        return work, ref

    def summary(self) -> dict:
        times = [c for _, _, c in self.samples]
        return {
            "rounds": len(times),
            "round_median_s": statistics.median(times) if times else None,
            "round_min_s": min(times) if times else None,
        }
