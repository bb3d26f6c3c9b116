"""Machine-speed calibration of the verdict benchmark.

A machine shared with other work runs the same exact-arithmetic code up to
about 1.6 times faster or slower for seconds to minutes at a time, so raw
verdict times of two runs a few minutes apart are not comparable.  Between
verdicts the timed loop therefore times a fixed calibration workload:
Fraction arithmetic, tuples, a dict and a sort from the standard library,
which groupcut does not call, timed with the garbage collector paused so
that it does not pay for the verdicts' garbage.  Each verdict time is
divided by the mean of the calibrations just before and just after it and
multiplied by REFERENCE_S, a round 30 ms: about the calibration's time on
the baseline machine of predictions.json when that machine runs fastest.
The gated end-to-end times then read in seconds of that machine at that
speed; the raw wall times are printed on the '#' lines.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction as F
from time import perf_counter

REFERENCE_S = 0.030     # calibration_seconds() on the baseline machine, fastest
CALIBRATE_EVERY = 0.3   # seconds of verdicts between two calibrations
WARMUP = 3              # untimed calibrations before the first one counted


def calibration_seconds(n: int = 2000) -> float:
    """Time one run of the fixed calibration workload."""
    paused = gc.isenabled()
    gc.disable()
    t = perf_counter()
    x, seen, points = F(0), {}, []
    for i in range(1, n):
        y = F(i % 97 + 1, i % 89 + 2)
        x = x + y * y - F(1, i)
        if x > 10:
            x -= 10
        points.append((y, x))
        seen[y] = seen.get(y, 0) + 1
    points.sort()
    seconds = perf_counter() - t
    if paused:
        gc.enable()
    return seconds


class Speedometer:
    """Scales wall times to the baseline machine's speed (REFERENCE_S).

    `record` holds a raw time until the next calibration, which runs once
    at least CALIBRATE_EVERY seconds have passed since the last one; the
    scaled time is then appended to the list the caller gave.  `flush`
    calibrates once more so that no recorded time is left pending."""

    def __init__(self):
        for _ in range(WARMUP):
            calibration_seconds()
        self.calibrations: list[float] = []
        self.pending: list[tuple[list, float]] = []
        self._calibrate()

    def _calibrate(self):
        now = calibration_seconds()
        before = self.calibrations[-1] if self.calibrations else now
        scale = REFERENCE_S / ((before + now) / 2)
        for scaled, raw in self.pending:
            scaled.append(raw * scale)
        self.pending.clear()
        self.calibrations.append(now)
        self.last = perf_counter()

    def record(self, scaled: list, raw: float):
        self.pending.append((scaled, raw))
        if perf_counter() - self.last >= CALIBRATE_EVERY:
            self._calibrate()

    def flush(self):
        if self.pending:
            self._calibrate()

    def note(self) -> str:
        c = self.calibrations
        return (f"calibration: {len(c)} samples, median "
                f"{statistics.median(c) * 1e3:.3f} ms (reference "
                f"{REFERENCE_S * 1e3:.3f} ms), min {min(c) * 1e3:.3f} ms, "
                f"max {max(c) * 1e3:.3f} ms")
