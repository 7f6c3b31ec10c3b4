"""CPU-speed calibration: timings quoted at a fixed reference speed.

This module imports nothing heavy, so a set-up probe can calibrate before it
imports the program.
"""

from time import perf_counter

#: Iterations of the fixed pure-Python calibration loop.
CALIBRATION_ITERATIONS = 200_000
#: Seconds the calibration loop takes on the reference CPU; scaled times are
#: quoted at that speed.
REFERENCE_CALIBRATION_S = 0.020
#: Least wall time between two calibration loops.
CALIBRATION_INTERVAL_S = 0.5


def scale_factor(before_s: float, after_s: float) -> float:
    """Reference speed over the speed two calibration loops measured."""
    return REFERENCE_CALIBRATION_S / ((before_s + after_s) / 2)


def calibration_loop() -> float:
    """Seconds one fixed pure-Python loop takes right now."""
    start = perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i
    return perf_counter() - start


class SpeedClock:
    """Scales wall time to the reference CPU speed.

    On a shared machine the CPU speed available to one process drifts by up
    to 2x over seconds, and the calibration loop slows by about the same
    factor as the compiler does.  So timed work is bracketed by calibration
    loops and multiplied by ``REFERENCE_CALIBRATION_S`` over the mean of the
    two.  A change to the program moves scaled and raw times alike; only the
    machine's drift is divided out.  The loop is run at most every
    ``CALIBRATION_INTERVAL_S``, because a job that starts right after it runs
    cold: a 0.3 ms compile then takes 0.6 ms.
    """

    def __init__(self):
        self.samples = [calibration_loop()]
        self._last = perf_counter()

    def due(self) -> bool:
        return perf_counter() - self._last >= CALIBRATION_INTERVAL_S

    def scale(self) -> float:
        """Reference speed over the speed since the previous call."""
        self.samples.append(calibration_loop())
        self._last = perf_counter()
        return scale_factor(self.samples[-2], self.samples[-1])
