"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed a process gets drifts by tens of percent
within seconds.  Every timed call is therefore bracketed by a fixed
calibration kernel, and its time is scaled by REFERENCE_S over the mean of
the kernel's two times: a call that took 1.2 s while the kernel ran at half
the reference speed is reported as 0.6 reference seconds.  The kernel mixes
float arithmetic with float formatting, which tracked the aoijam calls
better than arithmetic alone.

This module imports only `time`, so a fresh interpreter can use it without
loading anything `aoijam.cli` would import.
"""

import time

REFERENCE_S = 0.004  # the kernel's time on the baseline machine


def calibration_s() -> float:
    """Time of one run of the fixed calibration kernel."""
    start = time.perf_counter()
    age = 1.0
    for _ in range(65_000):
        age = age * 0.75 + 1.0
    ",".join([repr(x * 1.1) for x in range(3000)])
    return time.perf_counter() - start


def speed(before: float, after: float) -> float:
    """Factor that turns seconds into reference seconds, from the kernel's
    times just before and just after the timed work."""
    return REFERENCE_S * 2 / (before + after)
