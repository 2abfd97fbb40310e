"""Machine-speed calibration for the benchmark's time metrics.

On a shared machine the speed of one core drifts by up to about 50% over
minutes, which swamps a change of a few percent in whole-run time. The
drift moves interpreted Python, NumPy kernels and interpreter start-up
alike, so a fixed kernel that uses no lagmove code, timed just before and
just after every run (and every set-up probe), measures the speed that run
got. Time metrics are reported as wall seconds scaled to the speed at
which the kernel takes ``REFERENCE_SECONDS``; the raw wall seconds are
printed and written beside them. On a 2-core Xeon guest, scaling cut the
spread of run_s over ten invocations from about 20% to about 6%.

A change to lagmove cannot move the kernel, so every change in the
package shows in full in the scaled times.
"""
import statistics
import time

import numpy as np

# Median kernel time on a 2-core Intel Xeon (KVM guest), Python 3.11,
# NumPy 2.4, in a quiet period.
REFERENCE_SECONDS = 0.016
SAMPLES = 3

_rng = np.random.default_rng(0)
_GRAD = _rng.standard_normal((20000, 2, 2))
_VEC = _rng.standard_normal((20000, 2))
_MAT = np.array([[3.0, 0.5], [0.25, 2.0]])


def _kernel() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(100000):             # interpreter speed
        acc += i * i
    for _ in range(20):                 # vectorised NumPy over a large batch
        np.einsum("...ij,...j->...i", _GRAD, _VEC)
    for _ in range(600):                # NumPy call overhead on tiny arrays
        np.linalg.solve(_MAT, _VEC[:2].T)
    return time.perf_counter() - t0


def sample() -> list[float]:
    return [_kernel() for _ in range(SAMPLES)]


def scale(samples: list[float]) -> float:
    """Factor that turns wall seconds measured at this speed into reference seconds."""
    return REFERENCE_SECONDS / statistics.median(samples)
