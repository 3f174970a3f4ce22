"""Machine-speed calibration: fixed work that never calls the program.

On a shared VM the same work runs up to 1.8x faster for spells of seconds to
minutes while other tenants idle, and a 30-second run can fall wholly inside
one.  CPU time does not remove that, and no estimator within a run can tell
it from a change to the program.  So before each pass the benchmark times a
fixed kernel and scales the pass's CPU seconds by REFERENCE_S / (kernel
time): every end-to-end timing is in seconds of the reference machine state,
the one in which the kernel takes REFERENCE_S.  The reference values are the
kernels' usual in-run CPU times in `grid` and `wide` on the machine the
baselines were taken on (see README.md).  The kernels use only Python and
numpy, so no change to the program can move them.

There are two kernels, because the spells speed up pure-Python work about
three times as much as numpy work on arrays of megabytes:

- `python`: dict updates and int-to-str conversions, for the interpreter-bound
  per-gate dispatch of `grid` and for set-up;
- `numpy`: a gather and elementwise passes over a 2^16-entry complex128
  array (1 MB), for the path-sum and statevector kernels of `wide` and
  `dense`.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 3


def _python_work() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(50_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
        total += len(str(i))
    return total


def _numpy_work() -> np.ndarray:
    # 1 MB arrays, made afresh and dropped: larger ones would raise the
    # peak RSS of `wide`, which this process also reports.  An odd
    # multiplier modulo 2^16 permutes the indices.
    n = 1 << 16
    for _ in range(8):
        index = (np.arange(n) * 40503) & (n - 1)
        state = index * (1 + 1j)
        state = state[index]
        state = np.where(np.abs(state) > n / 2, state, -state)
    return state


KERNELS = {"python": _python_work, "numpy": _numpy_work}
REFERENCE_S = {"python": 0.020, "numpy": 0.013}


def scale(kind: str) -> float:
    """Reference seconds per CPU second now: the median of REPEATS kernel runs."""
    times = []
    for _ in range(REPEATS):
        t0 = time.process_time()
        KERNELS[kind]()
        times.append(time.process_time() - t0)
    return REFERENCE_S[kind] / statistics.median(times)
