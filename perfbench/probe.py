"""Host-speed probe worker for ``common.HostProbe``.

For every line on standard input, time two fixed numpy kernels and
print the geometric mean of their milliseconds:

- a gather, sort and sum over 16 MiB arrays (memory bound);
- 400 rounds of small ``unique``/``searchsorted`` calls on 2000
  elements (call overhead bound, like the program's per-batch work).

Neither alone follows the program's speed as the host's load changes;
their mean does (see README.md).  It exits when standard input closes.
"""

import sys
import time

import numpy as np

rng = np.random.default_rng(20231017)
data = rng.integers(0, 1 << 40, size=1 << 21)
index = rng.integers(0, 1 << 21, size=1 << 21)
small = np.arange(2000)


def big_ms() -> float:
    t0 = time.perf_counter()
    g = data[index]
    np.sort(g)
    int((g & 1023).sum())
    return (time.perf_counter() - t0) * 1e3


def small_ms() -> float:
    t0 = time.perf_counter()
    for _ in range(400):
        np.searchsorted(np.unique(small[::-1] % 97), 5)
    return (time.perf_counter() - t0) * 1e3


for _ in sys.stdin:
    sys.stdout.write(f"{(big_ms() * small_ms()) ** 0.5}\n")
    sys.stdout.flush()
