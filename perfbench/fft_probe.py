"""Median wall time of one ``operators.rfft3`` call on a 96^3 float64 array.

    PYTHONPATH=src python3 perfbench/fft_probe.py

Prints ``{"ms": ...}``.  The FFT worker count is the program's own choice:
``VORTEXLINK_THREADS`` when set, else ``os.cpu_count()``.  run.py runs this
once with ``VORTEXLINK_THREADS=1`` (the plain single-threaded baseline) and
once with the default.
"""

import json
import statistics
import time

import numpy as np

from vortexlink.operators import rfft3

CALLS = 40

a = np.random.default_rng(0).standard_normal((96, 96, 96))
for _ in range(3):
    rfft3(a)
times = []
for _ in range(CALLS):
    t0 = time.perf_counter()
    rfft3(a)
    times.append(time.perf_counter() - t0)
print(json.dumps({"ms": statistics.median(times) * 1e3}))
