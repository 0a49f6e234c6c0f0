import tracemalloc

import numpy as np
import pytest

from vortexlink.grid import Grid3
from vortexlink.reports import StageTimer


@pytest.fixture(scope="session")
def grid32():
    return Grid3(32, 2 * np.pi)


@pytest.fixture(scope="session")
def grid48():
    return Grid3(48, 2 * np.pi)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260809)


# -- lifetimes, in units of one (3, N, N, N) float64 field -------------------
# shared by the lifetime tests of the co-momentum suites and the Massey stages

def _fields(nbytes, grid):
    return nbytes / (3 * grid.n_points**3 * 8)


class _LiveTimer(StageTimer):
    """A stage timer that also records the traced bytes still allocated when
    each stage stops."""

    def __init__(self):
        super().__init__()
        self.live = {}

    def stop(self):
        self.live[self._name] = tracemalloc.get_traced_memory()[0]
        super().stop()


def _traced(run):
    """Run `run()` under tracemalloc: its value, the traced bytes at the
    start and the traced peak."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return value, base, peak
