import tracemalloc

import numpy as np
import pytest

from vortexlink.curves import Link, PolygonalCurve, TubeParams
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


# -- a diagram-only link, shared by the oracle and tube suites -----------------

def borromean_venn(eps=0.25, n_samples=132, tube_radius=0.1) -> Link:
    """Borromean rings drawn the classical way: three overlapping circles in
    the Venn arrangement, lifted by frequency-3 height oscillations whose
    phases realize the cyclic over/under pattern.  A vertical projection is
    the minimal 6-crossing diagram (each pair crossing twice with opposite
    signs); the phases below were solved from the crossing positions.

    Only its diagram is used: no field-building command accepts this link.
    Its components come within 0.064 of each other, so any tube that
    resolves on a shipped grid (r >= 3h, 0.196 at N = 96, L = 2 pi) overlaps
    its neighbours, and it reaches |y| = 1.580 > L/4 = 1.571 at L = 2 pi,
    outside the central half-box that tubes.validate_scene requires."""
    d, R = 0.58, 1.0
    phases = (np.pi / 3, 5 * np.pi / 6, 5 * np.pi / 6)
    comps = []
    for i, phi in enumerate(phases):
        th = np.pi / 2 + 2 * np.pi * i / 3
        center = d * np.array([np.cos(th), np.sin(th), 0.0])
        t = 2 * np.pi * (np.arange(n_samples) + 0.29) / n_samples
        verts = np.stack(
            [
                center[0] + R * np.cos(t),
                center[1] + R * np.sin(t),
                eps * np.cos(3 * t + phi),
            ],
            axis=1,
        )
        comps.append(PolygonalCurve(verts))
    return Link(comps, TubeParams(tube_radius))
