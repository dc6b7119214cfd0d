"""Shared fixtures for the test suite.

Heavy artifacts (the Niagara platform, a coarse Phase-1 table) are
session-scoped; tests that need speed use a small 3-core row platform.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core import ProTempOptimizer, build_frequency_table
from repro.floorplan import core_row
from repro.platform import Platform
from repro.units import mhz

settings.register_profile("ci", max_examples=25, deadline=None)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def niagara() -> Platform:
    """The paper's calibrated Niagara-8 platform."""
    return Platform.niagara8()


@pytest.fixture(scope="session")
def small_platform() -> Platform:
    """A fast 3-core row platform for control/simulation tests."""
    return Platform.from_floorplan(core_row(3), name="row3")


@pytest.fixture(scope="session")
def small_optimizer(small_platform) -> ProTempOptimizer:
    """Variable-mode optimizer on the small platform, thinned steps."""
    return ProTempOptimizer(small_platform, step_subsample=10)


@pytest.fixture(scope="session")
def coarse_table(niagara):
    """A coarse Phase-1 table on the Niagara platform (fast to build)."""
    optimizer = ProTempOptimizer(niagara, step_subsample=10)
    t_grid = [70.0, 85.0, 95.0, 100.0]
    f_grid = [mhz(f) for f in (200, 400, 600, 800, 1000)]
    return build_frequency_table(optimizer, t_grid, f_grid)


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded RNG for reproducible randomized tests."""
    return np.random.default_rng(12345)
