"""Shared fixtures for the figure-reproduction benchmarks.

Each ``bench_figNN_*.py`` regenerates one figure of the paper's evaluation
(section 5) and asserts its qualitative shape — who wins, by roughly what
factor — as catalogued in DESIGN.md and EXPERIMENTS.md.

The Phase-1 table is built once per pytest run by a
:class:`~repro.scenario.ScenarioRunner` and cached on disk under
``benchmarks/.cache/``.  Simulated durations can be scaled with the
``PROTEMP_BENCH_DURATION`` environment variable (seconds; default 40).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis.experiments import NIAGARA_SPEC, PROTEMP_SPEC
from repro.platform import Platform
from repro.scenario import ScenarioRunner

CACHE_DIR = Path(__file__).parent / ".cache"


def bench_duration(default: float = 40.0) -> float:
    """Simulated seconds for trace-driven benchmarks."""
    return float(os.environ.get("PROTEMP_BENCH_DURATION", default))


@pytest.fixture(scope="session")
def platform() -> Platform:
    """The paper's Niagara-8 evaluation platform."""
    return Platform.niagara8()


@pytest.fixture(scope="session")
def table(platform):
    """The default Phase-1 table (disk-cached across benchmark runs)."""
    runner = ScenarioRunner(table_cache_dir=CACHE_DIR)
    runner.prime_platform(NIAGARA_SPEC, platform)
    return runner.table(NIAGARA_SPEC, PROTEMP_SPEC)[0]


RESULTS_DIR = Path(__file__).parent / "results"


def print_header(figure: str, paper_claim: str) -> None:
    """Uniform banner so benchmark logs read like EXPERIMENTS.md."""
    print()
    print("=" * 72)
    print(f"{figure} — paper: {paper_claim}")
    print("=" * 72)


def save_result(slug: str, text: str) -> None:
    """Persist a figure's measured series to ``benchmarks/results/``.

    pytest captures stdout, so the printed series are also written to disk
    for EXPERIMENTS.md and post-run inspection.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{slug}.txt").write_text(text.rstrip() + "\n")
