"""Tests for the gen2 sweep (cross-row warm starts, sparse constraint
pruning with a certified polish, warm barrier schedules) and its agreement
with the cold per-cell solver."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import ProTempOptimizer, build_frequency_table
from repro.errors import TableError
from repro.units import mhz

#: gen2 on the Niagara-8 4x10 grid (70-100 C x 100-1000 MHz,
#: step_subsample 5).  Pins gen2's numbers: a refactor of the sweep or
#: the solver must reproduce them.
GOLDEN_GEN2 = Path(__file__).parent / "data" / "gen2_niagara8_roadmap_grid.json"

T_GRID = [70.0, 85.0, 95.0]
F_GRID = [mhz(200), mhz(500), mhz(800), mhz(1000)]


@pytest.fixture(scope="module")
def cold_table(small_platform):
    return build_frequency_table(
        ProTempOptimizer(small_platform, step_subsample=10, accelerated=False),
        T_GRID,
        F_GRID,
        warm_start=False,
    )


def assert_matches_cold(cold, other, rtol=1e-9):
    """Identical feasibility; feasible frequencies within `rtol`."""
    assert np.array_equal(
        cold.feasibility_matrix(), other.feasibility_matrix()
    )
    for key, cold_entry in cold.entries.items():
        if not cold_entry.feasible:
            continue
        np.testing.assert_allclose(
            np.array(other.entries[key].frequencies),
            np.array(cold_entry.frequencies),
            rtol=rtol,
            err_msg=f"cell {key}",
        )


class TestStrategyValidation:
    def test_unknown_preset_rejected(self, small_platform):
        optimizer = ProTempOptimizer(small_platform, step_subsample=10)
        with pytest.raises(TableError, match="unknown sweep strategy"):
            build_frequency_table(
                optimizer, [85.0], [mhz(300)], strategy="turbo"
            )

    def test_unknown_preset_has_hint(self, small_platform):
        optimizer = ProTempOptimizer(small_platform, step_subsample=10)
        with pytest.raises(TableError, match="did you mean 'gen2'"):
            build_frequency_table(
                optimizer, [85.0], [mhz(300)], strategy="gen22"
            )

    def test_strategy_and_legacy_kwargs_conflict(self, small_platform):
        """Legacy flags must not be silently ignored next to a strategy."""
        optimizer = ProTempOptimizer(small_platform, step_subsample=10)
        with pytest.raises(TableError, match="not both"):
            build_frequency_table(
                optimizer,
                [85.0],
                [mhz(300)],
                strategy="gen2",
                warm_start=False,
            )

    def test_legacy_kwargs_map_to_strategy(self, small_platform):
        """The pre-strategy keyword API still works unchanged."""
        optimizer = ProTempOptimizer(small_platform, step_subsample=10)
        table = build_frequency_table(
            optimizer,
            [85.0],
            [mhz(300), mhz(700)],
            warm_start=False,
        )
        assert table.feasibility_matrix().shape == (1, 2)
        assert table.metadata["sweep_strategy"] == "cold"

    def test_bare_call_builds_gen2(self, small_platform):
        optimizer = ProTempOptimizer(small_platform, step_subsample=10)
        table = build_frequency_table(optimizer, [85.0], [mhz(300)])
        assert table.metadata["sweep_strategy"] == "gen2"


class TestGen2Agreement:
    def test_gen2_matches_cold(self, small_platform, cold_table):
        """Cross-row warm starts + pruning + warm schedules reproduce the
        cold per-cell solutions to 1e-9 relative."""
        gen2 = build_frequency_table(
            ProTempOptimizer(small_platform, step_subsample=10),
            T_GRID,
            F_GRID,
            strategy="gen2",
        )
        assert_matches_cold(cold_table, gen2)

    def test_pruned_solve_matches_plain(self, small_platform):
        """A pruned+polished warm solve equals the plain warm solve."""
        optimizer = ProTempOptimizer(small_platform, step_subsample=10)
        neighbor = optimizer.solve(80.0, mhz(500))
        assert neighbor.feasible
        plain = optimizer.solve(80.0, mhz(300), warm_from=neighbor)
        pruned = optimizer.solve(
            80.0, mhz(300), warm_from=neighbor, prune=True,
            warm_schedule=True,
        )
        assert pruned.feasible
        np.testing.assert_allclose(
            pruned.frequencies, plain.frequencies, rtol=1e-9
        )

    def test_cross_row_warm_start_from_hotter_row(self, small_platform):
        """A hotter row's optimum warm-starts the colder row's same
        column and yields the same answer as a cold solve."""
        optimizer = ProTempOptimizer(small_platform, step_subsample=10)
        hot = optimizer.solve(95.0, mhz(300))
        assert hot.feasible
        warm = optimizer.solve(70.0, mhz(300), warm_from=hot)
        cold = ProTempOptimizer(
            small_platform, step_subsample=10, accelerated=False
        ).solve(70.0, mhz(300))
        assert warm.feasible and cold.feasible
        np.testing.assert_allclose(
            warm.frequencies, cold.frequencies, rtol=1e-9
        )


class TestTightGradientCap:
    def test_gen2_survives_tight_t_grad_cap(self, small_platform):
        """Regression: with a t_grad_cap close to the optimal gradient the
        warm-start lift is capped, the start can sit inside the pruned
        stack's tightening band, and the sweep used to crash with an
        uncaught SolverError instead of falling back."""
        t_grid = [70.0, 95.0]
        f_grid = [mhz(200), mhz(400)]
        cold = build_frequency_table(
            ProTempOptimizer(
                small_platform,
                step_subsample=10,
                t_grad_cap=0.5,
                accelerated=False,
            ),
            t_grid,
            f_grid,
            warm_start=False,
        )
        table = build_frequency_table(
            ProTempOptimizer(small_platform, step_subsample=10, t_grad_cap=0.5),
            t_grid,
            f_grid,
            strategy="gen2",
        )
        assert_matches_cold(cold, table)


class TestPruningSoundness:
    def test_active_set_grows_and_sweep_stays_exact(self, small_platform):
        """After a gen2 sweep the prune state retains only a fraction of
        the stacked rows, and every cell still matches the cold solver."""
        optimizer = ProTempOptimizer(small_platform, step_subsample=10)
        gen2 = build_frequency_table(
            optimizer, T_GRID, F_GRID, strategy="gen2"
        )
        states = list(optimizer._prune_states.values())
        assert states, "pruned sweep never built a prune state"
        for state in states:
            assert state.thermal_seeded
            kept = int(state.mask.sum())
            assert 0 < kept < state.mask.size
        cold = build_frequency_table(
            ProTempOptimizer(
                small_platform, step_subsample=10, accelerated=False
            ),
            T_GRID,
            F_GRID,
            warm_start=False,
        )
        assert_matches_cold(cold, gen2)


class TestGen2Golden:
    def test_gen2_matches_golden_table(self, niagara):
        """gen2 on the ROADMAP grid reproduces the committed table:
        identical feasibility, frequencies within 1e-12 relative.  (A raw
        byte hash would break on a different BLAS.)"""
        golden = json.loads(GOLDEN_GEN2.read_text())
        table = build_frequency_table(
            ProTempOptimizer(niagara, step_subsample=5),
            golden["t_grid"],
            golden["f_grid"],
            strategy="gen2",
        )
        assert table.metadata == golden["metadata"]
        assert len(table.entries) == len(golden["entries"])
        for item in golden["entries"]:
            entry = table.entries[(item["ti"], item["fi"])]
            assert entry.feasible == item["feasible"], (item["ti"], item["fi"])
            np.testing.assert_allclose(
                entry.frequencies,
                item["frequencies"],
                rtol=1e-12,
                atol=0.0,
                err_msg=f"cell {(item['ti'], item['fi'])}",
            )


class TestCertifiedPrunedCells:
    @pytest.mark.parametrize(
        "t_grid, f_mhz, step_subsample, cell",
        [
            pytest.param(
                [70.0, 85.0, 95.0, 100.09],
                [99.0] + [100.0 * k for k in range(2, 11)],
                5,
                (3, 0),
                id="top-row-above-t-max",
            ),
            pytest.param(
                [70.0, 85.0, 95.0, 100.0],
                [200.0, 400.0, 600.0, 800.0, 1000.0],
                10,
                (0, 0),
                id="coarse-subsample-10",
            ),
        ],
    )
    def test_stalled_pruned_cell_matches_cold(
        self, niagara, t_grid, f_mhz, step_subsample, cell
    ):
        """Regression: a pruned pre-solve, warm-started from the 200 MHz
        neighbor (top row above t_max) or from the hotter row's 200 MHz
        optimum (coarse grid), stalled far from the optimum and the
        full-stack polish kept that point.  gen2 served 0.357 W where the
        cold solve finds 0.314 W at (100.09 C, 99 MHz), and frequencies
        1.5e-3 off at 200 MHz on the coarse grid.  The polished point's KKT
        stationarity certificate (1e5 or more on these cells, <= 2.6e-3
        on correct ones) now sends such cells down the exact path."""
        f_grid = [mhz(f) for f in f_mhz]
        gen2 = build_frequency_table(
            ProTempOptimizer(niagara, step_subsample=step_subsample),
            t_grid,
            f_grid,
            strategy="gen2",
        )
        cold = build_frequency_table(
            ProTempOptimizer(
                niagara, step_subsample=step_subsample, accelerated=False
            ),
            t_grid,
            f_grid,
            warm_start=False,
        )
        assert cold.entries[cell].feasible
        np.testing.assert_allclose(
            gen2.entries[cell].total_power,
            cold.entries[cell].total_power,
            rtol=1e-9,
        )
        assert_matches_cold(cold, gen2)
