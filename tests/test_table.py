"""Tests for the Phase-1 frequency table and its run-time lookup."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import FrequencyTable, TableEntry, build_frequency_table
from repro.core.protemp import ProTempOptimizer
from repro.core.table import GRID_SNAP_TOLERANCE
from repro.errors import TableError
from repro.units import mhz


def entry(t, f, feasible=True, freqs=(5e8, 5e8)):
    return TableEntry(
        t_start=t,
        f_target=f,
        feasible=feasible,
        frequencies=freqs if feasible else (0.0, 0.0),
        total_power=2.0 if feasible else 0.0,
        predicted_peak=95.0 if feasible else np.inf,
        predicted_gradient=1.0 if feasible else np.inf,
    )


@pytest.fixture
def toy_table():
    """2 temp rows x 3 freq columns; hottest row loses the top column."""
    t_grid = [80.0, 100.0]
    f_grid = [mhz(300), mhz(600), mhz(900)]
    entries = {}
    for ti, t in enumerate(t_grid):
        for fi, f in enumerate(f_grid):
            feasible = not (ti == 1 and fi == 2)
            entries[(ti, fi)] = entry(t, f, feasible)
    return FrequencyTable(t_grid, f_grid, entries, n_cores=2)


class TestLookupSemantics:
    def test_rounds_temperature_up(self, toy_table):
        result = toy_table.lookup(85.0, mhz(600))
        assert result.entry.t_start == 100.0

    def test_exact_grid_temperature_uses_own_row(self, toy_table):
        result = toy_table.lookup(80.0, mhz(600))
        assert result.entry.t_start == 80.0

    def test_rounds_frequency_up(self, toy_table):
        result = toy_table.lookup(70.0, mhz(400))
        assert result.satisfied_target == pytest.approx(mhz(600))

    def test_backs_off_to_lower_feasible_column(self, toy_table):
        """Paper 3.3: next lower frequency point when infeasible."""
        result = toy_table.lookup(95.0, mhz(900))
        assert not result.shutdown
        assert result.satisfied_target == pytest.approx(mhz(600))

    def test_demand_above_grid_clamps_to_top_column(self, toy_table):
        result = toy_table.lookup(70.0, mhz(2000))
        assert result.satisfied_target == pytest.approx(mhz(900))
        assert result.demand_clamped

    def test_demand_within_grid_is_not_clamped(self, toy_table):
        assert not toy_table.lookup(70.0, mhz(400)).demand_clamped
        assert not toy_table.lookup(70.0, mhz(900)).demand_clamped

    def test_clamp_flag_survives_backoff_and_shutdown(self, toy_table):
        # Row 100 has no 900 MHz cell: over-demand backs off *and* reports
        # the clamp.
        result = toy_table.lookup(95.0, mhz(2000))
        assert result.demand_clamped
        assert result.satisfied_target == pytest.approx(mhz(600))
        result = toy_table.lookup(150.0, mhz(2000))
        assert result.shutdown and result.demand_clamped

    def test_temperature_above_grid_shuts_down(self, toy_table):
        result = toy_table.lookup(101.0, mhz(300))
        assert result.shutdown
        assert np.all(result.frequencies == 0)
        assert result.entry is None

    def test_temperature_snap_tolerance(self, toy_table):
        """Within GRID_SNAP_TOLERANCE above a grid row counts as on it;
        beyond it rounds up to the next row."""
        on_line = toy_table.lookup(80.0 + GRID_SNAP_TOLERANCE / 2, mhz(600))
        assert on_line.entry.t_start == 80.0
        above = toy_table.lookup(80.0 + 1e-6, mhz(600))
        assert above.entry.t_start == 100.0

    def test_temperature_snap_at_top_row(self, toy_table):
        assert not toy_table.lookup(
            100.0 + GRID_SNAP_TOLERANCE / 2, mhz(300)
        ).shutdown
        assert toy_table.lookup(100.0 + 1e-6, mhz(300)).shutdown

    def test_frequency_snap_is_relative(self, toy_table):
        """The 1e-9 column snap is relative: Hz-scale demands within
        1e-9 * f of a column serve that column, larger excesses round up."""
        within = toy_table.lookup(70.0, mhz(600) + 0.1)  # 0.1 Hz over
        assert within.satisfied_target == pytest.approx(mhz(600))
        over = toy_table.lookup(70.0, mhz(600) + 10.0)  # 10 Hz over
        assert over.satisfied_target == pytest.approx(mhz(900))

    def test_all_infeasible_row_shuts_down(self):
        t_grid = [90.0]
        f_grid = [mhz(300), mhz(600)]
        entries = {
            (0, 0): entry(90.0, mhz(300), feasible=False),
            (0, 1): entry(90.0, mhz(600), feasible=False),
        }
        table = FrequencyTable(t_grid, f_grid, entries, n_cores=2)
        assert table.lookup(85.0, mhz(300)).shutdown

    def test_max_feasible_target(self, toy_table):
        assert toy_table.max_feasible_target(70.0) == pytest.approx(mhz(900))
        assert toy_table.max_feasible_target(95.0) == pytest.approx(mhz(600))
        assert toy_table.max_feasible_target(150.0) == 0.0


class TestValidation:
    def test_unsorted_grids_rejected(self):
        with pytest.raises(TableError):
            FrequencyTable(
                [100.0, 80.0], [mhz(300)],
                {(0, 0): entry(100, mhz(300)), (1, 0): entry(80, mhz(300))},
                n_cores=2,
            )

    def test_missing_entry_rejected(self):
        with pytest.raises(TableError, match="missing"):
            FrequencyTable([80.0], [mhz(300), mhz(600)],
                           {(0, 0): entry(80, mhz(300))}, n_cores=2)

    def test_duplicate_grid_rejected(self):
        with pytest.raises(TableError):
            FrequencyTable(
                [80.0, 80.0], [mhz(300)],
                {(0, 0): entry(80, mhz(300)), (1, 0): entry(80, mhz(300))},
                n_cores=2,
            )


class TestSerialization:
    def test_roundtrip(self, toy_table, tmp_path):
        path = tmp_path / "table.json"
        toy_table.save_json(path)
        loaded = FrequencyTable.load_json(path)
        assert loaded.t_grid == toy_table.t_grid
        assert loaded.f_grid == toy_table.f_grid
        assert loaded.n_cores == 2
        orig = toy_table.lookup(85.0, mhz(600))
        again = loaded.lookup(85.0, mhz(600))
        assert np.allclose(orig.frequencies, again.frequencies)

    def test_infinite_peak_serialized(self, toy_table, tmp_path):
        path = tmp_path / "table.json"
        toy_table.save_json(path)
        loaded = FrequencyTable.load_json(path)
        assert loaded.entries[(1, 2)].predicted_peak == np.inf

    def test_malformed_dict(self):
        with pytest.raises(TableError, match="malformed"):
            FrequencyTable.from_dict({"entries": [{}]})

    def test_format_mentions_infeasible(self, toy_table):
        text = toy_table.format()
        assert "infeasible" in text

    def test_negative_infinity_roundtrips(self, tmp_path):
        """Regression: -inf used to collapse to "inf" (sign lost)."""
        entries = {
            (0, 0): TableEntry(
                t_start=70.0,
                f_target=mhz(100),
                feasible=True,
                frequencies=(5e8, 5e8),
                total_power=1.0,
                predicted_peak=float("-inf"),
                predicted_gradient=float("-inf"),
            )
        }
        table = FrequencyTable([70.0], [mhz(100)], entries, n_cores=2)
        path = tmp_path / "table.json"
        table.save_json(path)
        loaded = FrequencyTable.load_json(path)
        assert loaded.entries[(0, 0)].predicted_peak == -np.inf
        assert loaded.entries[(0, 0)].predicted_gradient == -np.inf

    def test_saved_json_is_strict(self, toy_table, tmp_path):
        """No non-standard Infinity/NaN literals reach the file."""
        path = tmp_path / "table.json"
        toy_table.save_json(path)
        text = path.read_text()
        assert "Infinity" not in text and "NaN" not in text
        json.loads(text)  # strictly parseable

    def test_nan_rejected_at_build(self):
        with pytest.raises(TableError, match="NaN"):
            FrequencyTable(
                [70.0],
                [mhz(100)],
                {
                    (0, 0): TableEntry(
                        t_start=70.0,
                        f_target=mhz(100),
                        feasible=True,
                        frequencies=(float("nan"), 5e8),
                        total_power=1.0,
                        predicted_peak=95.0,
                        predicted_gradient=1.0,
                    )
                },
                n_cores=2,
            )

    def test_nan_encoding_rejected_on_load(self, toy_table):
        data = toy_table.to_dict()
        data["entries"][0]["predicted_peak"] = "nan"
        with pytest.raises(TableError):
            FrequencyTable.from_dict(data)

    def test_unknown_float_encoding_rejected(self, toy_table):
        data = toy_table.to_dict()
        data["entries"][0]["predicted_peak"] = "huge"
        with pytest.raises(TableError):
            FrequencyTable.from_dict(data)


finite_metric = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
metric = st.one_of(
    finite_metric, st.just(float("inf")), st.just(float("-inf"))
)


class TestRoundTripProperty:
    @given(
        t_grid=st.lists(
            st.integers(min_value=0, max_value=400),
            min_size=1,
            max_size=3,
            unique=True,
        ).map(sorted),
        f_cols=st.integers(min_value=1, max_value=3),
        data=st.data(),
    )
    def test_dict_and_json_round_trip(self, t_grid, f_cols, data):
        """to_dict/from_dict/save_json/load_json preserve every field,
        including infeasible cells with +/-inf peaks."""
        t_grid = [float(t) for t in t_grid]
        f_grid = [mhz(100 * (fi + 1)) for fi in range(f_cols)]
        entries = {}
        for ti, t in enumerate(t_grid):
            for fi, f in enumerate(f_grid):
                feasible = data.draw(st.booleans())
                freqs = (
                    tuple(
                        data.draw(
                            st.floats(min_value=0, max_value=1e9,
                                      allow_nan=False)
                        )
                        for _ in range(2)
                    )
                    if feasible
                    else (0.0, 0.0)
                )
                entries[(ti, fi)] = TableEntry(
                    t_start=t,
                    f_target=f,
                    feasible=feasible,
                    frequencies=freqs,
                    total_power=data.draw(finite_metric),
                    predicted_peak=data.draw(metric),
                    predicted_gradient=data.draw(metric),
                )
        table = FrequencyTable(
            t_grid, f_grid, entries, n_cores=2, metadata={"k": "v"}
        )
        # Through plain dicts *and* the JSON text encoding.
        rebuilt = FrequencyTable.from_dict(
            json.loads(json.dumps(table.to_dict(), allow_nan=False))
        )
        assert rebuilt.t_grid == table.t_grid
        assert rebuilt.f_grid == table.f_grid
        assert rebuilt.n_cores == table.n_cores
        assert rebuilt.metadata == table.metadata
        for key, entry in table.entries.items():
            other = rebuilt.entries[key]
            assert other == entry, key


class TestBuild:
    def test_build_small_table(self, small_platform):
        optimizer = ProTempOptimizer(small_platform, step_subsample=10)
        t_grid = [70.0, 95.0]
        f_grid = [mhz(200), mhz(600), mhz(1000)]
        progress = []
        table = build_frequency_table(
            optimizer, t_grid, f_grid,
            progress=lambda done, total: progress.append((done, total)),
        )
        assert progress[-1] == (6, 6)
        assert table.metadata["mode"] == "variable"
        feas = table.feasibility_matrix()
        assert feas.shape == (2, 3)
        # Feasibility is monotone: once infeasible along a row, stays so.
        for row in feas:
            assert all(
                not later or earlier
                for earlier, later in zip(row, row[1:])
            )

    def test_pruned_matches_unpruned(self, small_platform):
        """Cells the row's feasibility boundary prunes without a solve get
        the feasibility a per-cell solve decides."""
        optimizer = ProTempOptimizer(small_platform, step_subsample=10)
        t_grid = [85.0]
        f_grid = [mhz(200), mhz(700), mhz(1000)]
        pruned = build_frequency_table(optimizer, t_grid, f_grid)
        full = [optimizer.solve(85.0, f).feasible for f in f_grid]
        assert pruned.feasibility_matrix().tolist() == [full]
        assert not all(full)  # the boundary prunes something

    def test_row_guarantee_against_simulation(self, small_platform):
        """Every feasible cell's frequencies must hold t <= t_max when
        simulated from the cell's start temperature."""
        optimizer = ProTempOptimizer(small_platform, step_subsample=5)
        t_grid = [80.0, 95.0]
        f_grid = [mhz(300), mhz(800)]
        table = build_frequency_table(optimizer, t_grid, f_grid)
        for (ti, fi), cell in table.entries.items():
            if not cell.feasible:
                continue
            p = np.asarray(
                small_platform.power.scaling.power(
                    np.array(cell.frequencies)
                )
            )
            node_power = small_platform.power.injection_matrix() @ p
            traj = small_platform.thermal.simulate(
                cell.t_start, node_power, optimizer.response.m
            )
            assert traj.max() <= small_platform.t_max + 1e-6, (ti, fi)
