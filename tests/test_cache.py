"""Tests for the Phase-1 table cache (`ScenarioRunner.table`)."""

from __future__ import annotations

from repro.scenario import PlatformSpec, PolicySpec, ScenarioRunner
from repro.scenario.runner import table_key
from repro.units import mhz

NIAGARA = PlatformSpec("niagara8")
SMALL_T = [80.0, 100.0]
SMALL_F = [mhz(300), mhz(700)]
SMALL = PolicySpec("protemp", {"t_grid": SMALL_T, "f_grid": SMALL_F})


class TestCachedTable:
    def test_memory_cache_returns_same_object(self, niagara):
        runner = ScenarioRunner()
        runner.prime_platform(NIAGARA, niagara)
        a, first_hit = runner.table(NIAGARA, SMALL)
        b, second_hit = runner.table(NIAGARA, SMALL)
        assert a is b
        assert (first_hit, second_hit) == (False, True)
        assert runner.tables_built == 1

    def test_disk_cache_roundtrip(self, niagara, tmp_path):
        first = ScenarioRunner(table_cache_dir=tmp_path)
        first.prime_platform(NIAGARA, niagara)
        a, _ = first.table(NIAGARA, SMALL)
        assert (tmp_path / f"table_{table_key(NIAGARA, SMALL)}.json").exists()
        second = ScenarioRunner(table_cache_dir=tmp_path)
        second.prime_platform(NIAGARA, niagara)
        b, hit = second.table(NIAGARA, SMALL)
        assert hit and second.tables_built == 0
        assert a is not b
        assert b.t_grid == SMALL_T
        assert b.metadata["platform"] == "niagara8"
        assert b.entries == a.entries

    def test_stale_disk_cache_rebuilt(self, niagara, tmp_path):
        """A cache file whose grid does not match its key is rebuilt."""
        other = PolicySpec(
            "protemp", {"t_grid": [85.0, 100.0], "f_grid": SMALL_F}
        )
        builder = ScenarioRunner()
        builder.prime_platform(NIAGARA, niagara)
        wrong, _ = builder.table(NIAGARA, other)
        wrong.save_json(tmp_path / f"table_{table_key(NIAGARA, SMALL)}.json")
        runner = ScenarioRunner(table_cache_dir=tmp_path)
        runner.prime_platform(NIAGARA, niagara)
        table, hit = runner.table(NIAGARA, SMALL)
        assert not hit and runner.tables_built == 1
        assert table.t_grid == SMALL_T

    def test_mode_differentiates_cache_key(self, niagara):
        uniform = PolicySpec(
            "protemp",
            {"t_grid": SMALL_T, "f_grid": SMALL_F, "mode": "uniform"},
        )
        assert table_key(NIAGARA, SMALL) != table_key(NIAGARA, uniform)
        runner = ScenarioRunner()
        runner.prime_platform(NIAGARA, niagara)
        a, _ = runner.table(NIAGARA, SMALL)
        b, _ = runner.table(NIAGARA, uniform)
        assert a is not b
        assert runner.tables_built == 2
        assert b.metadata["mode"] == "uniform"
