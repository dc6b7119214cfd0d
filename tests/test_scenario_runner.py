"""ScenarioRunner: artifact caching, table dedup, parallel == serial.

All tests run on the fast 3-core row platform with a tiny Phase-1 grid so
the expensive path (table building) is exercised without Niagara-scale
cost.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.core import ProTempOptimizer
from repro.core.protemp import BACKENDS
from repro.core.table import FrequencyTable, TableProvenanceWarning
from repro.errors import ScenarioError
from repro.scenario import (
    PlatformSpec,
    PolicySpec,
    ScenarioRunner,
    ScenarioSpec,
    SensorSpec,
    WorkloadSpec,
    table_key,
)

ROW3 = PlatformSpec("core-row", {"n_cores": 3})

#: Tiny table config: 2x2 grid, heavy step subsampling.
SMALL_TABLE_PARAMS = {
    "t_grid": [80.0, 100.0],
    "f_grid": [3e8, 6e8],
    "step_subsample": 20,
}
PROTEMP_SMALL = PolicySpec("protemp", SMALL_TABLE_PARAMS)


def small_grid(duration: float = 1.5) -> list[ScenarioSpec]:
    """2 policies x 2 workloads x 2 seeds on the row-3 platform."""
    return ScenarioSpec.grid(
        ScenarioSpec(platform=ROW3, t_initial=60.0),
        policy=[PolicySpec("basic-dfs", {"threshold": 90.0}), PROTEMP_SMALL],
        workload=[
            WorkloadSpec("poisson", duration, {"offered_load": 0.4}),
            WorkloadSpec("compute", duration),
        ],
        seed=[0, 1],
    )


def assert_results_equal(a, b):
    """Bit-identical SimulationResult comparison."""
    assert a.policy_name == b.policy_name
    assert a.assignment_name == b.assignment_name
    assert a.trace_name == b.trace_name
    assert a.end_time == b.end_time
    assert a.queue_length_end == b.queue_length_end
    np.testing.assert_array_equal(a.timeseries.times, b.timeseries.times)
    np.testing.assert_array_equal(
        a.timeseries.core_temperatures, b.timeseries.core_temperatures
    )
    assert a.metrics.peak_temperature == b.metrics.peak_temperature
    assert a.metrics.violation_fraction == b.metrics.violation_fraction
    np.testing.assert_array_equal(a.band_fractions, b.band_fractions)
    assert a.mean_waiting_time == b.mean_waiting_time
    assert a.metrics.completed_tasks == b.metrics.completed_tasks
    assert a.metrics.arrived_tasks == b.metrics.arrived_tasks
    assert a.metrics.total_core_energy == b.metrics.total_core_energy


class TestTableCache:
    def test_grid_builds_each_distinct_table_exactly_once(self):
        runner = ScenarioRunner()
        specs = small_grid()
        assert len(specs) == 8
        outcomes = runner.run_many(specs)
        assert runner.tables_built == 1
        protemp = [o for o in outcomes if o.spec.policy.name == "protemp"]
        others = [o for o in outcomes if o.spec.policy.name != "protemp"]
        assert len(protemp) == 4
        # First protemp scenario built the table; the rest hit the cache.
        assert [o.table_cache_hit for o in protemp] == [False, True, True, True]
        assert all(o.table_cache_hit is None for o in others)
        assert all(o.table_key is None for o in others)
        assert len({o.table_key for o in protemp}) == 1

    def test_two_table_configs_build_two_tables(self):
        runner = ScenarioRunner()
        other = PolicySpec(
            "protemp", {**SMALL_TABLE_PARAMS, "t_grid": [90.0, 100.0]}
        )
        specs = ScenarioSpec.grid(
            ScenarioSpec(
                platform=ROW3,
                workload=WorkloadSpec("poisson", 1.0, {"offered_load": 0.3}),
                t_initial=60.0,
            ),
            policy=[PROTEMP_SMALL, other],
            seed=[0, 1],
        )
        runner.run_many(specs)
        assert runner.tables_built == 2

    def test_table_key_ignores_non_table_params(self):
        named = PolicySpec("protemp", {**SMALL_TABLE_PARAMS, "name": "PT"})
        assert table_key(ROW3, named) == table_key(ROW3, PROTEMP_SMALL)

    def test_table_key_sensitive_to_platform(self):
        row4 = PlatformSpec("core-row", {"n_cores": 4})
        assert table_key(ROW3, PROTEMP_SMALL) != table_key(row4, PROTEMP_SMALL)

    def test_priming_prevents_builds(self):
        builder = ScenarioRunner()
        table, hit = builder.table(ROW3, PROTEMP_SMALL)
        assert not hit and builder.tables_built == 1
        runner = ScenarioRunner()
        runner.prime_table(ROW3, PROTEMP_SMALL, table)
        spec = ScenarioSpec(
            platform=ROW3,
            workload=WorkloadSpec("compute", 1.0),
            policy=PROTEMP_SMALL,
            t_initial=60.0,
        )
        outcome = runner.run(spec)
        assert runner.tables_built == 0
        assert outcome.table_cache_hit is True

    def test_disk_cache_round_trip(self, tmp_path):
        first = ScenarioRunner(table_cache_dir=tmp_path)
        table, hit = first.table(ROW3, PROTEMP_SMALL)
        assert not hit and first.tables_built == 1
        assert list(tmp_path.glob("table_*.json"))
        # A fresh runner loads from disk instead of rebuilding.
        second = ScenarioRunner(table_cache_dir=tmp_path)
        loaded, hit = second.table(ROW3, PROTEMP_SMALL)
        assert hit and second.tables_built == 0
        assert loaded.metadata["platform_spec_hash"] == ROW3.spec_hash
        np.testing.assert_array_equal(loaded.t_grid, table.t_grid)

    def test_built_table_records_provenance(self):
        runner = ScenarioRunner()
        table, _ = runner.table(ROW3, PROTEMP_SMALL)
        assert table.metadata["platform_spec_hash"] == ROW3.spec_hash
        assert table.metadata["platform_spec"]["name"] == "core-row"
        assert table.metadata["sweep_strategy"] == "gen2"
        assert table.metadata["solver_gap_tol"] > 0
        assert "built_at" in table.metadata


class TestDefaultBarrierOptions:
    def test_build_with_default_newton_options(self, small_platform):
        """BarrierOptions(newton=None) (its default) must not crash the
        metadata block recording solver tolerances."""
        from repro.core.protemp import ProTempOptimizer
        from repro.core.table import build_frequency_table
        from repro.solver.barrier import BarrierOptions

        optimizer = ProTempOptimizer(
            small_platform,
            step_subsample=20,
            barrier_options=BarrierOptions(),
        )
        table = build_frequency_table(optimizer, [90.0, 100.0], [3e8])
        assert table.metadata["solver_newton_tol"] > 0


class TestProvenanceWarnings:
    def test_platform_hash_mismatch_warns(self, tmp_path):
        runner = ScenarioRunner(table_cache_dir=tmp_path)
        runner.table(ROW3, PROTEMP_SMALL)
        path = next(tmp_path.glob("table_*.json"))
        with pytest.warns(TableProvenanceWarning, match="does not transfer"):
            FrequencyTable.load_json(path, expected_platform_hash="deadbeef")

    def test_missing_hash_warns(self, small_optimizer):
        from repro.core.table import build_frequency_table

        table = build_frequency_table(
            small_optimizer, [80.0, 100.0], [3e8, 6e8]
        )
        with pytest.warns(TableProvenanceWarning, match="no recorded"):
            FrequencyTable.from_dict(
                table.to_dict(), expected_platform_hash=ROW3.spec_hash
            )

    def test_matching_hash_silent(self, tmp_path):
        runner = ScenarioRunner(table_cache_dir=tmp_path)
        runner.table(ROW3, PROTEMP_SMALL)
        path = next(tmp_path.glob("table_*.json"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            FrequencyTable.load_json(
                path, expected_platform_hash=ROW3.spec_hash
            )


class TestParallel:
    def test_parallel_equals_serial(self):
        specs = small_grid()
        serial = ScenarioRunner().run_many(specs)
        parallel = ScenarioRunner(n_workers=3).run_many(specs)
        assert [o.spec for o in parallel] == specs
        for s, p in zip(serial, parallel):
            assert s.spec_hash == p.spec_hash
            assert_results_equal(s.result, p.result)

    def test_parallel_with_noisy_sensor_still_deterministic(self):
        specs = ScenarioSpec.grid(
            ScenarioSpec(
                platform=ROW3,
                workload=WorkloadSpec("compute", 1.5),
                policy=PolicySpec("basic-dfs"),
                sensor=SensorSpec("noisy", {"noise_std": 0.5}),
                t_initial=60.0,
            ),
            seed=[0, 1, 2],
        )
        serial = ScenarioRunner().run_many(specs)
        parallel = ScenarioRunner(n_workers=2).run_many(specs)
        for s, p in zip(serial, parallel):
            assert_results_equal(s.result, p.result)


class TestDeterminism:
    def test_identical_specs_bit_identical_results(self):
        spec = ScenarioSpec(
            platform=ROW3,
            workload=WorkloadSpec("compute", 1.5),
            policy=PolicySpec("basic-dfs"),
            sensor=SensorSpec("noisy", {"noise_std": 1.0}),
            t_initial=60.0,
            seed=9,
        )
        runner = ScenarioRunner()
        assert_results_equal(runner.run(spec).result, runner.run(spec).result)

    def test_seed_changes_noisy_outcome(self):
        base = ScenarioSpec(
            platform=ROW3,
            workload=WorkloadSpec("compute", 1.5),
            policy=PolicySpec("basic-dfs", {"threshold": 70.0}),
            sensor=SensorSpec("noisy", {"noise_std": 2.0, "quantization": 0.0}),
            t_initial=65.0,
        )
        runner = ScenarioRunner()
        a = runner.run(base.with_(seed=0)).result
        b = runner.run(base.with_(seed=1)).result
        # Different master seed -> different trace AND different noise.
        assert a.mean_waiting_time != b.mean_waiting_time

    def test_random_assignment_reuse_across_runs_is_reset(self):
        spec = ScenarioSpec(
            platform=ROW3,
            workload=WorkloadSpec("compute", 1.5),
            policy=PolicySpec("basic-dfs"),
            assignment="random",
            t_initial=60.0,
            seed=4,
        )
        runner = ScenarioRunner()
        assert_results_equal(runner.run(spec).result, runner.run(spec).result)

    def test_sensor_reuse_across_runs_is_reset(self, small_platform):
        """A TMU (and its noisy sensor) reused across runs reproduces."""
        from repro.control import BasicDFSPolicy, ThermalManagementUnit
        from repro.sim import MulticoreSimulator, SimulationConfig
        from repro.thermal.sensors import NoisySensor
        from repro.workloads import compute_benchmark

        tmu = ThermalManagementUnit(
            policy=BasicDFSPolicy(threshold=80.0),
            f_max=small_platform.f_max,
            t_max=small_platform.t_max,
            window=0.1,
            sensor=NoisySensor(noise_std=1.0, seed=5),
        )
        sim = MulticoreSimulator(
            small_platform,
            tmu,
            config=SimulationConfig(max_time=1.0, t_initial=70.0),
        )
        trace = compute_benchmark(1.0, small_platform.n_cores, seed=2)
        assert_results_equal(sim.run(trace), sim.run(trace))


class TestRunConfig:
    CONFIG = {
        "base": {
            "platform": {"name": "core-row", "params": {"n_cores": 3}},
            "workload": {
                "name": "poisson",
                "duration": 1.0,
                "params": {"offered_load": 0.3},
            },
            "t_initial": 60.0,
        },
        "grid": {"policy": ["no-tc", "basic-dfs"], "seed": [0, 1]},
    }

    def test_run_config_dict(self):
        outcomes = ScenarioRunner().run_config(self.CONFIG)
        assert len(outcomes) == 4
        assert {o.result.policy_name for o in outcomes} == {
            "No-TC",
            "Basic-DFS",
        }

    def test_run_config_path(self, tmp_path):
        import json

        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.CONFIG))
        outcomes = ScenarioRunner().run_config(path)
        assert len(outcomes) == 4

    def test_missing_config_path_rejected(self, tmp_path):
        with pytest.raises(ScenarioError):
            ScenarioRunner().run_config(tmp_path / "nope.json")


class TestOutcome:
    def test_summary_row_is_json_compatible(self):
        import json

        spec = ScenarioSpec(
            platform=ROW3,
            workload=WorkloadSpec("compute", 1.0),
            policy=PolicySpec("no-tc"),
            t_initial=60.0,
        )
        outcome = ScenarioRunner().run(spec)
        row = json.loads(json.dumps(outcome.summary_row()))
        assert row["policy"] == "No-TC"
        assert row["spec_hash"] == spec.spec_hash
        assert row["wall_time_s"] > 0

    def test_bad_workers_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioRunner(n_workers=0)


class TestOutcomeProvenanceSemantics:
    """The ISSUE 4 wall-time/cache-flag disambiguation: every flag and
    timing on an outcome describes *this* call, never an earlier run."""

    SPEC = ScenarioSpec(
        platform=ROW3,
        workload=WorkloadSpec("compute", 1.0),
        policy=PolicySpec("basic-dfs"),
        t_initial=60.0,
    )

    def test_executed_outcome_flags(self):
        outcome = ScenarioRunner().run(self.SPEC)
        assert outcome.outcome_cache_hit is False
        assert outcome.stored is None
        # For an executed scenario this call *is* the solve.
        assert outcome.solve_wall_time_s == outcome.wall_time_s

    def test_replay_does_not_claim_the_original_wall_time(self):
        from repro.scenario import MemoryOutcomeStore

        store = MemoryOutcomeStore()
        original = ScenarioRunner(outcome_store=store).run(self.SPEC)
        replay = ScenarioRunner(outcome_store=store).run(self.SPEC)
        assert replay.outcome_cache_hit is True
        # The original solve's cost is available, attributed correctly...
        assert replay.solve_wall_time_s == original.wall_time_s
        # ...while this call's wall time is the (tiny) store lookup.
        assert replay.wall_time_s < original.wall_time_s
        row = replay.summary_row()
        assert row["wall_time_s"] == replay.wall_time_s
        assert row["solve_wall_time_s"] == original.wall_time_s
        assert row["outcome_cache_hit"] is True

    def test_replay_reports_no_table_activity(self):
        """A replay resolves no table, so table_cache_hit must be None —
        even for a table-driven policy; the original run's table
        provenance survives only in the stored record."""
        from repro.scenario import MemoryOutcomeStore

        store = MemoryOutcomeStore()
        spec = self.SPEC.with_(
            workload=WorkloadSpec("compute", 1.0), policy=PROTEMP_SMALL
        )
        original = ScenarioRunner(outcome_store=store).run(spec)
        assert original.table_cache_hit is False  # this run built it
        replay = ScenarioRunner(outcome_store=store).run(spec)
        assert replay.table_cache_hit is None
        assert replay.stored.provenance["table_cache_hit"] is False
        assert replay.table_key == original.table_key

    def test_summary_metrics_match_live_and_replayed(self):
        from repro.scenario import MemoryOutcomeStore

        store = MemoryOutcomeStore()
        live = ScenarioRunner(outcome_store=store).run(self.SPEC)
        replay = ScenarioRunner(outcome_store=store).run(self.SPEC)
        assert replay.policy_label == live.result.policy_name
        assert replay.peak_c == live.result.metrics.peak_temperature
        assert replay.violation_fraction == (
            live.result.metrics.violation_fraction
        )
        assert replay.mean_wait_s == live.result.metrics.waiting.mean
        assert replay.gradient_mean_c == live.result.metrics.gradient.mean
        np.testing.assert_array_equal(
            replay.band_fractions, live.result.band_fractions
        )


class TestBackendSelection:
    def test_policy_spec_round_trips_backend(self):
        spec = ScenarioSpec(
            policy={
                "name": "protemp",
                "params": {"strategy": "cold", "backend": "scipy"},
            }
        )
        restored = ScenarioSpec.from_dict(json.loads(spec.to_json()))
        assert restored == spec
        config = restored.policy.table_config()
        assert config["strategy"] == "cold"
        assert config["backend"] == "scipy"
        # Table params never leak into the policy factory.
        assert restored.policy.factory_kwargs() == {}

    def test_backend_defaults_to_barrier(self):
        assert PolicySpec().table_config()["backend"] == "barrier"
        assert "backend" in PolicySpec.TABLE_PARAM_KEYS

    def test_table_key_stable_for_default_backend(self):
        base = PolicySpec(params={"strategy": "gen2"})
        explicit = PolicySpec(params={"strategy": "gen2", "backend": "barrier"})
        scipy_spec = PolicySpec(params={"strategy": "gen2", "backend": "scipy"})
        platform = PlatformSpec()
        assert table_key(platform, base) == table_key(platform, explicit)
        assert table_key(platform, scipy_spec) != table_key(platform, base)

    def test_unknown_backend_rejected_at_parse_with_hint(self):
        with pytest.raises(ScenarioError, match="did you mean 'scipy'"):
            PolicySpec(params={"backend": "scipi"})

    def test_unknown_strategy_rejected_at_parse_with_hint(self):
        with pytest.raises(ScenarioError, match="did you mean 'gen2'"):
            PolicySpec(params={"strategy": "gen22"})

    @pytest.mark.parametrize("key", ["strategy", "backend"])
    def test_non_string_table_choice_is_a_scenario_error(self, key):
        """A JSON config's `true` or `3` is an unknown name, not a
        TypeError from the did-you-mean lookup."""
        for value in (True, 3, ""):
            with pytest.raises(ScenarioError, match="unknown"):
                PolicySpec(params={key: value})

    def test_unknown_backend_rejected_at_service_submit(self):
        from repro.serving import ScenarioService

        service = ScenarioService(max_workers=1)
        try:
            with pytest.raises(ScenarioError, match="did you mean 'scipy'"):
                service.submit(
                    {
                        "workload": {"name": "compute", "duration": 1.0},
                        "policy": {
                            "name": "protemp",
                            "params": {"backend": "scipi"},
                        },
                    }
                )
            assert service.jobs_payload() == []  # never became a job
        finally:
            service.drain()

    def test_runner_threads_backend_into_optimizer(self, monkeypatch):
        captured = {}
        original = ProTempOptimizer.__init__

        def spy(self, platform, **kwargs):
            captured.update(kwargs)
            original(self, platform, **kwargs)

        monkeypatch.setattr(ProTempOptimizer, "__init__", spy)
        runner = ScenarioRunner()
        policy = PolicySpec(
            params={
                "t_grid": [60.0, 100.0],
                "f_grid": [4e8, 8e8],
                "step_subsample": 20,
                "backend": "scipy",
            }
        )
        table, hit = runner.table(PlatformSpec(name="core-row"), policy)
        assert not hit and captured["backend"] == "scipy"
        assert table.entries

    def test_backends_constant_names_both_solvers(self):
        assert BACKENDS == ("barrier", "scipy")
