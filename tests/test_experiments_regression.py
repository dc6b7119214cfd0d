"""Figure-level experiments reimplemented on ScenarioRunner: regression.

Each test re-wires the *pre-refactor* experiment by hand (policy object +
trace generator + `run_simulation`, exactly as `analysis/experiments.py`
did before the scenario API) and asserts the refactored scenario-grid
implementation reproduces the same values bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.experiments import (
    BASIC_DFS_THRESHOLD,
    run_assignment_effect,
    run_band_comparison,
    run_feasibility_sweep,
    run_gradient_timeseries,
    run_per_core_frequency,
    run_simulation,
    run_snapshot,
    run_waiting_comparison,
)
from repro.control import BasicDFSPolicy, NoTCPolicy, ProTempPolicy
from repro.core import ProTempOptimizer
from repro.scenario.specs import DEFAULT_STEP_SUBSAMPLE
from repro.sim import CoolestFirstAssignment, FirstIdleAssignment
from repro.units import to_mhz
from repro.workloads import (
    compute_benchmark,
    mixed_benchmark,
    server_benchmark,
)

DURATION = 4.0
SEED = 7


class TestSnapshotRegression:
    def test_fig1_basic_matches_legacy_wiring(self, niagara):
        legacy = run_simulation(
            niagara,
            BasicDFSPolicy(threshold=BASIC_DFS_THRESHOLD),
            mixed_benchmark(DURATION, niagara.n_cores, seed=SEED),
            duration=DURATION,
        )
        new = run_snapshot(
            "basic", duration=DURATION, seed=SEED, platform=niagara
        )
        np.testing.assert_array_equal(new.times, legacy.timeseries.times)
        np.testing.assert_array_equal(
            new.temperature, legacy.timeseries.core(0)
        )
        assert new.violation_fraction == legacy.metrics.violation_fraction
        assert new.peak == legacy.metrics.peak_temperature

    def test_fig2_protemp_matches_legacy_wiring(self, niagara, coarse_table):
        legacy = run_simulation(
            niagara,
            ProTempPolicy(coarse_table),
            mixed_benchmark(DURATION, niagara.n_cores, seed=SEED),
            duration=DURATION,
        )
        new = run_snapshot(
            "protemp",
            duration=DURATION,
            seed=SEED,
            platform=niagara,
            table=coarse_table,
        )
        np.testing.assert_array_equal(
            new.temperature, legacy.timeseries.core(0)
        )
        assert new.peak == legacy.metrics.peak_temperature


class TestBandRegression:
    def test_fig6_matches_legacy_wiring(self, niagara, coarse_table):
        trace = compute_benchmark(DURATION, niagara.n_cores, seed=SEED)
        legacy = {}
        for policy in (
            NoTCPolicy(),
            BasicDFSPolicy(threshold=BASIC_DFS_THRESHOLD),
            ProTempPolicy(coarse_table),
        ):
            result = run_simulation(
                niagara, policy, trace, duration=DURATION
            )
            legacy[policy.name] = (
                result.band_fractions,
                result.mean_waiting_time,
            )
        new = run_band_comparison(
            "compute",
            duration=DURATION,
            seed=SEED,
            platform=niagara,
            table=coarse_table,
        )
        assert set(new.fractions) == set(legacy)
        for name, (fractions, waiting) in legacy.items():
            np.testing.assert_array_equal(new.fractions[name], fractions)
            assert new.waiting[name] == waiting


class TestWaitingRegression:
    def test_fig7_matches_legacy_wiring(self, niagara, coarse_table):
        trace = compute_benchmark(DURATION, niagara.n_cores, seed=SEED)
        basic = run_simulation(
            niagara,
            BasicDFSPolicy(threshold=BASIC_DFS_THRESHOLD),
            trace,
            duration=DURATION,
        )
        protemp = run_simulation(
            niagara, ProTempPolicy(coarse_table), trace, duration=DURATION
        )
        new = run_waiting_comparison(
            duration=DURATION,
            seed=SEED,
            platform=niagara,
            table=coarse_table,
        )
        assert new.basic_wait == basic.mean_waiting_time
        assert new.protemp_wait == protemp.mean_waiting_time


class TestGradientRegression:
    def test_fig8_matches_legacy_wiring(self, niagara, coarse_table):
        legacy = run_simulation(
            niagara,
            ProTempPolicy(coarse_table),
            mixed_benchmark(DURATION, niagara.n_cores, seed=SEED),
            duration=DURATION,
        )
        new = run_gradient_timeseries(
            duration=DURATION,
            seed=SEED,
            platform=niagara,
            table=coarse_table,
        )
        np.testing.assert_array_equal(new.p1, legacy.timeseries.core(0))
        np.testing.assert_array_equal(new.p2, legacy.timeseries.core(1))
        gaps = np.abs(new.p1 - new.p2)
        assert new.mean_gap == float(gaps.mean())


class TestAssignmentRegression:
    def test_fig11_matches_legacy_wiring(self, niagara, coarse_table):
        trace = server_benchmark(DURATION, niagara.n_cores, seed=SEED)
        basic_fi = run_simulation(
            niagara,
            BasicDFSPolicy(threshold=BASIC_DFS_THRESHOLD),
            trace,
            duration=DURATION,
            assignment=FirstIdleAssignment(),
        )
        basic_cf = run_simulation(
            niagara,
            BasicDFSPolicy(threshold=BASIC_DFS_THRESHOLD),
            trace,
            duration=DURATION,
            assignment=CoolestFirstAssignment(),
        )
        pro_fi = run_simulation(
            niagara,
            ProTempPolicy(coarse_table),
            trace,
            duration=DURATION,
            assignment=FirstIdleAssignment(),
        )
        pro_cf = run_simulation(
            niagara,
            ProTempPolicy(coarse_table),
            trace,
            duration=DURATION,
            assignment=CoolestFirstAssignment(),
        )
        new = run_assignment_effect(
            duration=DURATION,
            seed=SEED,
            platform=niagara,
            table=coarse_table,
        )
        assert new.basic_first_idle_over == basic_fi.metrics.violation_fraction
        assert new.basic_coolest_over == basic_cf.metrics.violation_fraction
        assert (
            new.protemp_gradient_first_idle == pro_fi.metrics.gradient.mean
        )
        assert new.protemp_gradient_coolest == pro_cf.metrics.gradient.mean


def legacy_optimizer(platform, *, mode):
    """The optimizer the figure probes were wired to before the runner."""
    return ProTempOptimizer(
        platform, mode=mode, step_subsample=DEFAULT_STEP_SUBSAMPLE
    )


class TestOptimizerProbeRegression:
    TEMPS = (47.0, 87.0)

    def test_fig9_matches_legacy_wiring(self, niagara):
        uni = legacy_optimizer(niagara, mode="uniform")
        var = legacy_optimizer(niagara, mode="variable")
        legacy_uniform = [
            to_mhz(uni.max_feasible_target(t)) for t in self.TEMPS
        ]
        legacy_variable = [
            to_mhz(var.max_feasible_target(t)) for t in self.TEMPS
        ]
        new = run_feasibility_sweep(temps=self.TEMPS, platform=niagara)
        np.testing.assert_allclose(
            new.uniform_mhz, legacy_uniform, rtol=1e-12
        )
        np.testing.assert_allclose(
            new.variable_mhz, legacy_variable, rtol=1e-12
        )

    def test_fig10_matches_legacy_wiring(self, niagara):
        optimizer = legacy_optimizer(niagara, mode="variable")
        p1_legacy, p2_legacy = [], []
        for t in self.TEMPS:
            f_max_feasible = optimizer.max_feasible_target(t)
            assignment = optimizer.solve(t, f_max_feasible * 0.97)
            p1_legacy.append(to_mhz(assignment.frequencies[0]))
            p2_legacy.append(to_mhz(assignment.frequencies[1]))
        new = run_per_core_frequency(temps=self.TEMPS, platform=niagara)
        np.testing.assert_allclose(new.p1_mhz, p1_legacy, rtol=1e-9)
        np.testing.assert_allclose(new.p2_mhz, p2_legacy, rtol=1e-9)
