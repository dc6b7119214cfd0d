"""Ablation studies for Pro-Temp's design choices.

Each function isolates one knob the paper (or our reproduction) fixes and
measures what changes.  These back the `benchmarks/bench_ablations.py`
harness and EXPERIMENTS.md's discussion:

* gradient objective weight (Eq. 5's trade-off),
* thermal-sensor noise in the control loop (robustness of the table's
  round-up semantics),
* Phase-1 grid resolution (safety is grid-independent; performance is not),
* DFS period (reactive overshoot grows with it; proactive feasibility
  shrinks),
* constraint-step thinning (`step_subsample` fidelity),
* temperature-dependent leakage the optimizer did not model (guarantee
  stress + margin remediation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.control import BasicDFSPolicy, ProTempPolicy, ThermalManagementUnit
from repro.core import ProTempOptimizer, build_frequency_table
from repro.core.table import FrequencyTable
from repro.platform import Platform
from repro.power import LeakageModel
from repro.scenario.specs import DEFAULT_F_GRID
from repro.sim import MulticoreSimulator, SimulationConfig
from repro.thermal.sensors import IdealSensor, NoisySensor
from repro.units import mhz, to_mhz
from repro.workloads import compute_benchmark

# ---------------------------------------------------------------------------
# Gradient weight (Eq. 5)
# ---------------------------------------------------------------------------


@dataclass
class GradientWeightAblation:
    """Trade-off between total power and spatial gradient.

    Attributes:
        weights: objective weights swept.
        gradients: predicted max core gradient at each weight (Celsius).
        total_power: total core power at each weight (W).
    """

    weights: tuple[float, ...]
    gradients: list[float]
    total_power: list[float]


def ablate_gradient_weight(
    platform: Platform,
    *,
    t_start: float = 85.0,
    f_target: float = mhz(500),
    weights: tuple[float, ...] = (0.0, 0.5, 1.0, 5.0, 20.0),
) -> GradientWeightAblation:
    """Sweep Eq. 5's gradient weight at a fixed design point."""
    gradients, powers = [], []
    for weight in weights:
        optimizer = ProTempOptimizer(
            platform,
            step_subsample=5,
            minimize_gradient=weight > 0,
            gradient_weight=max(weight, 1e-9),
        )
        a = optimizer.solve(t_start, f_target)
        gradients.append(a.predicted_gradient if a.feasible else np.inf)
        powers.append(float(np.sum(a.core_power)))
    return GradientWeightAblation(
        weights=weights, gradients=gradients, total_power=powers
    )


# ---------------------------------------------------------------------------
# Sensor noise robustness
# ---------------------------------------------------------------------------


@dataclass
class SensorNoiseAblation:
    """Closed-loop Pro-Temp under noisy sensing.

    Attributes:
        noise_stds: sensor noise levels swept (Celsius).
        violation_fractions: fraction of (core, step) samples above t_max.
        peaks: hottest observed core temperature (Celsius).
    """

    noise_stds: tuple[float, ...]
    violation_fractions: list[float]
    peaks: list[float]


def ablate_sensor_noise(
    platform: Platform,
    table: FrequencyTable,
    *,
    noise_stds: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0),
    duration: float = 20.0,
    seed: int = 7,
) -> SensorNoiseAblation:
    """Run the closed loop with increasingly noisy sensors.

    The run-time lookup rounds the measured maximum *up* to the next grid
    row, which absorbs under-reads up to the local grid spacing; larger
    noise can break the guarantee — this ablation measures by how much.
    """
    trace = compute_benchmark(duration, platform.n_cores, seed=seed)
    fractions, peaks = [], []
    for std in noise_stds:
        sensor = (
            IdealSensor()
            if std == 0
            else NoisySensor(noise_std=std, quantization=0.5, seed=seed)
        )
        tmu = ThermalManagementUnit(
            policy=ProTempPolicy(table),
            f_max=platform.f_max,
            t_max=platform.t_max,
            window=0.1,
            sensor=sensor,
        )
        sim = MulticoreSimulator(
            platform, tmu, config=SimulationConfig(max_time=duration)
        )
        result = sim.run(trace)
        fractions.append(result.metrics.violation_fraction)
        peaks.append(result.metrics.peak_temperature)
    return SensorNoiseAblation(
        noise_stds=noise_stds, violation_fractions=fractions, peaks=peaks
    )


# ---------------------------------------------------------------------------
# Phase-1 grid resolution
# ---------------------------------------------------------------------------


@dataclass
class TableResolutionAblation:
    """Performance vs table grid density (safety must be unaffected).

    Attributes:
        labels: grid descriptions.
        cells: design points per table.
        mean_frequency_mhz: closed-loop mean frequency served.
        completed_tasks: tasks finished within the horizon.
        violations: violation fractions (must all be 0).
    """

    labels: list[str]
    cells: list[int]
    mean_frequency_mhz: list[float]
    completed_tasks: list[int]
    violations: list[float]


def ablate_table_resolution(
    platform: Platform,
    default_table: FrequencyTable,
    *,
    duration: float = 20.0,
    seed: int = 7,
) -> TableResolutionAblation:
    """Compare a deliberately coarse Phase-1 grid with the default one."""
    optimizer = ProTempOptimizer(platform, step_subsample=5)
    coarse = build_frequency_table(
        optimizer,
        [70.0, 90.0, 100.0],
        [mhz(250), mhz(500), mhz(1000)],
    )
    trace = compute_benchmark(duration, platform.n_cores, seed=seed)
    labels, cells, freqs, completed, violations = [], [], [], [], []
    for label, table in (
        ("coarse 3x3", coarse),
        (
            f"default {len(default_table.t_grid)}x{len(default_table.f_grid)}",
            default_table,
        ),
    ):
        tmu = ThermalManagementUnit(
            policy=ProTempPolicy(table),
            f_max=platform.f_max,
            t_max=platform.t_max,
            window=0.1,
        )
        sim = MulticoreSimulator(
            platform, tmu, config=SimulationConfig(max_time=duration)
        )
        result = sim.run(trace)
        labels.append(label)
        cells.append(len(table.t_grid) * len(table.f_grid))
        freqs.append(to_mhz(result.metrics.mean_frequency))
        completed.append(result.metrics.completed_tasks)
        violations.append(result.metrics.violation_fraction)
    return TableResolutionAblation(
        labels=labels,
        cells=cells,
        mean_frequency_mhz=freqs,
        completed_tasks=completed,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# DFS period
# ---------------------------------------------------------------------------


@dataclass
class DfsPeriodAblation:
    """Reactive overshoot and proactive feasibility vs the DFS period.

    Attributes:
        windows: DFS periods swept (s).
        basic_violation_fractions: Basic-DFS time above t_max.
        basic_peaks: Basic-DFS hottest sample (Celsius).
        protemp_boundaries_mhz: Pro-Temp max feasible average frequency at
            an 85 C start for each window length.
    """

    windows: tuple[float, ...]
    basic_violation_fractions: list[float]
    basic_peaks: list[float]
    protemp_boundaries_mhz: list[float]


def ablate_dfs_period(
    platform: Platform,
    *,
    windows: tuple[float, ...] = (0.05, 0.1, 0.2),
    duration: float = 20.0,
    seed: int = 7,
) -> DfsPeriodAblation:
    """Sweep the DFS period for both the baseline and the optimizer."""
    trace = compute_benchmark(duration, platform.n_cores, seed=seed)
    fractions, peaks, boundaries = [], [], []
    for window in windows:
        tmu = ThermalManagementUnit(
            policy=BasicDFSPolicy(threshold=90.0),
            f_max=platform.f_max,
            t_max=platform.t_max,
            window=window,
        )
        sim = MulticoreSimulator(
            platform,
            tmu,
            config=SimulationConfig(max_time=duration, window=window),
        )
        result = sim.run(trace)
        fractions.append(result.metrics.violation_fraction)
        peaks.append(result.metrics.peak_temperature)
        optimizer = ProTempOptimizer(
            platform, horizon=window, step_subsample=5
        )
        boundaries.append(to_mhz(optimizer.max_feasible_target(85.0)))
    return DfsPeriodAblation(
        windows=windows,
        basic_violation_fractions=fractions,
        basic_peaks=peaks,
        protemp_boundaries_mhz=boundaries,
    )


# ---------------------------------------------------------------------------
# Constraint-step thinning fidelity
# ---------------------------------------------------------------------------


@dataclass
class SubsampleAblation:
    """Effect of thinning the per-step temperature constraints.

    Attributes:
        subsamples: thinning factors swept (1 = the paper's every-step).
        boundaries_mhz: feasibility boundary at 85 C per factor.
        worst_overshoot: the worst violation (Celsius above t_max; negative
            means margin) when each factor's boundary solution is
            re-simulated at *full* step resolution.
    """

    subsamples: tuple[int, ...]
    boundaries_mhz: list[float]
    worst_overshoot: list[float]


def ablate_step_subsample(
    platform: Platform,
    *,
    subsamples: tuple[int, ...] = (1, 2, 5, 10, 25),
    t_start: float = 85.0,
) -> SubsampleAblation:
    """Quantify the safety cost of constraining every k-th step only."""
    boundaries, overshoots = [], []
    for factor in subsamples:
        optimizer = ProTempOptimizer(platform, step_subsample=factor)
        boundary = optimizer.max_feasible_target(t_start)
        boundaries.append(to_mhz(boundary))
        a = optimizer.solve(t_start, boundary * 0.995)
        if not a.feasible:
            overshoots.append(np.nan)
            continue
        node_power = platform.power.injection_matrix() @ a.core_power
        traj = platform.thermal.simulate(
            t_start, node_power, optimizer.response.m
        )
        overshoots.append(float(traj.max() - platform.t_max))
    return SubsampleAblation(
        subsamples=subsamples,
        boundaries_mhz=boundaries,
        worst_overshoot=overshoots,
    )


# ---------------------------------------------------------------------------
# Unmodeled leakage stress + margin remediation
# ---------------------------------------------------------------------------


@dataclass
class LeakageStressAblation:
    """Guarantee under leakage the optimizer did not model.

    Attributes:
        leak_violation: violation fraction when the plant adds
            temperature-dependent leakage but the table assumed none.
        leak_peak: hottest sample in that run (Celsius).
        guarded_violation: same plant, but the table was built against a
            reduced temperature cap (a design margin).
        guarded_peak: hottest sample of the guarded run.
        margin: the cap reduction used (Celsius).
    """

    leak_violation: float
    leak_peak: float
    guarded_violation: float
    guarded_peak: float
    margin: float


def ablate_leakage_stress(
    platform: Platform,
    table: FrequencyTable,
    *,
    margin: float = 5.0,
    duration: float = 20.0,
    seed: int = 7,
) -> LeakageStressAblation:
    """Stress the guarantee with unmodeled leakage, then add a margin.

    The leaky plant adds an exponential leakage term per core
    (0.4 W at 60 C, +1.2%/K — roughly +0.6 W/core near the cap, enough to
    visibly break the table's built-in conservatism) that the Phase-1
    optimization knew nothing about; violations appear.  The remediation
    builds the table against ``t_max - margin`` — the classic guard-band —
    and must restore zero violations while the *reported* limit stays at
    ``t_max``.  (5 C suffices for this leakage level; 3 C does not —
    measured in the benchmark.)
    """
    leak = LeakageModel(p_ref=0.4, alpha=0.012, t_ref=60.0)
    leaky = Platform.niagara8(leakage=leak, t_max=platform.t_max)
    trace = compute_benchmark(duration, platform.n_cores, seed=seed)

    def run(with_table: FrequencyTable):
        tmu = ThermalManagementUnit(
            policy=ProTempPolicy(with_table),
            f_max=leaky.f_max,
            t_max=leaky.t_max,
            window=0.1,
        )
        sim = MulticoreSimulator(
            leaky, tmu, config=SimulationConfig(max_time=duration)
        )
        return sim.run(trace)

    stressed = run(table)

    guard_platform = Platform.niagara8(t_max=platform.t_max - margin)
    guard_optimizer = ProTempOptimizer(guard_platform, step_subsample=5)
    guard_table = build_frequency_table(
        guard_optimizer,
        list(table.t_grid),
        list(DEFAULT_F_GRID),
    )
    guarded = run(guard_table)

    return LeakageStressAblation(
        leak_violation=stressed.metrics.violation_fraction,
        leak_peak=stressed.metrics.peak_temperature,
        guarded_violation=guarded.metrics.violation_fraction,
        guarded_peak=guarded.metrics.peak_temperature,
        margin=margin,
    )
