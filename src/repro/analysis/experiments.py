"""One runner per paper figure (the per-experiment index of DESIGN.md).

Every figure-level runner is a thin *scenario grid + reducer* on top of
`repro.scenario`: it declares the grid of :class:`ScenarioSpec` cells the
figure needs, hands them to a :class:`ScenarioRunner` (which deduplicates
platforms and Phase-1 tables), and reduces the outcomes into a small result
object exposing the figure's series plus a ``text()`` rendering.  The
optimizer-probe figures (9/10) reuse the same runner's artifact caches.

Every runner is deterministic (seeded), scales with a ``duration`` knob so
tests can use short horizons.  The benchmarks in ``benchmarks/`` wrap these
runners and assert the paper's qualitative shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.report import format_band_bars, format_table
from repro.control import DFSPolicy, ThermalManagementUnit
from repro.core.table import FrequencyTable
from repro.platform import Platform
from repro.scenario import (
    POLICIES,
    PlatformSpec,
    PolicySpec,
    ScenarioRunner,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.sim import (
    PAPER_BAND_LABELS,
    MulticoreSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.sim.queueing import AssignmentPolicy
from repro.sim.task import TaskTrace
from repro.units import to_mhz

#: Paper constants (section 5.2).
BASIC_DFS_THRESHOLD = 90.0

#: Figure 9/10 starting-temperature axis (Celsius).
FEASIBILITY_TEMPS = (27.0, 37.0, 47.0, 57.0, 67.0, 77.0, 87.0, 97.0)

#: The evaluation platform, as a spec (paper section 5).
NIAGARA_SPEC = PlatformSpec("niagara8")

#: The paper's three run-time policies, as specs.
NOTC_SPEC = PolicySpec("no-tc")
BASIC_DFS_SPEC = PolicySpec("basic-dfs", {"threshold": BASIC_DFS_THRESHOLD})
PROTEMP_SPEC = PolicySpec("protemp")


def make_platform() -> Platform:
    """The evaluation platform (paper section 5)."""
    return Platform.niagara8()


def run_simulation(
    platform: Platform,
    policy: DFSPolicy,
    trace: TaskTrace,
    *,
    duration: float,
    assignment: AssignmentPolicy | None = None,
    t_initial: float = 45.0,
) -> SimulationResult:
    """Run one closed-loop simulation with the standard configuration.

    The low-level escape hatch for callers holding live objects (a policy
    instance, a pre-built trace); spec-driven callers should build a
    :class:`ScenarioSpec` and use :class:`ScenarioRunner` instead.
    """
    tmu = ThermalManagementUnit(
        policy=policy,
        f_max=platform.f_max,
        t_max=platform.t_max,
        window=0.1,
    )
    sim = MulticoreSimulator(
        platform,
        tmu,
        assignment=assignment,
        config=SimulationConfig(max_time=duration, t_initial=t_initial),
    )
    return sim.run(trace)


def _figure_runner(
    platform: Platform | None,
    table: FrequencyTable | None,
    policy_specs: tuple[PolicySpec, ...],
    outcome_store=None,
) -> tuple[ScenarioRunner, Platform]:
    """A ScenarioRunner primed with the caller's pre-built artifacts.

    When `table` is None, a table-driven policy's table comes from the
    runner's own cache (`ScenarioRunner.table`, a gen2 build) the first
    time a scenario needs it.

    `outcome_store` (an `repro.scenario.store.OutcomeStore` or directory
    path) lets summary-level figures replay already-computed scenarios
    instead of re-simulating them; a replay never resolves a table, so a
    figure whose every cell replays never pays the Phase-1 build.
    """
    platform = platform or make_platform()
    runner = ScenarioRunner(outcome_store=outcome_store)
    runner.prime_platform(NIAGARA_SPEC, platform)
    if table is not None:
        for spec in policy_specs:
            if POLICIES.get(spec.name).needs_table:
                runner.prime_table(NIAGARA_SPEC, spec, table)
    return runner, platform


# ---------------------------------------------------------------------------
# Figures 1 & 2 — temperature snapshots under Basic-DFS vs Pro-Temp
# ---------------------------------------------------------------------------


@dataclass
class SnapshotResult:
    """Core-temperature time series for one policy (Figures 1 and 2).

    Attributes:
        policy_name: which policy ran.
        times: sample times (s).
        temperature: P1 temperature (Celsius) at those times.
        t_max: the limit (100 C).
        violation_fraction: fraction of (core, step) samples above t_max.
        peak: hottest core sample (Celsius).
    """

    policy_name: str
    times: np.ndarray
    temperature: np.ndarray
    t_max: float
    violation_fraction: float
    peak: float

    def text(self) -> str:
        """Summary line matching the figure caption."""
        return (
            f"{self.policy_name}: P1 over {self.times[-1]:.0f}s, peak "
            f"{self.peak:.1f}C, {self.violation_fraction * 100:.1f}% of "
            f"core-time above {self.t_max:.0f}C"
        )


def run_snapshot(
    policy_kind: str,
    *,
    duration: float = 60.0,
    seed: int = 7,
    platform: Platform | None = None,
    table: FrequencyTable | None = None,
) -> SnapshotResult:
    """Figure 1 (``policy_kind="basic"``) / Figure 2 (``"protemp"``).

    Mixed-benchmark trace; returns processor P1's temperature history.
    """
    if policy_kind == "basic":
        policy_spec = BASIC_DFS_SPEC
    elif policy_kind == "protemp":
        policy_spec = PROTEMP_SPEC
    else:
        raise ValueError(f"unknown policy kind {policy_kind!r}")
    runner, platform = _figure_runner(platform, table, (policy_spec,))
    outcome = runner.run(
        ScenarioSpec(
            platform=NIAGARA_SPEC,
            workload=WorkloadSpec("mixed", duration),
            policy=policy_spec,
            seed=seed,
            name=f"fig1/2-{policy_kind}",
        )
    )
    # Timeseries-level figure: needs a full SimulationResult (outcome
    # stores persist summary rows only, so no outcome_store replay here).
    result = outcome.require_result()
    return SnapshotResult(
        policy_name=result.policy_name,
        times=result.timeseries.times,
        temperature=result.timeseries.core(0),
        t_max=platform.t_max,
        violation_fraction=result.metrics.violation_fraction,
        peak=result.metrics.peak_temperature,
    )


# ---------------------------------------------------------------------------
# Figure 6 — time per temperature band for the three policies
# ---------------------------------------------------------------------------


@dataclass
class BandComparisonResult:
    """Figure 6 data: per-policy band fractions.

    Attributes:
        trace_kind: "mixed" (6a) or "compute" (6b).
        fractions: policy name -> 4 band fractions (<80, 80-90, 90-100,
            >100), averaged across cores.
        waiting: policy name -> mean task waiting time (s).
    """

    trace_kind: str
    fractions: dict[str, np.ndarray]
    waiting: dict[str, float] = field(default_factory=dict)

    def text(self) -> str:
        """Figure 6-style band table."""
        return format_band_bars(
            PAPER_BAND_LABELS,
            {k: list(v) for k, v in self.fractions.items()},
        )

    def rows(self) -> list[list[object]]:
        """Rows: policy, then one column per band."""
        return [
            [name, *[float(f) for f in fractions]]
            for name, fractions in self.fractions.items()
        ]


def run_band_comparison(
    trace_kind: str,
    *,
    duration: float = 40.0,
    seed: int = 7,
    platform: Platform | None = None,
    table: FrequencyTable | None = None,
    outcome_store=None,
) -> BandComparisonResult:
    """Figure 6a (``trace_kind="mixed"``) / 6b (``"compute"``).

    A summary-level reducer: with `outcome_store`, cells already in the
    store replay without re-simulating (band fractions and waiting times
    live in the stored summary rows).
    """
    policy_specs = (NOTC_SPEC, BASIC_DFS_SPEC, PROTEMP_SPEC)
    runner, platform = _figure_runner(
        platform, table, policy_specs, outcome_store
    )
    outcomes = runner.run_many(
        ScenarioSpec.grid(
            ScenarioSpec(
                platform=NIAGARA_SPEC,
                workload=WorkloadSpec(trace_kind, duration),
                seed=seed,
                name=f"fig6-{trace_kind}",
            ),
            policy=policy_specs,
        )
    )
    fractions: dict[str, np.ndarray] = {}
    waiting: dict[str, float] = {}
    for outcome in outcomes:
        fractions[outcome.policy_label] = outcome.band_fractions
        waiting[outcome.policy_label] = outcome.mean_wait_s
    return BandComparisonResult(
        trace_kind=trace_kind, fractions=fractions, waiting=waiting
    )


# ---------------------------------------------------------------------------
# Figure 7 — normalized average task waiting time
# ---------------------------------------------------------------------------


@dataclass
class WaitingResult:
    """Figure 7 data.

    Attributes:
        basic_wait: Basic-DFS mean waiting time (s).
        protemp_wait: Pro-Temp mean waiting time (s).
    """

    basic_wait: float
    protemp_wait: float

    @property
    def normalized(self) -> float:
        """Pro-Temp wait / Basic-DFS wait (the paper reports ~0.4)."""
        if self.basic_wait == 0:
            return 0.0 if self.protemp_wait == 0 else np.inf
        return self.protemp_wait / self.basic_wait

    def text(self) -> str:
        """Figure 7 caption-style summary."""
        return format_table(
            ["policy", "mean wait (ms)", "normalized"],
            [
                ["Basic-DFS", self.basic_wait * 1e3, 1.0],
                ["Pro-Temp", self.protemp_wait * 1e3, self.normalized],
            ],
            title="Figure 7: average task waiting time",
        )


def run_waiting_comparison(
    *,
    duration: float = 40.0,
    seed: int = 7,
    platform: Platform | None = None,
    table: FrequencyTable | None = None,
    outcome_store=None,
) -> WaitingResult:
    """Figure 7: waiting times on the computation-intensive benchmark.

    A summary-level reducer: replays from `outcome_store` when given.
    """
    policy_specs = (BASIC_DFS_SPEC, PROTEMP_SPEC)
    runner, platform = _figure_runner(
        platform, table, policy_specs, outcome_store
    )
    basic, protemp = runner.run_many(
        ScenarioSpec.grid(
            ScenarioSpec(
                platform=NIAGARA_SPEC,
                workload=WorkloadSpec("compute", duration),
                seed=seed,
                name="fig7",
            ),
            policy=policy_specs,
        )
    )
    return WaitingResult(
        basic_wait=basic.mean_wait_s,
        protemp_wait=protemp.mean_wait_s,
    )


# ---------------------------------------------------------------------------
# Figure 8 — P1/P2 temperatures over time under Pro-Temp
# ---------------------------------------------------------------------------


@dataclass
class GradientTimeseriesResult:
    """Figure 8 data.

    Attributes:
        times: sample times (s).
        p1: P1 temperatures (Celsius).
        p2: P2 temperatures (Celsius).
        mean_gap: average |P1 - P2| over the run.
        max_gap: peak |P1 - P2|.
    """

    times: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    mean_gap: float
    max_gap: float

    def text(self) -> str:
        """Caption-style summary."""
        return (
            f"Figure 8: P1/P2 under Pro-Temp — mean gap "
            f"{self.mean_gap:.2f}C, max gap {self.max_gap:.2f}C"
        )


def run_gradient_timeseries(
    *,
    duration: float = 60.0,
    seed: int = 7,
    platform: Platform | None = None,
    table: FrequencyTable | None = None,
) -> GradientTimeseriesResult:
    """Figure 8: the two processors' temperatures under Pro-Temp."""
    runner, platform = _figure_runner(platform, table, (PROTEMP_SPEC,))
    outcome = runner.run(
        ScenarioSpec(
            platform=NIAGARA_SPEC,
            workload=WorkloadSpec("mixed", duration),
            policy=PROTEMP_SPEC,
            seed=seed,
            name="fig8",
        )
    )
    result = outcome.require_result()
    p1 = result.timeseries.core(0)
    p2 = result.timeseries.core(1)
    gaps = np.abs(p1 - p2)
    return GradientTimeseriesResult(
        times=result.timeseries.times,
        p1=p1,
        p2=p2,
        mean_gap=float(gaps.mean()) if len(gaps) else 0.0,
        max_gap=float(gaps.max()) if len(gaps) else 0.0,
    )


# ---------------------------------------------------------------------------
# Figure 9 — uniform vs variable feasible average frequency
# ---------------------------------------------------------------------------


@dataclass
class FeasibilitySweepResult:
    """Figure 9 data.

    Attributes:
        temps: starting temperatures (Celsius).
        uniform_mhz: max feasible average frequency, uniform mode (MHz).
        variable_mhz: same for per-core (variable) mode (MHz).
    """

    temps: np.ndarray
    uniform_mhz: np.ndarray
    variable_mhz: np.ndarray

    def text(self) -> str:
        """Figure 9-style series table."""
        rows = [
            [t, u, v]
            for t, u, v in zip(self.temps, self.uniform_mhz, self.variable_mhz)
        ]
        return format_table(
            ["start temp (C)", "uniform (MHz)", "variable (MHz)"],
            rows,
            title="Figure 9: max feasible average frequency",
        )


def run_feasibility_sweep(
    *,
    temps: tuple[float, ...] = FEASIBILITY_TEMPS,
    platform: Platform | None = None,
) -> FeasibilitySweepResult:
    """Figure 9: sweep starting temperature for both assignment modes.

    An optimizer probe, not a closed-loop simulation — it still runs on
    the :class:`ScenarioRunner` substrate, whose artifact caches hold one
    optimizer per (platform spec, mode).
    """
    runner, platform = _figure_runner(platform, None, ())
    var_opt = runner.optimizer(NIAGARA_SPEC, mode="variable")
    uni_opt = runner.optimizer(NIAGARA_SPEC, mode="uniform")
    uniform = [to_mhz(uni_opt.max_feasible_target(t)) for t in temps]
    variable = [to_mhz(var_opt.max_feasible_target(t)) for t in temps]
    return FeasibilitySweepResult(
        temps=np.array(temps),
        uniform_mhz=np.array(uniform),
        variable_mhz=np.array(variable),
    )


# ---------------------------------------------------------------------------
# Figure 10 — per-core frequencies chosen by the optimizer
# ---------------------------------------------------------------------------


@dataclass
class PerCoreFrequencyResult:
    """Figure 10 data.

    Attributes:
        temps: starting temperatures (Celsius).
        p1_mhz: optimizer frequency for periphery core P1 (MHz).
        p2_mhz: optimizer frequency for middle core P2 (MHz).
    """

    temps: np.ndarray
    p1_mhz: np.ndarray
    p2_mhz: np.ndarray

    def text(self) -> str:
        """Figure 10-style series table."""
        rows = [
            [t, a, b] for t, a, b in zip(self.temps, self.p1_mhz, self.p2_mhz)
        ]
        return format_table(
            ["start temp (C)", "P1 (MHz)", "P2 (MHz)"],
            rows,
            title="Figure 10: per-core frequencies (variable assignment)",
        )


def run_per_core_frequency(
    *,
    temps: tuple[float, ...] = FEASIBILITY_TEMPS,
    target_fraction: float = 0.97,
    platform: Platform | None = None,
) -> PerCoreFrequencyResult:
    """Figure 10: P1 vs P2 frequency at a near-maximal feasible target.

    At each starting temperature the variable-mode program is solved for
    ``target_fraction`` of the max feasible average frequency, so the
    thermal constraints bind and the periphery/middle split is visible.
    """
    runner, platform = _figure_runner(platform, None, ())
    optimizer = runner.optimizer(NIAGARA_SPEC, mode="variable")
    p1_list, p2_list = [], []
    for t in temps:
        f_max_feasible = optimizer.max_feasible_target(t)
        assignment = optimizer.solve(t, f_max_feasible * target_fraction)
        p1_list.append(to_mhz(assignment.frequencies[0]))
        p2_list.append(to_mhz(assignment.frequencies[1]))
    return PerCoreFrequencyResult(
        temps=np.array(temps),
        p1_mhz=np.array(p1_list),
        p2_mhz=np.array(p2_list),
    )


# ---------------------------------------------------------------------------
# Figure 11 — effect of the task-assignment policy
# ---------------------------------------------------------------------------


@dataclass
class AssignmentEffectResult:
    """Figure 11 / section 5.4 data.

    Attributes:
        basic_first_idle_over: Basic-DFS fraction of core-time above t_max
            with the default first-idle assignment.
        basic_coolest_over: same with the temperature-aware assignment.
        protemp_gradient_first_idle: Pro-Temp mean spatial gradient with
            first-idle assignment (Celsius).
        protemp_gradient_coolest: same with the temperature-aware
            assignment (Celsius).
    """

    basic_first_idle_over: float
    basic_coolest_over: float
    protemp_gradient_first_idle: float
    protemp_gradient_coolest: float

    @property
    def gradient_reduction(self) -> float:
        """Relative reduction of Pro-Temp's spatial gradient (paper: ~16%)."""
        if self.protemp_gradient_first_idle == 0:
            return 0.0
        return 1.0 - (
            self.protemp_gradient_coolest / self.protemp_gradient_first_idle
        )

    def text(self) -> str:
        """Figure 11-style table."""
        rows = [
            ["Basic-DFS, first-idle", self.basic_first_idle_over * 100],
            ["Basic-DFS, temperature-aware", self.basic_coolest_over * 100],
        ]
        table = format_table(
            ["configuration", "% core-time above t_max"],
            rows,
            title="Figure 11: effect of task assignment",
        )
        return table + (
            f"\nPro-Temp spatial gradient: {self.protemp_gradient_first_idle:.2f}C "
            f"-> {self.protemp_gradient_coolest:.2f}C "
            f"({self.gradient_reduction * 100:.0f}% reduction)"
        )


def run_assignment_effect(
    *,
    duration: float = 40.0,
    seed: int = 7,
    platform: Platform | None = None,
    table: FrequencyTable | None = None,
    outcome_store=None,
) -> AssignmentEffectResult:
    """Figure 11: Basic-DFS and Pro-Temp under both assignment policies.

    Uses the thread-level server workload (long jobs, partial occupancy) —
    the regime of the temperature-aware assignment of [26] the paper
    integrates; see `repro.workloads.benchmarks.server_benchmark` for why
    the 1-10 ms task mixes cannot exhibit an assignment effect.
    """
    policy_specs = (BASIC_DFS_SPEC, PROTEMP_SPEC)
    runner, platform = _figure_runner(
        platform, table, policy_specs, outcome_store
    )
    basic_fi, basic_cf, pro_fi, pro_cf = runner.run_many(
        ScenarioSpec.grid(
            ScenarioSpec(
                platform=NIAGARA_SPEC,
                workload=WorkloadSpec("server", duration),
                seed=seed,
                name="fig11",
            ),
            policy=policy_specs,
            assignment=["first-idle", "coolest-first"],
        )
    )
    return AssignmentEffectResult(
        basic_first_idle_over=basic_fi.violation_fraction,
        basic_coolest_over=basic_cf.violation_fraction,
        protemp_gradient_first_idle=pro_fi.gradient_mean_c,
        protemp_gradient_coolest=pro_cf.gradient_mean_c,
    )
