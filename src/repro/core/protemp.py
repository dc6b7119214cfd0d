"""The Pro-Temp convex optimization (paper section 4, Eqs. 3-5).

Solves, for one DFS window, the frequency-assignment problem::

    minimize    sum_i p_i  (+ lambda * t_grad)                (Eq. 3 / Eq. 5)
    subject to  t_{k} = affine(p)          (thermal dynamics, Eq. 1)
                t_{k,node} <= t_max        for every step k and node
                t_{k,i} - t_{k,j} <= t_grad  for all core pairs (Eq. 4)
                sum_i f_i >= n f_target    (performance, via sqrt in p-space)
                0 <= p_i <= p_max,  f_i = f_max sqrt(p_i / p_max)   (Eq. 2)

in **power space**, where everything except the frequency requirement is
linear (see `repro.core.formulation`).  Eq. 2 is imposed as the definition
of the recovered frequency rather than an inequality: since the objective
minimizes power and temperatures increase with power, the paper's relaxed
form ``p_max f_i^2 / f_max^2 <= p_i`` is always tight at an optimum.

Two assignment modes (paper section 5.3):

* ``variable`` — each core gets its own frequency (the full program above);
* ``uniform`` — all cores share one frequency, as in Niagara-class designs.
  The program then has a single scalar degree of freedom and minimizing
  power forces ``f = f_target`` exactly, so the solve reduces to a closed-
  form feasibility check (no iterative solver needed).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from repro.errors import SolverError, did_you_mean
from repro.core.formulation import StackedConstraints, WindowResponse
from repro.platform import Platform
from repro.solver.barrier import (
    BarrierOptions,
    final_stage_weight,
    solve_barrier,
)
from repro.solver.compiled import CompiledConstraints, blocks_signature
from repro.solver.newton import NewtonOptions
from repro.solver.problem import (
    BoxConstraint,
    LinearInequality,
    LinearObjective,
    NegativeSqrtObjective,
    SqrtSumConstraint,
    total_constraints,
)
from repro.solver.result import SolveStatus
from repro.solver.scipy_backend import solve_scipy
from repro.thermal.constants import PAPER_DFS_PERIOD

Mode = Literal["variable", "uniform"]
Backend = Literal["barrier", "scipy"]

#: Valid solver backend names, in the order shown by error messages.  The
#: scenario-spec layer validates against this same tuple so a typo fails
#: identically at spec parse, optimizer construction, and service submit.
BACKENDS: tuple[str, ...] = ("barrier", "scipy")

#: Strictly positive floor on core power (W) keeping sqrt derivatives finite.
POWER_FLOOR = 1e-9

#: Upper bound on the t_grad variable (Celsius); loose, never binding.
T_GRAD_CEILING = 500.0

#: Feasibility margin for *warm-start acceptance*.  A barrier optimum's
#: active rows sit at slack ~``1 / (t_final * lambda)`` — order 1e-9 for
#: this problem family — so a neighbor's optimum generically fails the
#: solver's default 1e-9 safety margin even though it is a perfectly good
#: (strictly interior) start.  Warm paths therefore accept any start whose
#: worst violation is below this much looser threshold: the barrier only
#: needs slack > 0 to be finite, and the first centering stage immediately
#: restores a comfortable interior.
WARM_START_MARGIN = 1e-12

#: Gradient-variable lift applied to every warm start (Celsius).  The
#: neighbor's optimum has its gradient rows active to ~1e-9 slack (the
#: gradient objective pins them); starting Newton from such a razor-thin
#: interior point stalls its line search.  Lifting ``t_grad`` restores a
#: comfortable slack on every gradient row at zero risk — the variable is
#: re-optimized immediately.
WARM_T_GRAD_LIFT = 1.0

#: Relative power shrink applied when a warm start's *thermal* rows are
#: tight (boundary-limited neighbor cells).  Lowering power loosens every
#: thermal row (monotonicity); it is only applied when the sqrt constraint
#: keeps real slack afterwards, which the within-row walk guarantees (the
#: frequency target just dropped by a grid step).
WARM_POWER_SHRINK = 1e-3

#: Minimum interior comfort (negative max violation) required before a
#: warm start may use the accelerated ``warm_schedule`` stage hints.  A
#: start hugging a wall this closely (e.g. an un-liftable ``t_grad``
#: under a tight cap) can pin Newton's line search at the hint's high
#: stage weight; the ordinary full schedule handles such starts safely.
WARM_HINT_MARGIN = 1e-6

#: Structural subsample of the pairwise-gradient step rows kept by the
#: pruned pre-solve: every k-th step plus the trailing
#: :data:`GRADIENT_PRUNE_TAIL` steps of every pair.  The max pairwise
#: difference is attained at (or within float noise of) the *final* step —
#: trajectories from a uniform start approach steady state monotonically —
#: so slack-threshold pruning is the wrong tool here (the steady-state
#: plateau leaves hundreds of rows within ~0.01 C of the max) while a
#: step subsample keeps the binding rows exactly.  Any residual violation
#: of a dropped step row is repaired in closed form by lifting ``t_grad``
#: before the full-stack polish.
GRADIENT_PRUNE_SUBSAMPLE = 5
GRADIENT_PRUNE_TAIL = 3

#: The kept gradient rows of the pruned pre-solve are *tightened* by this
#: much (Celsius).  The steady-state plateau puts dropped step rows within
#: ~1e-14 of the kept maximum, so an untightened pruned optimum leaves
#: them at essentially zero slack and the full-stack polish starts against
#: the log barrier's 1/slack^2 curvature wall (observed: polish Newton
#: creeps into its iteration cap).  Tightening biases ``t_grad`` up by
#: this margin, giving every dropped row comfortable slack while
#: perturbing the pre-solution by only ~1e-6 — the same order as a normal
#: barrier stage start, which the polish absorbs in a few iterations.
GRADIENT_PRUNE_TIGHTEN = 1e-6

#: KKT stationarity tolerance, relative to ``max(1, |c|_inf)``, that
#: certifies a pruned cell's polished point.  The polish returns the
#: center of the cold schedule's final barrier weight ``t``, where
#: ``c + grad_phi(x) / t`` — the stationarity residual under the
#: barrier's own multipliers ``1 / (t * slack)`` — is near zero.  A pruned
#: pre-solve can stall far from the optimum at a point where the
#: barrier's curvature wall stops Newton's line search; the polish then
#: "converges" in place and the residual stays large.  Measured on
#: Niagara-8 (step_subsample 5): 331 correct cells over the default
#: figure grid and jittered 4x10 grids read <= 2.6e-3.  Stalled cells read
#: 6.6e5 (100.09 C, 99 MHz: +13.7% power) and 1.1e5 (the three 200 MHz
#: cells below 100 C of the 4x5 grid at step_subsample 10).
PRUNED_KKT_TOL = 0.1


@dataclass
class _PruneState:
    """Per-problem-structure sparse-pruning state.

    Attributes:
        thermal_rows: rows of the leading (thermal) linear block; these are
            pruned adaptively by observed slack.
        gradient_rows: rows of the pairwise-gradient linear block; these
            are subsampled structurally and tightened by
            :data:`GRADIENT_PRUNE_TIGHTEN` in the pre-solve.
        mask: boolean keep-mask over all stacked linear rows (thermal part
            grows as near-active rows are observed; gradient part is the
            fixed structural subsample).
        thermal_seeded: False until a full-stack optimum has seeded the
            thermal active set (the first cell of a sweep solves unpruned).
    """

    thermal_rows: int
    gradient_rows: int
    mask: np.ndarray
    thermal_seeded: bool = False

    def kept_gradient_span(self) -> tuple[int, int]:
        """(start, stop) of the kept gradient rows inside the pruned stack."""
        kept_thermal = int(self.mask[: self.thermal_rows].sum())
        kept_gradient = int(
            self.mask[
                self.thermal_rows : self.thermal_rows + self.gradient_rows
            ].sum()
        )
        return kept_thermal, kept_thermal + kept_gradient


@dataclass(frozen=True)
class FrequencyAssignment:
    """Result of one Pro-Temp solve (one table cell of Figure 4).

    Attributes:
        feasible: whether the (t_start, f_target) point is achievable.
        frequencies: per-core frequencies (Hz), floorplan core order; zeros
            when infeasible.
        core_power: per-core power (W) implied by Eq. 2.
        predicted_peak: model-predicted max node temperature over the window
            (Celsius); +inf when infeasible.
        predicted_gradient: model-predicted max pairwise core temperature
            difference over the window (Celsius).
        objective: solver objective value (total power, plus the gradient
            term when enabled).
        t_start: starting temperature the solve assumed (Celsius).
        f_target: required average frequency (Hz).
        status: underlying solver status.
        iterations: Newton iterations spent.
        solver_x: raw solver variable vector (power, plus the gradient
            variable when enabled); strictly feasible at a barrier optimum,
            so it can warm-start a neighboring design point (pass it as
            ``x0`` to :meth:`ProTempOptimizer.solve`).  None when
            infeasible or produced by a closed-form path.
    """

    feasible: bool
    frequencies: np.ndarray
    core_power: np.ndarray
    predicted_peak: float
    predicted_gradient: float
    objective: float
    t_start: float
    f_target: float
    status: SolveStatus
    iterations: int = 0
    solver_x: np.ndarray | None = None

    @property
    def average_frequency(self) -> float:
        """Mean core frequency (Hz)."""
        return float(np.mean(self.frequencies))


class ProTempOptimizer:
    """Design-time frequency-assignment optimizer (paper Phase 1).

    Args:
        platform: the multi-core platform.
        horizon: DFS window length in seconds (default 100 ms).
        mode: ``"variable"`` per-core frequencies or ``"uniform"`` one
            shared frequency.
        minimize_gradient: include the Eq. 4/5 spatial-gradient variable and
            objective term.
        gradient_weight: objective weight ``lambda`` on ``t_grad`` (the
            paper's Eq. 5 uses an unweighted sum, i.e. 1.0).
        t_grad_cap: optional hard upper bound on the allowed pairwise
            gradient (Celsius); None leaves it to the objective.
        step_subsample: constrain every k-th thermal step (1 = every step,
            exactly the paper's formulation).
        backend: ``"barrier"`` (native interior point) or ``"scipy"``
            (cross-check backend).
        barrier_options: solver tuning for the barrier backend.
        accelerated: enable the sweep fast paths — memoized per-`t_start`
            constraint data and feasibility boundaries, a compiled
            constraint stack shared across solves (the matrix part of the
            constraints depends only on the platform, never on the design
            point), and an O(1)-rescaled feasibility-boundary objective.
            Results agree with the non-accelerated path to solver
            tolerance (~1e-6 relative on frequencies and boundaries; the
            rescaled boundary solve's absolute duality-gap bound is
            ``gap_tol * f_max`` instead of ``gap_tol`` Hz).  Disable to
            reproduce the cold per-cell cost structure of the original
            implementation (benchmark baselines).
        prune_slack_margin: slack threshold (Celsius) below which a linear
            constraint row observed at an optimum is considered
            "near-active" and retained by the sparse-pruning fast path
            (see :meth:`solve`'s ``prune``).  The default is deliberately
            tight: the gradient-minimization objective leaves *many*
            pairwise-gradient rows clustered within ~0.1 C of active, so a
            loose margin would retain most of the stack and prune nothing.
            Larger margins keep more rows (slower, fewer fallbacks); the
            post-hoc full-stack check makes any value sound.
    """

    def __init__(
        self,
        platform: Platform,
        *,
        horizon: float = PAPER_DFS_PERIOD,
        mode: Mode = "variable",
        minimize_gradient: bool = True,
        gradient_weight: float = 1.0,
        t_grad_cap: float | None = None,
        step_subsample: int = 1,
        backend: Backend = "barrier",
        barrier_options: BarrierOptions | None = None,
        accelerated: bool = True,
        prune_slack_margin: float = 0.02,
    ) -> None:
        if mode not in ("variable", "uniform"):
            raise SolverError(f"unknown mode {mode!r}")
        if backend not in BACKENDS:
            raise SolverError(
                f"unknown backend {backend!r}; choose from {list(BACKENDS)}"
                + did_you_mean(backend, BACKENDS)
            )
        if gradient_weight < 0:
            raise SolverError("gradient_weight must be >= 0")
        if t_grad_cap is not None and t_grad_cap <= 0:
            raise SolverError("t_grad_cap must be positive")
        self.platform = platform
        self.mode: Mode = mode
        self.minimize_gradient = minimize_gradient
        self.gradient_weight = gradient_weight
        self.t_grad_cap = t_grad_cap
        self.backend: Backend = backend
        if barrier_options is None:
            # A gentle schedule (t_initial=1, mu=20) tracks the central path
            # reliably for this problem family; more aggressive schedules
            # were observed to stall Newton against the thousands of thermal
            # constraint rows and return badly off-optimal points.  The gap
            # tolerance is ample for watt-scale objectives and MHz-scale
            # decisions.
            barrier_options = BarrierOptions(
                gap_tol=1e-6,
                newton=NewtonOptions(tol=1e-9, max_iterations=120),
            )
        self.barrier_options = barrier_options
        # Warm paths accept any numerically interior start (see
        # WARM_START_MARGIN); all other tolerances are shared.
        self._warm_options = replace(
            barrier_options, feasibility_margin=WARM_START_MARGIN
        )
        self.accelerated = bool(accelerated)
        if prune_slack_margin <= 0:
            raise SolverError("prune_slack_margin must be positive")
        self.prune_slack_margin = float(prune_slack_margin)
        self.response = WindowResponse(
            platform, horizon=horizon, step_subsample=step_subsample
        )
        # Sweep caches (active when `accelerated`): per-start-temperature
        # constraint data, per-start feasibility boundaries, compiled
        # constraint stacks keyed by problem structure, and the sparse-
        # pruning active-row masks (rows seen near-active at any optimum).
        self._stacked_cache: dict[object, StackedConstraints] = {}
        self._gradient_cache: dict[object, tuple[np.ndarray, np.ndarray]] = {}
        self._boundary_cache: dict[object, tuple[float, np.ndarray] | None] = {}
        self._compiled_cache: dict[tuple, CompiledConstraints] = {}
        self._prune_states: dict[tuple, _PruneState] = {}
        self._rows_with_grad: np.ndarray | None = None
        self._grad_rows_matrix: np.ndarray | None = None

    # -- sweep caches ---------------------------------------------------------

    def clear_start_caches(self) -> None:
        """Drop the per-start-temperature memoizations.

        Long-lived closed-loop users (the MPC policy re-solves at a fresh
        measured temperature every DFS window) would otherwise grow the
        per-start caches without bound — every window's start key is new.
        The structure-level caches (compiled stacks and prune states,
        keyed by problem structure rather than design point) are kept.
        """
        self._stacked_cache.clear()
        self._gradient_cache.clear()
        self._boundary_cache.clear()

    @staticmethod
    def _start_key(t_start: float | np.ndarray) -> object:
        if np.isscalar(t_start):
            return float(t_start)
        arr = np.asarray(t_start, dtype=float)
        return ("vec", arr.tobytes())

    def _stacked_for(
        self, t_start: float | np.ndarray
    ) -> StackedConstraints:
        """`WindowResponse.stacked`, memoized per start temperature."""
        if not self.accelerated:
            return self.response.stacked(t_start)
        key = self._start_key(t_start)
        stacked = self._stacked_cache.get(key)
        if stacked is None:
            stacked = self.response.stacked(t_start)
            self._stacked_cache[key] = stacked
        return stacked

    def _gradient_rows_for(
        self, t_start: float | np.ndarray, stacked: StackedConstraints
    ) -> tuple[np.ndarray, np.ndarray]:
        """`WindowResponse.gradient_rows`, memoized per start temperature."""
        if not self.accelerated:
            return self.response.gradient_rows(stacked)
        key = self._start_key(t_start)
        cached = self._gradient_cache.get(key)
        if cached is None:
            cached = self.response.gradient_rows(stacked)
            self._gradient_cache[key] = cached
        return cached

    def _compiled_for(
        self, blocks: list, n_vars: int
    ) -> CompiledConstraints | None:
        """Compiled stack for `blocks`, reusing the cached matrix part.

        Across a sweep only right-hand sides change (temperature offsets
        with `t_start`, the sqrt target with `f_target`), so the stacked
        matrix is compiled once per problem structure and rebound per cell.
        """
        if not self.accelerated:
            return None
        signature = blocks_signature(blocks)
        template = self._compiled_cache.get(signature)
        if template is None:
            template = CompiledConstraints.compile(blocks, n_vars)
            self._compiled_cache[signature] = template
            return template
        return template.with_blocks(blocks)

    # -- public API -----------------------------------------------------------

    def solve(
        self,
        t_start: float | np.ndarray,
        f_target: float,
        *,
        x0: np.ndarray | None = None,
        warm_from: FrequencyAssignment | None = None,
        prune: bool = False,
        warm_schedule: bool = False,
    ) -> FrequencyAssignment:
        """Optimal frequency assignment for one design point.

        Args:
            t_start: starting temperature — scalar for the table's uniform
                worst-case start, or a full node vector.
            f_target: required average core frequency (Hz), in
                ``[0, f_max]``.
            x0: optional warm start — the ``solver_x`` of a neighboring
                solve (same mode/structure).  When it is strictly feasible
                for this design point, the feasibility-boundary pre-solve
                and phase I are skipped entirely; otherwise it is ignored
                and the cold path runs.  Ignored in uniform mode (closed
                form).
            warm_from: richer alternative to `x0`: the full neighboring
                :class:`FrequencyAssignment`.  Besides supplying the warm
                vector it identifies the neighbor's design point, which
                enables the `warm_schedule` duality-gap estimate.  A warm
                start whose only violation is the gradient variable (a
                colder row can *raise* some pairwise-gradient offsets) is
                repaired by lifting ``t_grad`` instead of being dropped.
            prune: solve against the sparse pruned constraint stack (rows
                seen near-active at previous optima) and re-check the full
                stack afterwards, falling back to the full solve — and
                growing the active set — on any violation.  The accepted
                result is always *polished* on the full stack at the cold
                schedule's final barrier weight, so agreement with the
                unpruned solve is preserved to Newton tolerance.  Only
                active with the accelerated barrier backend.
            warm_schedule: start the barrier schedule at
                ``m / (estimated gap at the warm start)`` — estimated from
                the neighbor's constraint duals — instead of
                ``t_initial``, skipping the early centering stages that a
                near-optimal start does not need.  Requires `warm_from`.

        Returns:
            A :class:`FrequencyAssignment` (``feasible=False`` when the
            design point cannot satisfy the constraints).
        """
        self._check_target(f_target)
        if self.mode == "uniform":
            return self._solve_uniform(t_start, f_target)
        return self._solve_variable(
            t_start,
            f_target,
            x0=x0,
            warm_from=warm_from,
            prune=prune,
            warm_schedule=warm_schedule,
        )

    def is_feasible(
        self, t_start: float | np.ndarray, f_target: float
    ) -> bool:
        """Fast feasibility check (no full optimization).

        Variable mode compares against the feasibility boundary (one convex
        solve, memoization-friendly); uniform mode uses the closed form.
        """
        self._check_target(f_target)
        if self.mode == "uniform":
            return self._uniform_feasible(t_start, f_target)
        return f_target <= self._max_feasible_variable(t_start) * (1 - 1e-9)

    def max_feasible_target(
        self,
        t_start: float | np.ndarray,
        *,
        tolerance: float = 1e6,
    ) -> float:
        """Largest feasible average frequency at `t_start` (Fig. 9's y-axis).

        For the uniform mode this is a bisection on the closed-form
        feasibility check.  For the variable mode it is a *single* convex
        solve: maximize ``sum_i f_i = (f_max/sqrt(p_max)) sum_i sqrt(p_i)``
        subject to the temperature and box constraints — the optimum divided
        by ``n`` is exactly the feasibility threshold of Eq. 3's average-
        frequency constraint.

        Args:
            t_start: starting temperature.
            tolerance: bisection resolution in Hz for the uniform mode
                (default 1 MHz).

        Returns:
            The feasibility threshold in Hz (0.0 when even an idle window
            violates the temperature cap).
        """
        if self.mode == "uniform":
            return self._max_feasible_uniform(t_start, tolerance)
        return self._max_feasible_variable(t_start)

    def _max_feasible_uniform(
        self, t_start: float | np.ndarray, tolerance: float
    ) -> float:
        lo, hi = 0.0, self.platform.f_max
        if self._uniform_feasible(t_start, hi):
            return hi
        if not self._uniform_feasible(t_start, lo):
            return 0.0
        while hi - lo > tolerance:
            mid = 0.5 * (lo + hi)
            if self._uniform_feasible(t_start, mid):
                lo = mid
            else:
                hi = mid
        return lo

    def _max_feasible_variable(self, t_start: float | np.ndarray) -> float:
        result = self._max_sqrt_solve(t_start)
        if result is None:
            return 0.0
        avg_frequency, _p_star = result
        return min(avg_frequency, self.platform.f_max)

    def _max_sqrt_solve(
        self, t_start: float | np.ndarray
    ) -> tuple[float, np.ndarray] | None:
        """Maximize the average frequency under the temperature cap.

        Returns ``(max average frequency, maximizing power vector)`` or
        None when even near-zero power violates the cap.  This single solve
        both yields the Figure 9 boundary and seeds the main solve's
        strictly feasible start (see :meth:`_interior_start`).  Memoized
        per start temperature when `accelerated`: a table sweep needs the
        boundary once per row, not once per cell.
        """
        if self.accelerated:
            key = self._start_key(t_start)
            if key in self._boundary_cache:
                return self._boundary_cache[key]
            result = self._max_sqrt_solve_cold(t_start)
            self._boundary_cache[key] = result
            return result
        return self._max_sqrt_solve_cold(t_start)

    def _max_sqrt_solve_cold(
        self, t_start: float | np.ndarray
    ) -> tuple[float, np.ndarray] | None:
        platform = self.platform
        n = platform.n_cores
        p_max = platform.power.p_max
        f_max = platform.f_max

        stacked = self._stacked_for(t_start)
        blocks = [
            LinearInequality(stacked.w, platform.t_max - stacked.offset),
            BoxConstraint(
                lower=np.full(n, POWER_FLOOR),
                upper=np.full(n, p_max),
                indices=np.arange(n),
            ),
        ]
        # Normalize the objective to O(1): the weighted sqrt-sum is ~1e10 Hz
        # while the barrier gap tolerance is absolute, so without scaling the
        # final stages run at t ~ 1e9 where Newton grinds against the
        # t-scaled sqrt curvature (measured ~25x slower for the same answer
        # to ~1e-8 relative; the gap bound loosens from gap_tol Hz to
        # gap_tol * f_max).  Same conditioning trick as the solver's
        # _SqrtMinimaxStage.  Kept off the non-accelerated path so
        # benchmark baselines reproduce the original cost structure.
        scale = (
            1.0 / (n * f_max)
            if self.accelerated and self.backend == "barrier"
            else 1.0
        )
        objective = NegativeSqrtObjective(
            weights=np.full(n, scale * f_max / np.sqrt(p_max)),
            indices=np.arange(n),
            n_vars=n,
        )
        x0 = np.full(n, POWER_FLOOR * 10.0)
        if self.backend == "scipy":
            result = solve_scipy(objective, blocks, x0)
        else:
            result = solve_barrier(
                objective, blocks, x0, self.barrier_options,
                compiled=self._compiled_for(blocks, n),
            )
        if not result.ok:
            return None
        return (
            -result.objective / (n * scale),
            np.asarray(result.x, dtype=float),
        )

    # -- uniform mode ----------------------------------------------------------

    def _uniform_temperatures(
        self, t_start: float | np.ndarray, f_target: float
    ) -> np.ndarray:
        scaling = self.platform.power.scaling
        p_shared = float(scaling.power(f_target))
        stacked = self._stacked_for(t_start)
        p = np.full(self.platform.n_cores, p_shared)
        return stacked.temperatures(p)

    def _uniform_feasible(
        self, t_start: float | np.ndarray, f_target: float
    ) -> bool:
        temps = self._uniform_temperatures(t_start, f_target)
        return bool(np.max(temps) <= self.platform.t_max)

    def _solve_uniform(
        self, t_start: float | np.ndarray, f_target: float
    ) -> FrequencyAssignment:
        n = self.platform.n_cores
        scaling = self.platform.power.scaling
        temps = self._uniform_temperatures(t_start, f_target)
        core_temps = temps[:, self.platform.core_indices]
        gradient = float(
            np.max(core_temps.max(axis=1) - core_temps.min(axis=1))
        )
        feasible = bool(np.max(temps) <= self.platform.t_max)
        if self.t_grad_cap is not None and gradient > self.t_grad_cap:
            feasible = False
        p_shared = float(scaling.power(f_target))
        if not feasible:
            return self._infeasible(t_start, f_target)
        frequencies = np.full(n, f_target)
        objective = n * p_shared + (
            self.gradient_weight * gradient if self.minimize_gradient else 0.0
        )
        return FrequencyAssignment(
            feasible=True,
            frequencies=frequencies,
            core_power=np.full(n, p_shared),
            predicted_peak=float(np.max(temps)),
            predicted_gradient=gradient,
            objective=objective,
            t_start=self._scalar_start(t_start),
            f_target=f_target,
            status=SolveStatus.OPTIMAL,
        )

    # -- variable mode -----------------------------------------------------------

    def _variable_blocks(
        self, t_start: float | np.ndarray, f_target: float
    ) -> tuple[list, int]:
        platform = self.platform
        n = platform.n_cores
        p_max = platform.power.p_max
        f_max = platform.f_max
        with_grad = self.minimize_gradient or self.t_grad_cap is not None
        n_vars = n + 1 if with_grad else n

        stacked = self._stacked_for(t_start)
        rows = stacked.w
        offset = stacked.offset
        if with_grad:
            # The widened matrix depends only on the platform response, so
            # it is built once and shared across every design point.
            if self._rows_with_grad is None or not self.accelerated:
                self._rows_with_grad = np.hstack(
                    [rows, np.zeros((rows.shape[0], 1))]
                )
            rows = self._rows_with_grad
        blocks: list = [
            LinearInequality(rows, platform.t_max - offset)
        ]

        if with_grad:
            d, g = self._gradient_rows_for(t_start, stacked)
            if self._grad_rows_matrix is None or not self.accelerated:
                self._grad_rows_matrix = np.hstack(
                    [d, -np.ones((d.shape[0], 1))]
                )
            blocks.append(LinearInequality(self._grad_rows_matrix, -g))
            cap = (
                self.t_grad_cap if self.t_grad_cap is not None else T_GRAD_CEILING
            )
            blocks.append(
                BoxConstraint(
                    lower=np.array([0.0]),
                    upper=np.array([cap]),
                    indices=np.array([n]),
                )
            )

        if f_target > 0:
            blocks.append(
                SqrtSumConstraint(
                    weights=np.full(n, f_max / np.sqrt(p_max)),
                    indices=np.arange(n),
                    target=n * f_target,
                )
            )
        blocks.append(
            BoxConstraint(
                lower=np.full(n, POWER_FLOOR),
                upper=np.full(n, p_max),
                indices=np.arange(n),
            )
        )
        return blocks, n_vars

    def _interior_start(
        self,
        t_start: float | np.ndarray,
        f_target: float,
        p_star: np.ndarray,
        s_star: float,
    ) -> np.ndarray | None:
        """Strictly feasible start by blending toward the boundary point.

        ``p_star`` maximizes the (concave) weighted sqrt-sum under the
        temperature constraints; a low uniform power ``p_low`` satisfies
        them with slack.  Any convex blend keeps the temperature rows
        strictly satisfied (they are affine and both endpoints satisfy
        them, one strictly), and by concavity the blend's sqrt-sum is at
        least the blend of the endpoint sums — so choosing the blend weight
        above the frequency requirement's interpolation point makes *every*
        constraint strictly feasible.  This avoids the generic phase-I
        machinery entirely, which was observed to stall on this problem's
        scaling.

        Returns None when the requirement sits on/over the boundary.
        """
        platform = self.platform
        n = platform.n_cores
        weight = platform.f_max / np.sqrt(platform.power.p_max)
        s_req = n * f_target
        p_low = np.full(n, POWER_FLOOR * 10.0)
        s_low = float(weight * np.sqrt(p_low).sum())
        if s_star <= max(s_req, s_low) * (1 + 1e-9):
            return None
        needed = max((s_req - s_low) / (s_star - s_low), 0.0)
        if needed >= 0.995:
            return None
        alpha = needed + 0.5 * (0.995 - needed)
        p0 = alpha * p_star + (1 - alpha) * p_low

        with_grad = self.minimize_gradient or self.t_grad_cap is not None
        if not with_grad:
            return p0
        stacked = self._stacked_for(t_start)
        temps = stacked.temperatures(p0)[:, platform.core_indices]
        gradient = float(np.max(temps.max(axis=1) - temps.min(axis=1)))
        cap = (
            self.t_grad_cap if self.t_grad_cap is not None else T_GRAD_CEILING
        )
        tgrad0 = min(gradient + 1.0, cap - 1e-6)
        if tgrad0 <= gradient:
            # A hard gradient cap tighter than the blend's gradient: no
            # analytic interior point; let generic phase I try from here.
            tgrad0 = cap * 0.5
        return np.concatenate([p0, [tgrad0]])

    def _solve_variable(
        self,
        t_start: float | np.ndarray,
        f_target: float,
        x0: np.ndarray | None = None,
        warm_from: FrequencyAssignment | None = None,
        prune: bool = False,
        warm_schedule: bool = False,
    ) -> FrequencyAssignment:
        platform = self.platform
        n = platform.n_cores

        blocks, n_vars = self._variable_blocks(t_start, f_target)
        with_grad = n_vars == n + 1
        c = np.ones(n_vars)
        if with_grad:
            c[n] = self.gradient_weight if self.minimize_gradient else 0.0
        objective = LinearObjective(c=c)

        if x0 is None and warm_from is not None and warm_from.feasible:
            x0 = warm_from.solver_x
        warm = None
        if x0 is not None:
            warm = np.asarray(x0, dtype=float)
            if warm.shape != (n_vars,):
                warm = None

        if self.backend == "scipy":
            # SLSQP accepts infeasible starts (and cannot reliably solve
            # the boundary pre-problem), so go straight at the program.
            if warm is None:
                p_guess = max(
                    POWER_FLOOR * 10.0,
                    platform.power.p_max
                    * (f_target / platform.f_max) ** 2
                    * 0.9,
                )
                warm = np.full(n_vars, p_guess)
                if with_grad:
                    cap = (
                        self.t_grad_cap
                        if self.t_grad_cap is not None
                        else T_GRAD_CEILING
                    )
                    warm[n] = cap / 2.0
            result = solve_scipy(objective, blocks, warm)
        else:
            compiled = self._compiled_for(blocks, n_vars)
            result = None
            if warm is not None:
                prepared = self._prepare_warm(
                    blocks, compiled, warm, n_vars, f_target
                )
                if prepared is None:
                    warm = None
                else:
                    warm, warm_violation = prepared
                if warm is not None:
                    # Numerically interior warm start: skip the boundary
                    # pre-solve and phase I entirely.
                    hint = None
                    if (
                        warm_schedule
                        and warm_from is not None
                        and warm_violation < -WARM_HINT_MARGIN
                    ):
                        hint = self._warm_stage_hint(
                            t_start, f_target, warm_from, blocks,
                            compiled, warm,
                        )
                    if prune and compiled is not None:
                        result = self._solve_pruned(
                            t_start, objective, blocks, compiled, warm,
                            warm_violation, hint,
                        )
                    if result is None:
                        result = solve_barrier(
                            objective, blocks, warm, self._warm_options,
                            compiled=compiled,
                            initial_violation=warm_violation,
                            t_start_hint=hint,
                        )
                        if not result.ok:
                            # A stalled warm solve must not misclassify the
                            # cell: retry on the cold start path below.
                            result = None
                    if result is not None and not self._plausible_optimum(
                        result.x, f_target
                    ):
                        # A warm solve that silently parked far above the
                        # frequency requirement is a stall, not an
                        # optimum; re-solve from the cold start.
                        result = None
            if result is None:
                boundary = self._max_sqrt_solve(t_start)
                if boundary is None:
                    return self._infeasible(t_start, f_target)
                boundary_avg, p_star = boundary
                if f_target > boundary_avg * (1 - 1e-9):
                    return self._infeasible(t_start, f_target)
                start = self._interior_start(
                    t_start, f_target, p_star, n * boundary_avg
                )
                if start is None:
                    return self._infeasible(t_start, f_target)
                result = solve_barrier(
                    objective, blocks, start, self.barrier_options,
                    compiled=compiled,
                )
            if prune and compiled is not None and result.ok:
                self._note_active_rows(
                    self._prune_state_for(compiled, blocks),
                    compiled,
                    result.x,
                )
        if not result.ok:
            return self._infeasible(t_start, f_target, result.status)
        return self._assignment_from_result(t_start, f_target, result)

    def _assignment_from_result(
        self,
        t_start: float | np.ndarray,
        f_target: float,
        result,
    ) -> FrequencyAssignment:
        """Recover frequencies, temperatures and metrics from a solve."""
        platform = self.platform
        n = platform.n_cores
        p = np.clip(result.x[:n], 0.0, platform.power.p_max)
        frequencies = np.asarray(
            platform.power.scaling.frequency_for_power(p), dtype=float
        )
        stacked = self._stacked_for(t_start)
        temps = stacked.temperatures(p)
        core_temps = temps[:, platform.core_indices]
        gradient = float(
            np.max(core_temps.max(axis=1) - core_temps.min(axis=1))
        )
        return FrequencyAssignment(
            feasible=True,
            frequencies=frequencies,
            core_power=p,
            predicted_peak=float(np.max(temps)),
            predicted_gradient=gradient,
            objective=result.objective,
            t_start=self._scalar_start(t_start),
            f_target=f_target,
            status=result.status,
            iterations=result.iterations,
            solver_x=np.asarray(result.x, dtype=float).copy(),
        )

    # -- sparse pruning and warm schedules -------------------------------------

    @staticmethod
    def _violation(blocks: list, compiled, x: np.ndarray) -> float:
        if compiled is not None:
            return compiled.max_violation(x)
        return max(float(np.max(block.residuals(x))) for block in blocks)

    def _prepare_warm(
        self,
        blocks: list,
        compiled,
        warm: np.ndarray,
        n_vars: int,
        f_target: float,
    ) -> tuple[np.ndarray, float] | None:
        """Push a neighbor's optimum comfortably into the interior.

        A barrier optimum hugs its active constraints (slack ~1e-9); used
        raw as a warm start, the log barrier's enormous curvature there
        stalls Newton's line search.  Two monotone repairs restore a
        comfortable interior without leaving the feasible set:

        * lift ``t_grad`` (see :data:`WARM_T_GRAD_LIFT`) — also covers the
          cross-row case where a colder start *raises* some pairwise
          gradient offsets and the neighbor's ``t_grad`` is slightly
          infeasible;
        * when thermal rows remain tight (boundary-limited neighbors),
          shrink power by :data:`WARM_POWER_SHRINK`, which loosens every
          thermal row by monotonicity and is attempted only while the
          sqrt constraint keeps real slack.

        Returns the repaired start and its (negative) max violation, or
        None when no comfortable interior start could be built (callers
        fall back to the cold path).
        """
        n = self.platform.n_cores
        margin = self.barrier_options.feasibility_margin
        with_grad = n_vars == n + 1
        prepared = warm.copy()
        violation = self._violation(blocks, compiled, prepared)
        if with_grad:
            cap = (
                self.t_grad_cap
                if self.t_grad_cap is not None
                else T_GRAD_CEILING
            )
            lifted = (
                float(prepared[n]) + max(violation, 0.0) + WARM_T_GRAD_LIFT
            )
            if lifted < cap:
                prepared[n] = lifted
                violation = self._violation(blocks, compiled, prepared)
        if violation < -margin:
            return prepared, violation
        # Thermal rows still tight: shed a little power if the frequency
        # requirement allows it.
        weight = self.platform.f_max / np.sqrt(self.platform.power.p_max)
        shrunk = np.maximum(
            prepared[:n] * (1.0 - WARM_POWER_SHRINK), POWER_FLOOR * 2.0
        )
        sqrt_slack = float(weight * np.sqrt(shrunk).sum()) - n * f_target
        if sqrt_slack <= n * f_target * 1e-6:
            return None
        prepared[:n] = shrunk
        violation = self._violation(blocks, compiled, prepared)
        if violation < -margin:
            return prepared, violation
        return None

    def _warm_stage_hint(
        self,
        t_start: float | np.ndarray,
        f_target: float,
        warm_from: FrequencyAssignment,
        blocks: list,
        compiled,
        warm: np.ndarray,
    ) -> float | None:
        """Initial barrier weight ``m / (estimated gap at the warm start)``.

        The warm start is the neighbor's optimum, so its suboptimality for
        *this* cell is first-order the neighbor's constraint duals times
        the constraint perturbation (sensitivity analysis): the sqrt
        target moved by ``n * (f_prev - f_new)`` and, across temperature
        rows, the linear right-hand sides moved by ``b_new - b_prev``.
        The duals are the barrier estimates ``1 / (t_final * slack)`` at
        the neighbor's final stage weight — all computable from cached
        sweep data in a couple of matrix-vector products.
        """
        if compiled is None or not np.isscalar(t_start):
            return None
        t_prev = warm_from.t_start
        f_prev = warm_from.f_target
        opts = self.barrier_options
        m_new = total_constraints(blocks)
        m_prev = (
            m_new
            - (1 if f_target > 0 else 0)
            + (1 if f_prev > 0 else 0)
        )
        t_prev_final = final_stage_weight(max(m_prev, 1), opts)

        gap = 0.0
        if float(t_prev) != float(t_start):
            key = self._start_key(t_prev)
            if key not in self._stacked_cache:
                # The neighbor's constraint data has been evicted (or was
                # never built in this process): no cheap dual estimate.
                return None
            b_prev = self._linear_rhs(t_prev)
            ax = compiled.a @ warm
            s_prev = np.maximum(b_prev - ax, 1e-12)
            delta_b = np.maximum(compiled.b - b_prev, 0.0)
            gap += float(np.sum(delta_b / s_prev)) / t_prev_final
        if f_target > 0:
            if f_prev <= 0:
                # The sqrt constraint did not exist at the neighbor: the
                # perturbation is a tightening with unknown dual.
                return None
            n = self.platform.n_cores
            weight = self.platform.f_max / np.sqrt(self.platform.power.p_max)
            sqrt_sum = float(weight * np.sqrt(warm[:n]).sum())
            s_sqrt = max(sqrt_sum - n * f_prev, 1e-12)
            gap += max(n * (f_prev - f_target), 0.0) / (
                t_prev_final * s_sqrt
            )
        gap = max(gap, opts.gap_tol)
        return m_new / gap

    def _linear_rhs(self, t_start: float | np.ndarray) -> np.ndarray:
        """Stacked linear right-hand sides of the design point `t_start`."""
        stacked = self._stacked_for(t_start)
        parts = [self.platform.t_max - stacked.offset]
        if self.minimize_gradient or self.t_grad_cap is not None:
            _d, g = self._gradient_rows_for(t_start, stacked)
            parts.append(-g)
        return np.concatenate(parts)

    def _prune_state_for(
        self, compiled: CompiledConstraints, blocks: list
    ) -> _PruneState:
        """The pruning state of this problem structure (built on demand).

        The keep-mask starts as: no thermal rows (seeded from the first
        full-stack optimum), the structural step subsample of the gradient
        rows, and every row of any other linear block.
        """
        state = self._prune_states.get(compiled.signature)
        if state is not None:
            return state
        linear_counts = [
            block.a.shape[0]
            for block in blocks
            if isinstance(block, LinearInequality)
        ]
        thermal_rows = linear_counts[0] if linear_counts else 0
        gradient_rows = 0
        mask = np.zeros(compiled.a.shape[0], dtype=bool)
        mask[thermal_rows:] = True
        if len(linear_counts) > 1:
            steps = len(self.response.steps)
            rows = linear_counts[1]
            if rows % steps == 0:
                gradient_rows = rows
                keep = np.zeros(steps, dtype=bool)
                keep[::GRADIENT_PRUNE_SUBSAMPLE] = True
                keep[-min(GRADIENT_PRUNE_TAIL, steps):] = True
                mask[thermal_rows : thermal_rows + gradient_rows] = np.tile(
                    keep, gradient_rows // steps
                )
        state = _PruneState(
            thermal_rows=thermal_rows,
            gradient_rows=gradient_rows,
            mask=mask,
        )
        self._prune_states[compiled.signature] = state
        return state

    def _seed_thermal_from_boundary(
        self, state: _PruneState, t_start: float | np.ndarray
    ) -> bool:
        """Seed the thermal active set from the row's boundary solution.

        The feasibility-boundary solve maximizes power under the thermal
        cap, so the rows tight at its solution are the natural first guess
        for the rows that can bind anywhere in the row (lower-power optima
        run cooler).  Not a guarantee — the post-hoc full-stack check
        catches any miss — but it lets the very first cell of a sweep run
        pruned instead of paying a full-stack seed solve.
        """
        key = self._start_key(t_start)
        if key not in self._boundary_cache:
            return False
        cached = self._boundary_cache[key]
        if cached is None:
            return False
        _avg, p_star = cached
        stacked = self._stacked_for(t_start)
        slacks = (self.platform.t_max - stacked.temperatures(p_star)).ravel()
        if slacks.size != state.thermal_rows:
            return False
        state.mask[: state.thermal_rows] |= slacks < self.prune_slack_margin
        state.thermal_seeded = True
        return True

    def _plausible_optimum(self, x: np.ndarray, f_target: float) -> bool:
        """Cheap necessary optimality condition for warm-path results.

        Power strictly increases with frequency (Eq. 2), so at any true
        optimum with ``f_target > 0`` the average-frequency constraint is
        (essentially) active.  A claimed optimum serving well above the
        requirement is a stalled solve that parked at its start point —
        seen when a warm start hugs an un-liftable constraint wall.  The
        check can only reject spuriously in exotic gradient-dominated
        trade-offs, in which case the caller's cold re-solve returns the
        same (correct) point, just slower.
        """
        if f_target <= 0:
            return True
        n = self.platform.n_cores
        p = np.clip(x[:n], 0.0, self.platform.power.p_max)
        weight = self.platform.f_max / np.sqrt(self.platform.power.p_max)
        average = float(weight * np.sqrt(p).sum()) / n
        return average <= f_target * (1.0 + 1e-6)

    @staticmethod
    def _nonlinear_violation(blocks: list, x: np.ndarray) -> float:
        """Worst residual of the non-linear-inequality blocks (box, sqrt)."""
        worst = -np.inf
        for block in blocks:
            if isinstance(block, LinearInequality):
                continue
            worst = max(worst, float(np.max(block.residuals(x))))
        return worst

    def _solve_pruned(
        self,
        t_start: float | np.ndarray,
        objective: LinearObjective,
        blocks: list,
        compiled: CompiledConstraints,
        warm: np.ndarray,
        warm_violation: float,
        hint: float | None,
    ):
        """Pruned-stack pre-solve plus full-stack polish (or None).

        Soundness: the pruned program is a relaxation, so its optimum is
        checked against the *full* stack.  A violated thermal row grows
        the active set and sends the cell down the exact full-stack path;
        a violated (structurally dropped) gradient step row is repaired in
        closed form by lifting ``t_grad``, which restores slack on every
        gradient row and nothing else.  Exactness: the accepted
        pre-solution is only a *starting point* — it is polished on the
        full stack at the cold schedule's final barrier weight, so the
        returned point is the same analytic center a cold solve terminates
        at (agreement to Newton tolerance, not merely the duality-gap
        bound).  The polished point must also pass a KKT stationarity
        certificate (:data:`PRUNED_KKT_TOL`) to be accepted.
        """
        state = self._prune_state_for(compiled, blocks)
        if not state.thermal_seeded and not self._seed_thermal_from_boundary(
            state, t_start
        ):
            return None
        pruned = compiled.prune_linear_rows(state.mask)
        start, stop = state.kept_gradient_span()
        if stop > start:
            # `prune_linear_rows` copied b, so this tightening is local.
            pruned.b[start:stop] -= GRADIENT_PRUNE_TIGHTEN
        pruned_violation = warm_violation
        if stop > start:
            # The full-stack `warm_violation` no longer bounds the
            # tightened stack's violation: a warm start whose t_grad lift
            # was capped can sit within the tightening band and would
            # crash Newton if claimed strictly feasible.
            pruned_violation = pruned.max_violation(warm)
            if pruned_violation >= -self._warm_options.feasibility_margin:
                return None
        pruned_blocks = [LinearInequality(pruned.a, pruned.b)] + [
            block
            for block in blocks
            if not isinstance(block, LinearInequality)
        ]
        pre = solve_barrier(
            objective, pruned_blocks, warm, self._warm_options,
            compiled=pruned,
            initial_violation=pruned_violation,
            t_start_hint=hint,
        )
        if not pre.ok:
            return None
        x_start = self._accept_pruned_solution(
            state, compiled, blocks, pre.x
        )
        if x_start is None:
            return None
        t_final = final_stage_weight(
            total_constraints(blocks), self._warm_options
        )
        polish = solve_barrier(
            objective, blocks, x_start, self._warm_options,
            compiled=compiled,
            initial_violation=compiled.max_violation(x_start),
            t_start_hint=t_final,
        )
        if not polish.ok:
            return None
        c = objective.c
        residual = c + compiled.barrier_gradient(polish.x) / t_final
        if not np.max(np.abs(residual)) <= PRUNED_KKT_TOL * max(
            1.0, float(np.max(np.abs(c)))
        ):
            # Not the stage center: the pre-solve stalled and the polish
            # kept its point (see PRUNED_KKT_TOL).  Take the exact path.
            return None
        polish.iterations += pre.iterations
        return polish

    def _accept_pruned_solution(
        self,
        state: _PruneState,
        compiled: CompiledConstraints,
        blocks: list,
        x: np.ndarray,
    ) -> np.ndarray | None:
        """Validate a pruned optimum against the full stack; repair or bail.

        Returns a strictly feasible polish start (possibly with ``t_grad``
        lifted over a dropped gradient step's violation), or None when the
        cell must fall back to the exact full-stack solve.
        """
        margin = self._warm_options.feasibility_margin
        slacks = compiled.linear_slacks(x)
        m_th = state.thermal_rows
        thermal_violation = (
            float(-slacks[:m_th].min()) if m_th else -np.inf
        )
        other_violation = self._nonlinear_violation(blocks, x)
        if max(thermal_violation, other_violation) >= -margin:
            self._note_active_rows(state, compiled, x)
            return None
        gradient_violation = (
            float(-slacks[m_th:].min()) if slacks.size > m_th else -np.inf
        )
        if gradient_violation < -margin:
            return x
        n = self.platform.n_cores
        if len(x) != n + 1:
            return None
        cap = (
            self.t_grad_cap if self.t_grad_cap is not None else T_GRAD_CEILING
        )
        lifted = x.copy()
        lifted[n] += gradient_violation + 1e-9
        if lifted[n] >= cap:
            return None
        if compiled.max_violation(lifted) >= -margin:
            return None
        return lifted

    def _note_active_rows(
        self,
        state: _PruneState,
        compiled: CompiledConstraints,
        x: np.ndarray,
    ) -> None:
        """Fold thermal rows near-active at `x` into the active set."""
        if state.thermal_rows:
            slacks = compiled.linear_slacks(x)[: state.thermal_rows]
            state.mask[: state.thermal_rows] |= (
                slacks < self.prune_slack_margin
            )
        state.thermal_seeded = True

    # -- helpers ---------------------------------------------------------------

    def _check_target(self, f_target: float) -> None:
        if not 0 <= f_target <= self.platform.f_max * (1 + 1e-9):
            raise SolverError(
                f"f_target must lie in [0, f_max={self.platform.f_max:g}]"
            )

    def _scalar_start(self, t_start: float | np.ndarray) -> float:
        if np.isscalar(t_start):
            return float(t_start)
        return float(np.max(np.asarray(t_start, dtype=float)))

    def _infeasible(
        self,
        t_start: float | np.ndarray,
        f_target: float,
        status: SolveStatus = SolveStatus.INFEASIBLE,
    ) -> FrequencyAssignment:
        n = self.platform.n_cores
        return FrequencyAssignment(
            feasible=False,
            frequencies=np.zeros(n),
            core_power=np.zeros(n),
            predicted_peak=np.inf,
            predicted_gradient=np.inf,
            objective=np.inf,
            t_start=self._scalar_start(t_start),
            f_target=f_target,
            status=status,
        )
