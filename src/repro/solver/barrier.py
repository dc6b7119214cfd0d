"""Log-barrier interior-point method with phase-I feasibility search.

Standard barrier method (Boyd & Vandenberghe ch. 11 — the paper's reference
[25], and what CVX's underlying solvers implement for this problem class):

* **Phase I** finds a strictly feasible point by minimizing an auxiliary
  slack ``s`` subject to ``f_i(x) <= s`` — or certifies infeasibility when
  the optimal slack stays positive.
* **Phase II** minimizes ``t * objective(x) + phi(x)`` for a geometrically
  increasing sequence of ``t``, where ``phi`` is the log barrier of all
  constraint blocks; each stage is solved with damped Newton
  (`repro.solver.newton`) warm-started from the previous stage.  The final
  duality gap is bounded by ``m / t`` with ``m`` the number of scalar
  constraints.

Two fast paths serve repeated solves of structurally identical programs
(the Phase-1 table sweep):

* **Warm start** — when the supplied ``x0`` is already strictly feasible
  (e.g. the optimum of a neighboring design point), phase I is skipped
  entirely after a single residual check.
* **Compiled constraints** — passing a
  `repro.solver.compiled.CompiledConstraints` stack makes every stage
  evaluate the barrier through one vectorized matrix product instead of a
  per-block Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SolverError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.solver.compiled import CompiledConstraints
from repro.solver.newton import NewtonOptions, minimize_newton
from repro.solver.problem import (
    SLACK_FLOOR,
    ConstraintBlock,
    Objective,
    SqrtSumConstraint,
    max_violation,
    total_constraints,
)
from repro.solver.result import SolveResult, SolveStatus


@dataclass
class BarrierOptions:
    """Tuning knobs for the barrier method.

    Attributes:
        t_initial: initial barrier weight.
        mu: geometric growth factor of the barrier weight per stage.
        gap_tol: stop when the duality-gap bound ``m / t`` drops below it.
        feasibility_margin: phase I stops early once the slack is below
            ``-feasibility_margin`` (comfortably strictly feasible).
        infeasibility_tol: phase I declares infeasibility when the optimal
            slack cannot be pushed below this positive tolerance.
        newton: inner Newton options.
    """

    t_initial: float = 1.0
    mu: float = 20.0
    gap_tol: float = 1e-7
    feasibility_margin: float = 1e-9
    infeasibility_tol: float = 1e-9
    newton: NewtonOptions | None = None


#: Stage budget shared by every barrier schedule.
MAX_STAGES = 64


def cold_stage_weights(m: int, options: BarrierOptions) -> list[float]:
    """The cold schedule: ``t_initial * mu^j`` until ``m / t < gap_tol``.

    Single source of truth for the stage grid — the warm path's
    exactness argument ("same final weight, hence the same returned
    center") relies on every schedule variant deriving from this one.
    Capped at :data:`MAX_STAGES`; a schedule whose last weight still has
    ``m / t >= gap_tol`` signals stage-budget exhaustion to the caller.
    """
    weights = []
    t = options.t_initial
    for _ in range(MAX_STAGES):
        weights.append(t)
        if m / t < options.gap_tol:
            break
        t *= options.mu
    return weights


def final_stage_weight(m: int, options: BarrierOptions) -> float:
    """The barrier weight at which a cold solve of `m` constraints stops.

    This is the first grid point ``t_initial * mu^j`` with
    ``m / t < gap_tol`` — starting a warm solve here runs exactly one
    stage, the one whose analytic center the cold path also returns.
    """
    return cold_stage_weights(m, options)[-1]


def warm_stage_weights(
    m: int, options: BarrierOptions, hint: float
) -> list[float]:
    """Accelerated stage schedule for a near-optimal warm start.

    Starts at the caller's gap-based hint (clamped to the cold schedule's
    range) and reaches the **same final weight a cold solve stops at**
    with geometric jumps of ratio at most ``mu`` — larger jumps were
    measured to cost far more Newton iterations per stage than they save
    in stage count on this problem family.  Because every barrier solve's
    result is its final stage's Newton-converged analytic center — a
    function of the final weight only, not of the path taken to it —
    landing exactly on the cold final weight preserves agreement with
    cold solves to Newton tolerance while skipping the early centering
    stages a near-optimal start does not need.
    """
    t_final = final_stage_weight(m, options)
    t0 = min(max(hint, options.t_initial), t_final)
    if t0 >= t_final:
        return [t_final]
    jumps = max(
        int(np.ceil(np.log(t_final / t0) / np.log(options.mu) - 1e-9)),
        1,
    )
    ratio = (t_final / t0) ** (1.0 / jumps)
    weights = [t0 * ratio**i for i in range(jumps + 1)]
    weights[-1] = t_final
    return weights


class _PhaseOneProblem:
    """Barrier formulation of phase I over the augmented variable (x, s).

    Minimizes ``s`` subject to ``f_i(x) <= s`` for all scalar constraints:
    the barrier stage objective is ``t s - sum_i log(s - f_i(x))``.  The
    shifted barrier terms are assembled from each block's residuals,
    Jacobian and per-row Hessians (see :func:`_residual_derivatives`)::

        d/d(x,s) [-log(s - f_i)] = (grad f_i, -1) / (s - f_i)
        Hessian adds (grad f_i)(grad f_i)^T / slack^2 (with the +/-1 s-row)
        plus hess f_i / slack.

    Linear and box rows (constant Jacobian, zero Hessian) are stacked once
    into a single matrix on first evaluation, so the per-stage cost is a
    couple of matrix products rather than a per-block Python loop; blocks
    with curvature stay on the generic per-block path.
    """

    def __init__(self, blocks: list[ConstraintBlock]):
        from repro.solver.problem import (  # local import to avoid cycles
            BoxConstraint,
            LinearInequality,
        )

        self._curved = [
            b
            for b in blocks
            if not isinstance(b, (LinearInequality, BoxConstraint))
        ]
        self._flat = [
            b for b in blocks if isinstance(b, (LinearInequality, BoxConstraint))
        ]
        self._a: np.ndarray | None = None  # stacked flat rows, built lazily
        self._b: np.ndarray | None = None

    def _ensure_stacked(self, n: int) -> None:
        from repro.solver.compiled import (  # local import to avoid cycles
            stack_flat_rows,
        )

        if self._a is not None:
            return
        self._a, self._b = stack_flat_rows(self._flat, n)

    def value_grad_hess(
        self, xs: np.ndarray, t: float
    ) -> tuple[float, np.ndarray, np.ndarray]:
        x, s = xs[:-1], xs[-1]
        n = len(x)
        self._ensure_stacked(n)
        total_value = t * s
        grad = np.zeros(n + 1)
        grad[-1] = t
        hess = np.zeros((n + 1, n + 1))

        if self._a.shape[0]:
            slack = s - (self._a @ x - self._b)
            if np.any(slack <= SLACK_FLOOR):
                return np.inf, grad, hess
            inv = 1.0 / slack
            total_value += -float(np.log(slack).sum())
            # d/dx of -log(s - f) = (grad f) / slack ; d/ds = -1/slack
            grad[:n] += self._a.T @ inv
            grad[-1] += -inv.sum()
            jw = self._a * inv[:, None]
            hess[:n, :n] += jw.T @ jw  # (grad f)(grad f)^T / slack^2
            cross = -self._a.T @ (inv**2)
            hess[:n, -1] += cross
            hess[-1, :n] += cross
            hess[-1, -1] += float((inv**2).sum())

        for block in self._curved:
            res, jac, hess_terms = _residual_derivatives(block, x)
            slack = s - res
            if np.any(slack <= SLACK_FLOOR):
                return np.inf, grad, hess
            inv = 1.0 / slack
            total_value += -float(np.log(slack).sum())
            grad[:n] += jac.T @ inv
            grad[-1] += -inv.sum()
            jw = jac * inv[:, None]
            hess[:n, :n] += jw.T @ jw
            for hi, h_mat in hess_terms:
                hess[:n, :n] += h_mat * inv[hi]
            cross = -(jac * (inv**2)[:, None]).sum(axis=0)
            hess[:n, -1] += cross
            hess[-1, :n] += cross
            hess[-1, -1] += float((inv**2).sum())
        return total_value, grad, hess


def _residual_derivatives(
    block: ConstraintBlock, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, np.ndarray]]]:
    """Residuals, Jacobian and per-constraint Hessians of a block.

    Supports the block types defined in `repro.solver.problem`.  Returns
    ``(residuals, jacobian, [(row_index, hessian), ...])`` where the list
    only contains rows with non-zero Hessian.
    """
    from repro.solver.problem import (  # local import to avoid cycles
        BoxConstraint,
        LinearInequality,
        SqrtSumConstraint,
    )

    n = len(x)
    if isinstance(block, LinearInequality):
        return block.residuals(x), block.a, []
    if isinstance(block, BoxConstraint):
        from repro.solver.compiled import stack_flat_rows  # avoid cycle

        jac, _ = stack_flat_rows([block], n)
        return block.residuals(x), jac, []
    if isinstance(block, SqrtSumConstraint):
        # Clip keeps the derivatives finite when phase I wanders to the
        # boundary; the resulting large gradient pushes iterates back to
        # positive values.
        vals = np.clip(x[block.indices], 1e-12, None)
        roots = np.sqrt(vals)
        jac = np.zeros((1, n))
        jac[0, block.indices] = -block.weights / (2.0 * roots)
        hess = np.zeros((n, n))
        diag = np.zeros(n)
        diag[block.indices] = block.weights / (4.0 * roots**3)
        np.fill_diagonal(hess, diag)
        return block.residuals(x), jac, [(0, hess)]
    raise SolverError(
        f"phase I does not support constraint block type {type(block).__name__}"
    )


class _SqrtMinimaxStage:
    """Stage-2 phase-I function: minimize the *maximum* sqrt-sum deficit.

    Over the augmented variable ``(x, s)``::

        t s - sum_b log(s - g_b(x)) + barrier_smooth(x)

    where ``g_b(x) = target_b - sum w sqrt(x)`` is block b's deficit.  The
    maximum (not the sum) is the correct joint-feasibility certificate:
    with several sqrt constraints, minimizing the summed deficit lets one
    block's surplus mask another's violation (observed with multi-window
    schedules).  Smooth blocks stay *hard* (unshifted barrier), which keeps
    ``x`` strictly inside its box and the sqrt terms smooth.

    Each block is normalized by ``max(1, |target|, max weight)`` so the
    slack variable lives on an O(1) scale regardless of units (frequency
    targets are ~1e9 Hz while power variables are ~1 W; without
    normalization the ``s`` direction of the Hessian is ~1e-18 and Newton
    stalls).  Normalization does not change the feasible set.
    """

    def __init__(
        self,
        sqrt_blocks: list[SqrtSumConstraint],
        smooth_blocks: list[ConstraintBlock],
    ):
        self._sqrt = sqrt_blocks
        self._smooth = smooth_blocks
        self._scales = np.array(
            [
                max(1.0, abs(block.target), float(block.weights.max()))
                for block in sqrt_blocks
            ]
        )

    def deficits(self, x: np.ndarray) -> np.ndarray:
        """Normalized deficits (feasible iff all <= 0)."""
        return np.array(
            [
                float(block.residuals(x)[0]) / scale
                for block, scale in zip(self._sqrt, self._scales)
            ]
        )

    def value_grad_hess(
        self, xs: np.ndarray, t: float
    ) -> tuple[float, np.ndarray, np.ndarray]:
        x, s = xs[:-1], xs[-1]
        n = len(x)
        grad = np.zeros(n + 1)
        hess = np.zeros((n + 1, n + 1))
        value = t * s
        grad[-1] = t

        for block in self._smooth:
            b_val, b_grad, b_hess = block.barrier(x)
            if not np.isfinite(b_val):
                return np.inf, grad, hess
            value += b_val
            grad[:n] += b_grad
            hess[:n, :n] += b_hess

        for block, scale in zip(self._sqrt, self._scales):
            vals = x[block.indices]
            if np.any(vals <= 0):
                return np.inf, grad, hess
            roots = np.sqrt(vals)
            deficit = (
                block.target - float(block.weights @ roots)
            ) / scale
            slack = s - deficit
            if slack <= SLACK_FLOOR:
                return np.inf, grad, hess
            dg = np.zeros(n)
            dg[block.indices] = -block.weights / (2.0 * roots) / scale
            d2g = np.zeros(n)
            d2g[block.indices] = block.weights / (4.0 * roots**3) / scale
            value += -np.log(slack)
            grad[:n] += dg / slack
            grad[-1] += -1.0 / slack
            hess[:n, :n] += np.outer(dg, dg) / slack**2 + np.diag(d2g) / slack
            hess[:n, -1] += -dg / slack**2
            hess[-1, :n] += -dg / slack**2
            hess[-1, -1] += 1.0 / slack**2
        return value, grad, hess


def _phase_one_smooth(
    blocks: list[ConstraintBlock],
    x0: np.ndarray,
    opts: BarrierOptions,
) -> tuple[np.ndarray | None, float]:
    """Slack-based phase I over blocks with bounded curvature (no sqrt)."""
    initial_violation = max_violation(blocks, x0)
    if initial_violation < -opts.feasibility_margin:
        return x0.copy(), initial_violation

    problem = _PhaseOneProblem(blocks)
    s = initial_violation + max(1.0, abs(initial_violation))
    xs = np.concatenate([x0, [s]])
    t = opts.t_initial
    m = total_constraints(blocks) or 1
    newton_opts = opts.newton or NewtonOptions()

    best_violation = initial_violation
    for _stage in range(64):
        outcome = minimize_newton(
            lambda z: problem.value_grad_hess(z, t), xs, newton_opts
        )
        xs = outcome.x
        violation = max_violation(blocks, xs[:-1])
        best_violation = min(best_violation, violation)
        if violation < -opts.feasibility_margin:
            return xs[:-1].copy(), violation
        if m / t < opts.gap_tol:
            break
        t *= opts.mu
    if best_violation <= opts.infeasibility_tol:
        return xs[:-1].copy(), best_violation
    return None, best_violation


def find_strictly_feasible(
    blocks: list[ConstraintBlock],
    x0: np.ndarray,
    options: BarrierOptions | None = None,
) -> tuple[np.ndarray | None, float]:
    """Phase I: find a strictly feasible x, or certify infeasibility.

    Runs in two stages:

    1. slack-based phase I over the smooth (linear/box) blocks — their
       curvature is bounded, so the standard augmented formulation
       converges;
    2. with those constraints strictly satisfied (and kept *hard*), solve
       the minimax program ``min s s.t. deficit_b(x) <= s`` over the sqrt
       blocks (see :class:`_SqrtMinimaxStage`), stopping as soon as every
       sqrt constraint is strictly met.  A positive optimal ``s``
       certifies joint infeasibility.

    The split exists because sqrt constraints have unbounded curvature at
    the boundary ``x_i = 0``; inside the generic slack formulation the
    iterates can park there and stall (see the unit tests).  Keeping the
    box hard in stage 2 keeps ``x`` strictly positive, where the sqrt terms
    are smooth.

    Args:
        blocks: constraint blocks.
        x0: any starting point (need not be feasible).
        options: solver options.

    Returns:
        ``(x, violation)`` — a strictly feasible point and its (negative)
        max violation, or ``(None, min_violation)`` when infeasible with the
        smallest achieved violation.
    """
    opts = options or BarrierOptions()
    x0 = np.asarray(x0, dtype=float)

    sqrt_blocks = [b for b in blocks if isinstance(b, SqrtSumConstraint)]
    smooth = [b for b in blocks if not isinstance(b, SqrtSumConstraint)]

    x, violation = _phase_one_smooth(smooth, x0, opts)
    if x is None:
        return None, violation
    if not sqrt_blocks:
        return x, violation
    violation_all = max_violation(blocks, x)
    if violation_all < -opts.feasibility_margin:
        return x, violation_all

    stage = _SqrtMinimaxStage(sqrt_blocks, smooth)
    s = float(stage.deficits(x).max())
    s = s + max(1.0, abs(s))
    xs = np.concatenate([x, [s]])

    t = opts.t_initial
    m = len(sqrt_blocks) + total_constraints(smooth)
    newton_opts = opts.newton or NewtonOptions()

    best_violation = violation_all
    for _stage in range(64):
        outcome = minimize_newton(
            lambda z: stage.value_grad_hess(z, t), xs, newton_opts
        )
        xs = outcome.x
        violation_all = max_violation(blocks, xs[:-1])
        best_violation = min(best_violation, violation_all)
        if violation_all < -opts.feasibility_margin:
            return xs[:-1].copy(), violation_all
        if m / t < opts.gap_tol:
            break
        t *= opts.mu
    if best_violation <= opts.infeasibility_tol:
        return xs[:-1].copy(), best_violation
    return None, best_violation


def solve_barrier(
    objective: Objective,
    blocks: list[ConstraintBlock],
    x0: np.ndarray,
    options: BarrierOptions | None = None,
    *,
    compiled: "CompiledConstraints | None" = None,
    initial_violation: float | None = None,
    t_start_hint: float | None = None,
) -> SolveResult:
    """Solve ``minimize objective(x) s.t. all blocks`` by the barrier method.

    Args:
        objective: smooth convex objective.
        blocks: convex constraint blocks.
        x0: starting point; a strictly feasible `x0` (a warm start) skips
            phase I entirely, otherwise phase I runs first.
        options: solver options.
        compiled: optional precompiled stack of `blocks` (see
            `repro.solver.compiled`); when given, phase-II stages and
            residual checks evaluate through its vectorized fast path.  The
            caller guarantees it was compiled from (a structural twin of)
            `blocks`.
        initial_violation: the max constraint violation at `x0`, when the
            caller has already computed it (warm-start paths); saves one
            residual pass over all constraint rows.
        t_start_hint: requested initial barrier weight for a near-optimal
            warm start — typically ``m / (estimated duality gap at x0)``.
            Switches to the accelerated schedule of
            :func:`warm_stage_weights`, which finishes at the same final
            weight — and hence the same point — as a cold solve.  Ignored
            when phase I runs (the hint presumes a feasible start).

    Returns:
        A :class:`SolveResult`; status INFEASIBLE when phase I certifies an
        empty interior, MAX_ITERATIONS when the stage budget runs out.
    """
    opts = options or BarrierOptions()
    x0 = np.asarray(x0, dtype=float)
    total_iterations = 0
    warm_started = False

    def violation_at(z: np.ndarray) -> float:
        if compiled is not None:
            return compiled.max_violation(z)
        return max_violation(blocks, z)

    if initial_violation is None:
        initial_violation = violation_at(x0)
    if initial_violation < -opts.feasibility_margin:
        # Warm start: x0 is already strictly feasible, skip phase I.
        x, violation = x0.copy(), initial_violation
        warm_started = True
    else:
        x, violation = find_strictly_feasible(blocks, x0, opts)
    if x is None:
        return SolveResult(
            status=SolveStatus.INFEASIBLE,
            x=x0,
            objective=np.inf,
            max_violation=violation,
        )
    if violation > -opts.feasibility_margin:
        # Boundary-feasible only: nudge via phase I result; the barrier needs
        # a strict interior, so treat as infeasible-for-interior but report
        # the feasible point with its objective (degenerate problems).
        return SolveResult(
            status=SolveStatus.OPTIMAL,
            x=x,
            objective=objective.value(x),
            max_violation=violation,
        )

    m = total_constraints(blocks) or 1
    newton_opts = opts.newton or NewtonOptions()

    def stage_function(t_weight: float):
        def func(z: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
            value = t_weight * objective.value(z)
            grad = t_weight * objective.gradient(z)
            hess = t_weight * objective.hessian(z)
            if compiled is not None:
                b_val, b_grad, b_hess = compiled.barrier(z)
                if not np.isfinite(b_val):
                    return np.inf, grad, hess
                return value + b_val, grad + b_grad, hess + b_hess
            for block in blocks:
                b_val, b_grad, b_hess = block.barrier(z)
                if not np.isfinite(b_val):
                    return np.inf, grad, hess
                value += b_val
                grad = grad + b_grad
                hess = hess + b_hess
            return value, grad, hess

        return func

    def stage_value_function(t_weight: float):
        # Value-only twin of stage_function for line-search probes; the
        # arithmetic is identical term-for-term (same order of additions)
        # so line-search decisions — and hence the iterates — match the
        # full evaluator bit-for-bit.
        if compiled is None:
            return None

        def vf(z: np.ndarray) -> float:
            value = t_weight * objective.value(z)
            b_val = compiled.barrier_value(z)
            if not np.isfinite(b_val):
                return np.inf
            return value + b_val

        return vf

    def run_schedule(weights, x_start):
        """Run a barrier schedule: one Newton centering per stage weight."""
        z = x_start
        iters = 0
        stage_converged = True
        for t_weight in weights:
            outcome = minimize_newton(
                stage_function(t_weight),
                z,
                newton_opts,
                value_func=stage_value_function(t_weight),
            )
            z = outcome.x
            iters += outcome.iterations
            stage_converged = outcome.converged
        return z, iters, stage_converged

    if warm_started and t_start_hint is not None:
        # Near-optimal warm start: few big jumps, same final weight (and
        # hence the same returned center) as the cold schedule below.
        weights = warm_stage_weights(m, opts, t_start_hint)
        x, stage_iters, converged = run_schedule(weights, x)
        total_iterations += stage_iters
        t = weights[-1]
        if not converged:
            # The final stage ran out of iteration budget mid-progress:
            # the point is not the stage center, so don't claim it is —
            # callers fall back to the exact cold path.
            return SolveResult(
                status=SolveStatus.MAX_ITERATIONS,
                x=x,
                objective=objective.value(x),
                iterations=total_iterations,
                duality_gap=m / t,
                max_violation=violation_at(x),
            )
        duals = _dual_estimates(blocks, x, t)
        return SolveResult(
            status=SolveStatus.OPTIMAL,
            x=x,
            objective=objective.value(x),
            iterations=total_iterations,
            duality_gap=m / t,
            dual_variables=duals,
            max_violation=violation_at(x),
        )

    weights = cold_stage_weights(m, opts)
    x, stage_iters, _converged = run_schedule(weights, x)
    total_iterations += stage_iters
    t = weights[-1]

    if m / t < opts.gap_tol:
        duals = _dual_estimates(blocks, x, t)
        return SolveResult(
            status=SolveStatus.OPTIMAL,
            x=x,
            objective=objective.value(x),
            iterations=total_iterations,
            duality_gap=m / t,
            dual_variables=duals,
            max_violation=violation_at(x),
        )
    return SolveResult(
        status=SolveStatus.MAX_ITERATIONS,
        x=x,
        objective=objective.value(x),
        iterations=total_iterations,
        duality_gap=m / t,
        max_violation=violation_at(x),
    )


def _dual_estimates(
    blocks: list[ConstraintBlock], x: np.ndarray, t: float
) -> np.ndarray:
    """Barrier dual estimates ``lambda_i = 1 / (t * (-f_i(x)))``."""
    duals = []
    for block in blocks:
        res = block.residuals(x)
        duals.append(1.0 / (t * np.maximum(-res, 1e-300)))
    return np.concatenate(duals) if duals else np.zeros(0)
