"""Damped Newton method with backtracking line search.

This is the inner loop of the barrier method: minimize a smooth strictly
convex function whose value may be ``+inf`` outside its (open) domain — the
line search simply backtracks until it is back inside.  Implementation
follows Boyd & Vandenberghe, *Convex Optimization* (the paper's reference
[25]), algorithm 9.5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import SolverError

#: Function returning (value, gradient, hessian) at x.
ValueGradHess = Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray]]


@dataclass
class NewtonOptions:
    """Tuning knobs for the damped Newton loop.

    Attributes:
        tol: stop when the Newton decrement squared over two drops below it.
        max_iterations: Newton step budget.
        alpha: line-search sufficient-decrease fraction (0, 0.5).
        beta: line-search backtracking factor (0, 1).
        regularization: multiple of identity added to the Hessian when the
            factorization fails (handles semidefinite corner cases).
        stall_tolerance: relative objective decrease below which an
            iteration counts as stalled.  Near a barrier stage's center
            the decrement is computed through Hessians conditioned like
            ``1/slack^2`` and may never numerically reach `tol` even
            though the iterate has stopped moving; without this exit such
            stages grind through the whole iteration budget making no
            progress.
        stall_iterations: consecutive stalled iterations after which the
            minimization stops and reports convergence.
    """

    tol: float = 1e-9
    max_iterations: int = 100
    alpha: float = 0.2
    beta: float = 0.6
    regularization: float = 1e-10
    stall_tolerance: float = 1e-13
    stall_iterations: int = 3


@dataclass
class NewtonOutcome:
    """Result of a Newton minimization.

    Attributes:
        x: final iterate.
        value: objective value at `x`.
        iterations: Newton steps taken.
        converged: True when the decrement criterion was met.
    """

    x: np.ndarray
    value: float
    iterations: int
    converged: bool


def minimize_newton(
    func: ValueGradHess,
    x0: np.ndarray,
    options: NewtonOptions | None = None,
    value_func: Callable[[np.ndarray], float] | None = None,
) -> NewtonOutcome:
    """Minimize a smooth convex `func` from a feasible start `x0`.

    Args:
        func: returns ``(value, gradient, hessian)``; must be finite at
            `x0`.
        x0: strictly feasible starting point.
        options: see :class:`NewtonOptions`.
        value_func: optional value-only evaluator, arithmetically
            identical to ``func(x)[0]``.  When given, line-search trial
            points are evaluated value-only (the accepted point gets one
            full evaluation) — same iterates bit-for-bit, but the
            rejected trials skip every gradient/Hessian product.

    Returns:
        A :class:`NewtonOutcome`.

    Raises:
        SolverError: if `x0` is outside the function's domain.
    """
    opts = options or NewtonOptions()
    x = np.asarray(x0, dtype=float).copy()
    value, grad, hess = func(x)
    if not np.isfinite(value):
        raise SolverError("Newton start point is outside the domain")

    stalled = 0
    for iteration in range(opts.max_iterations):
        step = _newton_step(hess, grad, opts.regularization)
        decrement_sq = float(-grad @ step)
        if decrement_sq < 0:
            # Numerical asymmetry; re-solve with extra regularization.
            step = _newton_step(
                hess, grad, max(opts.regularization * 1e4, 1e-8)
            )
            decrement_sq = max(float(-grad @ step), 0.0)
        if decrement_sq / 2.0 <= opts.tol:
            return NewtonOutcome(x, value, iteration, converged=True)

        # Backtracking line search on value (+inf outside the domain).
        t = 1.0
        while True:
            candidate = x + t * step
            if value_func is None:
                cand_value, cand_grad, cand_hess = func(candidate)
            else:
                cand_value = value_func(candidate)
            if np.isfinite(cand_value) and (
                cand_value <= value - opts.alpha * t * decrement_sq
            ):
                break
            t *= opts.beta
            if t < 1e-14:
                # No progress possible: treat as converged at x.
                return NewtonOutcome(x, value, iteration, converged=True)
        if value_func is not None:
            _full_value, cand_grad, cand_hess = func(candidate)
        if value - cand_value <= opts.stall_tolerance * max(1.0, abs(value)):
            stalled += 1
        else:
            stalled = 0
        x, value, grad, hess = candidate, cand_value, cand_grad, cand_hess
        if stalled >= opts.stall_iterations:
            # The iterate has numerically stopped moving; the decrement is
            # below float resolution of this Hessian's conditioning.
            return NewtonOutcome(x, value, iteration + 1, converged=True)

    return NewtonOutcome(x, value, opts.max_iterations, converged=False)


def _newton_step(
    hess: np.ndarray, grad: np.ndarray, regularization: float
) -> np.ndarray:
    """Solve ``H step = -grad`` robustly."""
    n = len(grad)
    reg = regularization
    for _ in range(6):
        try:
            return np.linalg.solve(hess + reg * np.eye(n), -grad)
        except np.linalg.LinAlgError:
            reg = max(reg * 100.0, 1e-12)
    raise SolverError("Newton step solve failed even with regularization")
