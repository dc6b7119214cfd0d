"""Convex optimization: barrier interior-point solver and scipy cross-check.

For repeated solves of structurally identical programs (the Phase-1 table
sweep), `repro.solver.compiled.CompiledConstraints` stacks the linear and
box constraint blocks into one matrix once and evaluates the log barrier
fully vectorized; `solve_barrier` accepts such a stack via ``compiled=``
and additionally skips phase I whenever the supplied start is already
strictly feasible (warm starting).  One solve path serves every caller:
the gen2 sweep, the cold oracle and MPC's online re-solves all run
`solve_barrier` over a compiled stack.  `kkt_residuals` checks optimality
independently of the solver; the sweep's pruned cells are certified with
the same stationarity condition, evaluated on the compiled stack
(`CompiledConstraints.barrier_gradient`).  The ``scipy`` backend
(`solve_scipy`) is the cross-check oracle for the barrier method.
"""

from repro.solver.barrier import (
    BarrierOptions,
    find_strictly_feasible,
    solve_barrier,
)
from repro.solver.compiled import CompiledConstraints
from repro.solver.kkt import KKTResiduals, kkt_residuals
from repro.solver.newton import NewtonOptions, NewtonOutcome, minimize_newton
from repro.solver.problem import (
    BoxConstraint,
    LinearInequality,
    LinearObjective,
    QuadraticObjective,
    SqrtSumConstraint,
    max_violation,
    total_constraints,
)
from repro.solver.result import SolveResult, SolveStatus
from repro.solver.scipy_backend import solve_scipy

__all__ = [
    "BarrierOptions",
    "BoxConstraint",
    "CompiledConstraints",
    "KKTResiduals",
    "LinearInequality",
    "LinearObjective",
    "NewtonOptions",
    "NewtonOutcome",
    "QuadraticObjective",
    "SolveResult",
    "SolveStatus",
    "SqrtSumConstraint",
    "find_strictly_feasible",
    "kkt_residuals",
    "max_violation",
    "minimize_newton",
    "solve_barrier",
    "solve_scipy",
    "total_constraints",
]
