"""Layer wrappers around the program's public calls, and their metrics.

:func:`installed` replaces each layer's public entry point with a traced
wrapper for the duration of a ``with`` block and restores the originals
afterwards.  Module-level functions are patched in the namespace that
calls them (``repro.scenario.runner`` looks ``execute_scenario`` up in its
own globals), methods on their class.

Layer map (span name: wrapped call):

* ``solver.barrier``: ``solve_barrier`` as called by ``repro.core.protemp``;
* ``core.solve``: ``ProTempOptimizer.solve`` and ``.max_feasible_target``;
* ``core.table_build``: ``build_frequency_table``;
* ``sim.run``: ``MulticoreSimulator.run``;
* ``control.decide``: ``ThermalManagementUnit.decide``;
* ``workloads.build_trace``: ``repro.scenario.runner.build_trace``;
* ``scenario.execute``: ``repro.scenario.runner.execute_scenario``;
* ``scenario.run``: ``ScenarioRunner.run`` (the service's per-cell call);
* ``scenario.store_get`` / ``scenario.store_put``: ``SqliteOutcomeStore``;
* ``serving.journal``: ``JobJournal.record_submit`` / ``.record_status``;
* ``analysis.tournament``: ``tournament_from_outcomes``.

``serving.submit`` and the request roots are opened by the workloads
themselves, around their own client calls.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from harness.stats import store_hit_ratio
from harness.tracing import Span, Tracer, inside, self_times

#: Policies whose decisions are reported one by one.
POLICIES = (
    "no-tc",
    "basic-dfs",
    "protemp",
    "rao-integral",
    "bhat-state-space",
    "mpc",
)

#: Spans whose busy and self time are reported (``<name>_s``,
#: ``<name>_self_s``).
TIMED_SPANS = (
    "solver.barrier",
    "core.solve",
    "core.table_build",
    "control.decide",
    "workloads.build_trace",
    "scenario.execute",
    "scenario.store_get",
    "scenario.store_put",
    "serving.submit",
    "serving.journal",
    "analysis.tournament",
)


def _solver_result(span: Span, result: Any, *args: Any, **kwargs: Any) -> None:
    span.attrs["iterations"] = int(result.iterations)
    span.attrs["ok"] = bool(result.ok)


def _table_cells(span: Span, table: Any, *args: Any, **kwargs: Any) -> None:
    span.attrs["cells"] = len(table.t_grid) * len(table.f_grid)


def _sim_result(span: Span, result: Any, *args: Any, **kwargs: Any) -> None:
    span.attrs["steps"] = int(result.metrics.total_steps)
    span.attrs["windows"] = len(result.metrics.window_frequencies)


def _trace_tasks(span: Span, trace: Any, *args: Any, **kwargs: Any) -> None:
    span.attrs["tasks"] = len(trace.tasks)


def _spec_attrs(span: Span, spec: Any, *args: Any, **kwargs: Any) -> None:
    span.attrs["policy"] = spec.policy.name
    span.attrs["spec_hash"] = spec.spec_hash


def _run_attrs(span: Span, runner: Any, spec: Any, *args: Any, **kw: Any) -> None:
    _spec_attrs(span, spec)


def _store_hit(span: Span, record: Any, *args: Any, **kwargs: Any) -> None:
    span.attrs["hit"] = record is not None


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer's public call in `tracer` spans while inside."""
    import repro.analysis.tournament as tournament_mod
    import repro.core as core_pkg
    import repro.core.protemp as protemp_mod
    import repro.core.table as table_mod
    import repro.scenario.runner as runner_mod
    from repro.control.manager import ThermalManagementUnit
    from repro.scenario.store_sql import SqliteOutcomeStore
    from repro.serving.state import JobJournal
    from repro.sim.engine import MulticoreSimulator

    def _decide_policy(span: Span, *args: Any, **kwargs: Any) -> None:
        execute = tracer.enclosing("scenario.execute")
        span.attrs["policy"] = (
            execute.attrs["policy"] if execute is not None else "unknown"
        )

    targets = [
        (protemp_mod, "solve_barrier", "solver.barrier", _solver_result, None),
        (protemp_mod.ProTempOptimizer, "solve", "core.solve", None, None),
        (
            protemp_mod.ProTempOptimizer,
            "max_feasible_target",
            "core.solve",
            None,
            None,
        ),
        (table_mod, "build_frequency_table", "core.table_build", _table_cells, None),
        (core_pkg, "build_frequency_table", "core.table_build", _table_cells, None),
        (runner_mod, "build_frequency_table", "core.table_build", _table_cells, None),
        (MulticoreSimulator, "run", "sim.run", _sim_result, None),
        (ThermalManagementUnit, "decide", "control.decide", None, _decide_policy),
        (runner_mod, "build_trace", "workloads.build_trace", _trace_tasks, None),
        (runner_mod, "execute_scenario", "scenario.execute", None, _spec_attrs),
        (runner_mod.ScenarioRunner, "run", "scenario.run", None, _run_attrs),
        (SqliteOutcomeStore, "get", "scenario.store_get", _store_hit, None),
        (SqliteOutcomeStore, "put", "scenario.store_put", None, None),
        (JobJournal, "record_submit", "serving.journal", None, None),
        (JobJournal, "record_status", "serving.journal", None, None),
        (
            tournament_mod,
            "tournament_from_outcomes",
            "analysis.tournament",
            None,
            None,
        ),
    ]
    originals = []
    try:
        for owner, attr, name, on_call, before in targets:
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, on_call, before))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def metric_names() -> list[str]:
    """Every per-layer metric :func:`layer_metrics` reports, in order."""
    names = [
        "solver.barrier_calls",
        "solver.newton_iterations",
        "solver.not_optimal",
        "core.table_cells",
        "core.solve_calls",
        "sim.run_s",
        "sim.self_s",
        "sim.steps",
        "sim.windows",
        "sim.us_per_step",
        "workloads.tasks",
        "scenario.store_get_calls",
        "scenario.store_put_calls",
        "scenario.store_hit_ratio",
    ]
    for policy in POLICIES:
        names.append(f"control.decide_calls.{policy}")
        names.append(f"control.decide_us.{policy}")
    for name in TIMED_SPANS:
        names.append(f"{name}_s")
        names.append(f"{name}_self_s")
    return names


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts, busy and self times over `spans`."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def busy(name: str) -> float:
        return sum(span.duration for span in by_name.get(name, []))

    def own_time(name: str) -> float:
        return sum(own[span.id] for span in by_name.get(name, []))

    def total(name: str, attr: str) -> float:
        return sum(span.attrs.get(attr, 0) for span in by_name.get(name, []))

    barrier = by_name.get("solver.barrier", [])
    steps = total("sim.run", "steps")
    sim_self = own_time("sim.run")
    in_put = inside(spans, "scenario.store_put")
    gets = by_name.get("scenario.store_get", [])
    metrics: dict[str, float] = {
        "solver.barrier_calls": len(barrier),
        "solver.newton_iterations": total("solver.barrier", "iterations"),
        "solver.not_optimal": sum(1 for s in barrier if not s.attrs.get("ok")),
        "core.table_cells": total("core.table_build", "cells"),
        "core.solve_calls": len(by_name.get("core.solve", [])),
        "sim.run_s": busy("sim.run"),
        "sim.self_s": sim_self,
        "sim.steps": steps,
        "sim.windows": total("sim.run", "windows"),
        "sim.us_per_step": sim_self / steps * 1e6 if steps else 0.0,
        "workloads.tasks": total("workloads.build_trace", "tasks"),
        "scenario.store_get_calls": len(gets),
        "scenario.store_put_calls": len(by_name.get("scenario.store_put", [])),
        "scenario.store_hit_ratio": store_hit_ratio(
            [(bool(s.attrs.get("hit")), s.id in in_put) for s in gets]
        ),
    }
    decides = by_name.get("control.decide", [])
    for policy in POLICIES:
        mine = [s for s in decides if s.attrs.get("policy") == policy]
        metrics[f"control.decide_calls.{policy}"] = len(mine)
        metrics[f"control.decide_us.{policy}"] = (
            sum(s.duration for s in mine) / len(mine) * 1e6 if mine else 0.0
        )
    for name in TIMED_SPANS:
        metrics[f"{name}_s"] = busy(name)
        metrics[f"{name}_self_s"] = own_time(name)
    return metrics
