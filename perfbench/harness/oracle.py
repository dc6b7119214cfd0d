"""Correctness oracles: a frozen stepwise engine and the comparisons.

:func:`reference_row` re-simulates a scenario with a copy of the
stepwise loop of ``MulticoreSimulator.run`` as it stood when this
benchmark was written: one 0.4 ms explicit thermal step at a time, the
TMU consulted at every window boundary.  It is kept here, not imported,
so that a faster engine in ``src`` is always checked against the loop it
replaces.  Policies, sensors, assignment and traces still come from the
program through the runner's public builders; only the time stepping and
metric accumulation are frozen.

Tolerances (:func:`compare_rows`):

* ``completed_tasks`` and ``arrived_tasks`` match exactly;
* ``peak_c``, ``gradient_mean_c`` and ``gradient_max_c`` within
  ``PEAK_TOL_C`` (1e-3 C), far above float roundoff and far below any
  modelling error;
* ``band_fractions`` and ``violation_fraction`` within ``BAND_TOL_STEPS``
  (8) thermal steps of the horizon: a closed-form engine may flip a band
  at an exact edge;
* ``mean_wait_s`` within ``WAIT_TOL_S`` (1 ms, 2.5 thermal steps).

Tables (:func:`compare_tables`) must match the cold-sweep reference
exactly on feasibility and to 1e-9 relative on feasible frequencies.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any

import numpy as np

PEAK_TOL_C = 1e-3
BAND_TOL_STEPS = 8
WAIT_TOL_S = 1e-3
TABLE_RTOL = 1e-9
BAND_EDGES = np.array([80.0, 90.0, 100.0])


def reference_row(spec: Any, platform: Any, table: Any) -> dict:
    """The summary-row fields of `spec`, simulated by the frozen loop."""
    from repro.control.manager import ThermalManagementUnit
    from repro.scenario.runner import (
        build_assignment,
        build_policy,
        build_sensor,
        build_trace,
    )

    tmu = ThermalManagementUnit(
        policy=build_policy(spec, table, platform),
        f_max=platform.f_max,
        t_max=platform.t_max,
        window=spec.window,
        sensor=build_sensor(spec),
    )
    assignment = build_assignment(spec)
    tasks = [task.fresh_copy() for task in build_trace(spec, platform.n_cores).tasks]
    tmu.reset()
    assignment.reset()

    dt = platform.thermal.dt
    steps_per_window = int(round(spec.window / dt))
    n_cores = platform.n_cores
    core_idx = np.asarray(platform.core_indices, dtype=int)
    a_matrix = platform.thermal.a_matrix
    b_vector = platform.thermal.b_vector
    c_vector = platform.thermal.c_vector
    injection = platform.power.injection_matrix()
    idle_fraction = platform.power.idle_fraction
    leakage = platform.power.leakage
    total_steps = int(np.ceil(spec.horizon / dt))

    temps = np.full(platform.thermal.n, float(spec.t_initial))
    queue: deque = deque()
    running: list[Any] = [None] * n_cores
    remaining = np.zeros(n_cores)
    p_busy = np.zeros(n_cores)
    rates = np.zeros(n_cores)
    band_counts = np.zeros((n_cores, len(BAND_EDGES) + 1), dtype=np.int64)
    core_range = np.arange(n_cores)
    violations = np.zeros(n_cores, dtype=np.int64)
    waits: list[float] = []
    spread_sum = 0.0
    spread_max = 0.0
    peak = -math.inf
    next_arrival = 0
    completed = 0
    time = 0.0

    for step in range(total_steps):
        if step % steps_per_window == 0:
            backlog = float(remaining.sum()) + sum(t.workload for t in queue)
            runnable = sum(t is not None for t in running) + len(queue)
            freqs = tmu.decide(
                step // steps_per_window,
                time,
                temps[core_idx],
                backlog,
                runnable_tasks=runnable,
            )
            p_busy = platform.power.core_power(freqs)
            rates = freqs / platform.f_max
        while next_arrival < len(tasks) and tasks[next_arrival].arrival <= time:
            queue.append(tasks[next_arrival])
            next_arrival += 1
        if queue:
            idle = [i for i in range(n_cores) if running[i] is None]
            now = temps[core_idx]
            while idle and queue:
                task = queue.popleft()
                core = assignment.choose_core(idle, now)
                idle.remove(core)
                task.start_time = time
                waits.append(max(time - task.arrival, 0.0))
                running[core] = task
                remaining[core] = task.workload
        busy = np.array([t is not None for t in running])
        if busy.any():
            remaining = np.where(busy, remaining - rates * dt, remaining)
            for core in range(n_cores):
                if running[core] is not None and remaining[core] <= 1e-12:
                    running[core] = None
                    remaining[core] = 0.0
                    completed += 1
        core_power = np.where(busy, p_busy, idle_fraction * p_busy)
        node_power = injection @ core_power
        if leakage is not None:
            node_power[core_idx] += leakage.power(temps[core_idx])
        temps = a_matrix @ temps + b_vector * node_power + c_vector
        now = temps[core_idx]
        band_counts[core_range, np.searchsorted(BAND_EDGES, now, side="right")] += 1
        spread = float(np.max(now) - np.min(now))
        spread_sum += spread
        spread_max = max(spread_max, spread)
        violations += now > platform.t_max
        peak = max(peak, float(now.max()))
        time += dt

    for task in tasks[:next_arrival]:
        if task.start_time is None:
            waits.append(max(time - task.arrival, 0.0))
    fractions = band_counts / np.maximum(band_counts.sum(axis=1, keepdims=True), 1)
    return {
        "peak_c": peak,
        "violation_fraction": float(violations.sum()) / (total_steps * n_cores),
        "mean_wait_s": float(np.mean(waits)) if waits else 0.0,
        "completed_tasks": completed,
        "arrived_tasks": next_arrival,
        "band_fractions": [float(f) for f in fractions.mean(axis=0)],
        "gradient_mean_c": spread_sum / total_steps,
        "gradient_max_c": spread_max,
        "total_steps": total_steps,
    }


def compare_rows(row: dict, reference: dict) -> list[str]:
    """Differences between a summary row and its reference, beyond tolerance."""
    problems = []
    for key in ("completed_tasks", "arrived_tasks"):
        if row[key] != reference[key]:
            problems.append(f"{key} {row[key]} != reference {reference[key]}")
    for key in ("peak_c", "gradient_mean_c", "gradient_max_c"):
        if not abs(row[key] - reference[key]) <= PEAK_TOL_C:
            problems.append(f"{key} {row[key]!r} vs reference {reference[key]!r}")
    step_share = BAND_TOL_STEPS / reference["total_steps"]
    if not abs(row["violation_fraction"] - reference["violation_fraction"]) <= (
        step_share
    ):
        problems.append(
            f"violation_fraction {row['violation_fraction']!r} vs reference "
            f"{reference['violation_fraction']!r}"
        )
    bands = row["band_fractions"]
    if len(bands) != len(reference["band_fractions"]) or any(
        not abs(got - want) <= step_share
        for got, want in zip(bands, reference["band_fractions"])
    ):
        problems.append(
            f"band_fractions {bands} vs reference {reference['band_fractions']}"
        )
    if not abs(row["mean_wait_s"] - reference["mean_wait_s"]) <= WAIT_TOL_S:
        problems.append(
            f"mean_wait_s {row['mean_wait_s']!r} vs reference "
            f"{reference['mean_wait_s']!r}"
        )
    return problems


def compare_tables(table: Any, reference: Any) -> list[str]:
    """Feasibility identical; feasible frequencies within 1e-9 relative."""
    problems = []
    if not np.array_equal(table.feasibility_matrix(), reference.feasibility_matrix()):
        problems.append("feasibility differs from the cold sweep")
    for key, ref_entry in reference.entries.items():
        if not ref_entry.feasible or key not in table.entries:
            continue
        got = np.array(table.entries[key].frequencies)
        want = np.array(ref_entry.frequencies)
        if got.shape != want.shape or np.any(
            np.abs(got - want) > TABLE_RTOL * np.abs(want)
        ):
            problems.append(f"cell {key}: frequencies differ beyond 1e-9 relative")
    return problems
