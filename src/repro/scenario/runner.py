"""ScenarioRunner: materialize, deduplicate, and execute scenario grids.

The runner is the execution substrate behind every figure-level experiment
and the ``protemp run`` CLI:

* **artifact caches** — one :class:`~repro.platform.Platform` per distinct
  :class:`PlatformSpec`, one :class:`~repro.core.protemp.ProTempOptimizer`
  per (platform, mode, step_subsample), and — the expensive one — one
  Phase-1 :class:`~repro.core.table.FrequencyTable` per distinct
  (platform spec, table config) key, built with the gen2 sweep and
  optionally persisted to a JSON cache directory with provenance
  (platform spec hash, strategy, build timestamp);
* **grid execution** — :meth:`run_many` resolves every distinct table
  exactly once up front, then fans the scenarios out over a process pool
  (``n_workers``) or runs them serially; parallel and serial runs produce
  bit-identical :class:`ScenarioOutcome` lists because every stochastic
  component is seeded from the spec (see `repro.scenario.specs`);
* **outcome store** — with ``outcome_store=`` the same dedup is lifted to
  whole scenarios: a cell whose spec hash is already in the store
  (this session, an earlier one, another shard's host) is *replayed* —
  ``outcome_cache_hit=True``, no simulation, no table resolve — and fresh
  cells are written back atomically (see `repro.scenario.store`).

Pre-built artifacts can be *primed* into the caches
(:meth:`prime_platform` / :meth:`prime_table`), which is how tests and
experiments reuse session-scoped fixtures instead of rebuilding tables.
"""

from __future__ import annotations

import json
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.control.manager import ThermalManagementUnit
from repro.core.protemp import ProTempOptimizer
from repro.core.table import FrequencyTable, build_frequency_table
from repro.observability import MetricsRegistry
from repro.errors import OutcomeStoreError, ScenarioError, TableError
from repro.platform import Platform
from repro.scenario.registry import (
    ASSIGNMENTS,
    PLATFORMS,
    POLICIES,
    SENSORS,
    WORKLOADS,
)
from repro.scenario.specs import (
    PlatformSpec,
    PolicySpec,
    ScenarioSpec,
    _spec_hash,
)
from repro.scenario.store import (
    OutcomeStore,
    StoredOutcome,
    open_outcome_store,
)
from repro.sim.engine import (
    MulticoreSimulator,
    SimulationConfig,
    SimulationResult,
)

@dataclass(frozen=True)
class ScenarioOutcome:
    """One scenario's outcome plus provenance — executed or replayed.

    **Cache-provenance semantics** (each flag describes *this* call, never
    an earlier run):

    * ``outcome_cache_hit`` — True when the whole scenario was answered
      from an outcome store (no simulation ran); False when this call
      executed the simulation.
    * ``table_cache_hit`` — True/False when this call consulted/built the
      policy's Phase-1 table, None when *no table was touched this call*:
      either the policy needs none, or the scenario was replayed from the
      store (a replay never resolves a table).  The original run's table
      provenance survives in ``stored.provenance``.

    **Wall-time semantics**: ``wall_time_s`` is always this call's cost —
    the simulation for an executed scenario, the (near-zero) store lookup
    for a replay.  ``solve_wall_time_s`` is always the cost of the
    simulation that produced the summary, wherever it ran: equal to
    ``wall_time_s`` for executed scenarios, copied from the store record
    for replays.  A replay therefore never reports the original solve's
    wall time as its own.

    Attributes:
        spec: the scenario.
        spec_hash: :attr:`ScenarioSpec.spec_hash` (stable across processes).
        result: the full :class:`SimulationResult`, or None for a replay
            (stores persist summary rows, not timeseries); use
            :meth:`require_result` when timeseries are mandatory.
        wall_time_s: wall-clock seconds this call spent (see above).
        table_cache_hit: Phase-1 table provenance of this call (see above).
        table_key: cache key of the table used (None when no table; for
            replays, the original run's key from the store record).
        outcome_cache_hit: True when replayed from an outcome store.
        solve_wall_time_s: wall time of the simulation that produced the
            summary (see above); None only on legacy records lacking it.
        stored: the :class:`~repro.scenario.store.StoredOutcome` a replay
            came from (None for executed scenarios).
    """

    spec: ScenarioSpec
    spec_hash: str
    result: SimulationResult | None
    wall_time_s: float
    table_cache_hit: bool | None
    table_key: str | None = None
    outcome_cache_hit: bool = False
    solve_wall_time_s: float | None = None
    stored: "StoredOutcome | None" = None

    def require_result(self) -> SimulationResult:
        """The full :class:`SimulationResult`, or a clear error for replays.

        Raises:
            ScenarioError: when this outcome was replayed from an outcome
                store (only summary rows persist; re-run without the store
                hit — e.g. a fresh store — to regain timeseries).
        """
        if self.result is None:
            raise ScenarioError(
                f"scenario {self.spec.label!r} was replayed from the outcome "
                "store, which persists summary rows only; timeseries-level "
                "reducers need an executed run"
            )
        return self.result

    # -- summary access (works for executed and replayed outcomes) ---------

    def data_row(self) -> dict:
        """The deterministic summary row — pure simulation results.

        This is the row the outcome store persists and ``protemp merge``
        compares: it contains no wall times and no cache flags, so the row
        for a given spec is bit-identical whether the cell was computed
        here, on another shard, or in an earlier session.  All values are
        plain JSON scalars/lists (floats round-trip exactly).
        """
        if self.result is None:
            assert self.stored is not None
            return dict(self.stored.summary)
        metrics = self.result.metrics
        return {
            "scenario": self.spec.label,
            "spec_hash": self.spec_hash,
            "policy": self.result.policy_name,
            "workload": self.result.trace_name,
            "platform": self.spec.platform.name,
            "seed": self.spec.seed,
            "peak_c": float(metrics.peak_temperature),
            "violation_fraction": float(metrics.violation_fraction),
            "mean_wait_s": float(metrics.waiting.mean),
            "completed_tasks": int(metrics.completed_tasks),
            "arrived_tasks": int(metrics.arrived_tasks),
            "band_fractions": [float(f) for f in self.result.band_fractions],
            "gradient_mean_c": float(metrics.gradient.mean),
            "gradient_max_c": float(metrics.gradient.max),
        }

    def summary_row(self) -> dict:
        """Flat JSON-compatible summary (the ``protemp run --json`` row).

        :meth:`data_row` plus this call's provenance: ``wall_time_s``,
        ``solve_wall_time_s``, ``table_cache_hit``, ``outcome_cache_hit``.
        """
        row = self.data_row()
        row["wall_time_s"] = self.wall_time_s
        row["solve_wall_time_s"] = self.solve_wall_time_s
        row["table_cache_hit"] = self.table_cache_hit
        row["outcome_cache_hit"] = self.outcome_cache_hit
        return row

    # Summary-level metric accessors: reducers that only need figure-level
    # aggregates (bands, waits, violations, gradients) use these so they
    # work identically on executed and store-replayed outcomes.

    @property
    def policy_label(self) -> str:
        """Display name of the policy that ran (e.g. ``"Pro-Temp"``)."""
        return self.data_row()["policy"]

    @property
    def workload_label(self) -> str:
        """Display name of the workload trace."""
        return self.data_row()["workload"]

    @property
    def peak_c(self) -> float:
        """Hottest core temperature observed (Celsius)."""
        return self.data_row()["peak_c"]

    @property
    def violation_fraction(self) -> float:
        """Fraction of (core, step) samples above t_max."""
        return self.data_row()["violation_fraction"]

    @property
    def mean_wait_s(self) -> float:
        """Mean task waiting time (s) — the Figure 7 metric."""
        return self.data_row()["mean_wait_s"]

    @property
    def band_fractions(self) -> np.ndarray:
        """Mean per-band time fractions (the Figure 6 bars)."""
        if self.result is not None:
            return self.result.band_fractions
        return np.asarray(self.data_row()["band_fractions"], dtype=float)

    @property
    def gradient_mean_c(self) -> float:
        """Mean spatial gradient, max - min core temperature (Celsius)."""
        return self.data_row()["gradient_mean_c"]

    @property
    def gradient_max_c(self) -> float:
        """Peak spatial gradient (Celsius)."""
        return self.data_row()["gradient_max_c"]


def table_key(platform_spec: PlatformSpec, policy_spec: PolicySpec) -> str:
    """Cache key of the Phase-1 table a (platform, policy) pair needs.

    Two specs share a table exactly when they agree on the platform spec
    and the policy's table configuration (mode, grids, subsampling,
    strategy, backend) — the remaining policy params do not influence the
    table.
    """
    config = policy_spec.table_config()
    payload = {
        "platform": platform_spec.to_dict(),
        "mode": config["mode"],
        "t_grid": list(config["t_grid"]),
        "f_grid": list(config["f_grid"]),
        "step_subsample": config["step_subsample"],
        "strategy": config["strategy"],
    }
    # The default backend is omitted so pre-backend cache keys (and the
    # table caches stored under them) stay valid.
    if config["backend"] != "barrier":
        payload["backend"] = config["backend"]
    return _spec_hash(payload)


def build_trace(spec: ScenarioSpec, n_cores: int):
    """Materialize the scenario's task trace (seeded from the spec).

    Args:
        spec: the scenario whose workload sub-spec to resolve.
        n_cores: number of cores the trace targets.

    Returns:
        A ``TaskTrace`` from the registered workload factory.

    Raises:
        ScenarioError: for unknown workload names.
    """
    entry = WORKLOADS.get(spec.workload.name)
    return entry.factory(
        spec.workload.duration,
        n_cores,
        seed=spec.trace_seed,
        **spec.workload.kwargs,
    )


def build_policy(
    spec: ScenarioSpec,
    table: FrequencyTable | None,
    platform: Platform | None = None,
):
    """Materialize the scenario's DFS policy (table/platform injected).

    Args:
        spec: the scenario whose policy sub-spec to resolve.
        table: the Phase-1 table for table-driven policies (None otherwise).
        platform: the materialized platform for model-based policies
            (``needs_platform`` registrations — the factory receives it
            first, plus ``window=`` with the scenario's DFS period unless
            the spec pins one).

    Returns:
        A ``DFSPolicy`` from the registered factory.

    Raises:
        ScenarioError: for unknown policy names, when a table-driven
            policy is given no table, or a model-based one no platform.
    """
    entry = POLICIES.get(spec.policy.name)
    kwargs = spec.policy.factory_kwargs()
    if entry.needs_table:
        if table is None:
            raise ScenarioError(
                f"policy {spec.policy.name!r} needs a frequency table"
            )
        return entry.factory(table, **kwargs)
    if entry.needs_platform:
        if platform is None:
            raise ScenarioError(
                f"policy {spec.policy.name!r} needs a materialized platform"
            )
        kwargs.setdefault("window", spec.window)
        return entry.factory(platform, **kwargs)
    return entry.factory(**kwargs)


def build_sensor(spec: ScenarioSpec):
    """Materialize the scenario's sensor model (seeded from the spec)."""
    entry = SENSORS.get(spec.sensor.name)
    kwargs = dict(spec.sensor.kwargs)
    if entry.needs_seed:
        kwargs.setdefault("seed", spec.sensor_seed)
    return entry.factory(**kwargs)


def build_assignment(spec: ScenarioSpec):
    """Materialize the scenario's task-assignment policy."""
    entry = ASSIGNMENTS.get(spec.assignment)
    kwargs: dict = {}
    if entry.needs_seed:
        kwargs["seed"] = spec.assignment_seed
    return entry.factory(**kwargs)


def execute_scenario(
    spec: ScenarioSpec,
    platform: Platform,
    table: FrequencyTable | None,
) -> SimulationResult:
    """Run one scenario against pre-resolved artifacts (pure, seeded).

    Args:
        spec: the scenario to simulate.
        platform: the materialized platform for ``spec.platform``.
        table: the Phase-1 table for table-driven policies (None otherwise).

    Returns:
        The full :class:`SimulationResult`; identical specs and artifacts
        produce bit-identical results (every stochastic component is
        seeded from the spec).
    """
    policy = build_policy(spec, table, platform)
    tmu = ThermalManagementUnit(
        policy=policy,
        f_max=platform.f_max,
        t_max=platform.t_max,
        window=spec.window,
        sensor=build_sensor(spec),
    )
    sim = MulticoreSimulator(
        platform,
        tmu,
        assignment=build_assignment(spec),
        config=SimulationConfig(
            window=spec.window,
            max_time=spec.horizon,
            t_initial=spec.t_initial,
        ),
    )
    return sim.run(build_trace(spec, platform.n_cores))


def _run_in_worker(
    spec: ScenarioSpec,
    platform: Platform,
    table: FrequencyTable | None,
) -> tuple[SimulationResult, float]:
    """Process-pool entry point: execute and time one scenario."""
    started = time.perf_counter()
    result = execute_scenario(spec, platform, table)
    return result, time.perf_counter() - started


class ScenarioRunner:
    """Execute scenario specs with artifact dedup/caching and parallelism.

    Example:

        >>> runner = ScenarioRunner(outcome_store="outcomes/")  # doctest: +SKIP
        >>> outcomes = runner.run_many(ScenarioSpec.grid(
        ...     policy=["basic-dfs", "protemp"], seed=range(4),
        ... ))  # doctest: +SKIP
        >>> runner.scenarios_executed, runner.outcomes_replayed  # doctest: +SKIP
        (8, 0)

    The runner is **thread-safe**: the long-lived scenario service
    (`repro.serving`) shares one runner across concurrent HTTP requests,
    whose worker threads call :meth:`run` simultaneously.  Artifact
    caches and counters are guarded by an internal lock, and Phase-1
    table builds stay exactly-once per key under concurrency (a per-key
    build lock serializes same-key requests while distinct keys build in
    parallel).

    Args:
        n_workers: process-pool size for :meth:`run_many`; None or 1 runs
            serially.  Parallel and serial runs are bit-identical.
        table_cache_dir: optional directory of JSON table caches shared
            across processes/sessions; tables are loaded when the key
            matches and written after fresh builds.
        outcome_store: optional scenario-level result cache — an
            :class:`~repro.scenario.store.OutcomeStore` or a directory
            path (opened as a
            :class:`~repro.scenario.store.DirectoryOutcomeStore`).  Before
            solving a scenario the runner consults the store by spec hash:
            a hit is returned as a replayed outcome
            (``outcome_cache_hit=True``, no simulation, no table resolve),
            a miss is executed and written back atomically, so concurrent
            shards can share one store directory.
        metrics: optional :class:`~repro.observability.MetricsRegistry` to
            instrument into (the serving layer passes its service-wide
            registry so ``/metrics`` covers the runner); by default the
            runner creates a private one.  The runner's legacy integer
            counters (``tables_built`` etc.) stay authoritative and are
            mirrored 1:1 into registry counters
            (``tables_built_total``, ``scenarios_executed_total``,
            ``outcomes_replayed_total``) — reconciliation tests pin the
            mirror down.  The outcome store, when configured, is bound to
            the same registry.
    """

    def __init__(
        self,
        *,
        n_workers: int | None = None,
        table_cache_dir: str | Path | None = None,
        outcome_store: "OutcomeStore | str | Path | None" = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if n_workers is not None and n_workers < 1:
            raise ScenarioError("n_workers must be >= 1 when given")
        self.n_workers = n_workers
        self.table_cache_dir = (
            Path(table_cache_dir) if table_cache_dir is not None else None
        )
        self.outcome_store = open_outcome_store(outcome_store)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if self.outcome_store is not None:
            self.outcome_store.bind_metrics(self.metrics)
        #: Guards the artifact caches and counters.  The runner is shared
        #: process-wide by the serving layer, whose worker threads call
        #: :meth:`run` concurrently; an RLock (not a plain Lock) because
        #: cache fills nest (resolving a table materializes the platform).
        self._lock = threading.RLock()
        #: Per-table-key build locks: concurrent requests for the *same*
        #: key serialize (exactly-once builds), different keys build in
        #: parallel without holding the main lock through a sweep.
        self._table_build_locks: dict[str, threading.Lock] = {}
        self._platforms: dict[PlatformSpec, Platform] = {}
        self._optimizers: dict[tuple, ProTempOptimizer] = {}
        self._tables: dict[str, FrequencyTable] = {}
        #: Number of tables this runner built from scratch (exposed so
        #: tests can assert the exactly-once-per-distinct-spec behavior).
        self.tables_built = 0
        #: Number of scenarios this runner actually simulated (store
        #: replays do not count — a fully warm outcome store must leave
        #: this at 0, which tests assert).
        self.scenarios_executed = 0
        #: Number of scenarios answered from the outcome store.
        self.outcomes_replayed = 0

    # -- artifact caches ---------------------------------------------------

    def platform(self, spec: PlatformSpec) -> Platform:
        """The (cached) platform for `spec`."""
        with self._lock:
            if spec not in self._platforms:
                entry = PLATFORMS.get(spec.name)
                self._platforms[spec] = entry.factory(**spec.kwargs)
            return self._platforms[spec]

    def prime_platform(self, spec: PlatformSpec, platform: Platform) -> None:
        """Seed the platform cache with a pre-built object for `spec`."""
        with self._lock:
            self._platforms[spec] = platform

    def optimizer(
        self,
        platform_spec: PlatformSpec,
        *,
        mode: str = "variable",
        step_subsample: int | None = None,
    ) -> ProTempOptimizer:
        """A (cached) Phase-1 optimizer on the platform.

        Non-simulation experiments (feasibility sweeps, per-core frequency
        probes) share optimizers through this cache instead of wiring their
        own.
        """
        from repro.scenario.specs import DEFAULT_STEP_SUBSAMPLE

        subsample = (
            DEFAULT_STEP_SUBSAMPLE if step_subsample is None else step_subsample
        )
        key = (platform_spec, mode, subsample)
        with self._lock:
            if key not in self._optimizers:
                self._optimizers[key] = ProTempOptimizer(
                    self.platform(platform_spec),
                    mode=mode,  # type: ignore[arg-type]
                    step_subsample=subsample,
                )
            return self._optimizers[key]

    def prime_table(
        self,
        platform_spec: PlatformSpec,
        policy_spec: PolicySpec,
        table: FrequencyTable,
    ) -> None:
        """Seed the table cache for the (platform, policy) pair's key."""
        with self._lock:
            self._tables[table_key(platform_spec, policy_spec)] = table

    def table(
        self,
        platform_spec: PlatformSpec,
        policy_spec: PolicySpec,
    ) -> tuple[FrequencyTable, bool]:
        """The Phase-1 table the pair needs, building it at most once.

        Exactly-once holds under concurrent callers too: threads asking
        for the same key serialize on a per-key build lock (the first
        builds, the rest find the cached table when they acquire it),
        while distinct keys build in parallel.

        Returns:
            ``(table, cache_hit)`` — `cache_hit` is False only when this
            call built the table from scratch.
        """
        key = table_key(platform_spec, policy_spec)
        with self._lock:
            if key in self._tables:
                return self._tables[key], True
            build_lock = self._table_build_locks.setdefault(
                key, threading.Lock()
            )
        with build_lock:
            with self._lock:
                if key in self._tables:
                    return self._tables[key], True
            config = policy_spec.table_config()
            platform = self.platform(platform_spec)
            cache_path = (
                self.table_cache_dir / f"table_{key}.json"
                if self.table_cache_dir is not None
                else None
            )
            if cache_path is not None and cache_path.exists():
                try:
                    table = FrequencyTable.load_json(
                        cache_path,
                        expected_platform_hash=platform_spec.spec_hash,
                    )
                except TableError as exc:
                    warnings.warn(
                        f"ignoring unreadable table cache {cache_path}: {exc}",
                        stacklevel=2,
                    )
                else:
                    if (
                        tuple(table.t_grid) == config["t_grid"]
                        and tuple(table.f_grid) == config["f_grid"]
                    ):
                        with self._lock:
                            self._tables[key] = table
                        return table, True
            optimizer = ProTempOptimizer(
                platform,
                mode=config["mode"],  # type: ignore[arg-type]
                step_subsample=config["step_subsample"],
                backend=config["backend"],  # type: ignore[arg-type]
            )
            cells = self.metrics.counter(
                "table_build_cells_total",
                "Phase-1 sweep cells solved across all table builds",
            )
            progress_seen = {"done": 0}

            def _tick(done: int, total: int) -> None:
                # The sweep reports cumulative progress per cell; mirror
                # the deltas so the counter stays monotone.
                delta = done - progress_seen["done"]
                progress_seen["done"] = done
                if delta > 0:
                    cells.inc(delta)

            with self.metrics.span("table_build"):
                with self.metrics.time(
                    "table_build_seconds", "Phase-1 table build wall time"
                ):
                    table = build_frequency_table(
                        optimizer,
                        list(config["t_grid"]),
                        list(config["f_grid"]),
                        strategy=config["strategy"],
                        progress=_tick,
                        provenance={
                            "platform_spec_hash": platform_spec.spec_hash,
                            "platform_spec": platform_spec.to_dict(),
                            # protemp: allow[PT001] -- provenance timestamp only; excluded from record equality and replay
                            "built_at": datetime.now(timezone.utc).isoformat(
                                timespec="seconds"
                            ),
                        },
                    )
            self.metrics.counter(
                "tables_built_total", "Phase-1 tables built from scratch"
            ).inc()
            with self._lock:
                self.tables_built += 1
                self._tables[key] = table
            if cache_path is not None:
                cache_path.parent.mkdir(parents=True, exist_ok=True)
                table.save_json(cache_path)
            return table, False

    def _resolve_table(
        self, spec: ScenarioSpec
    ) -> tuple[FrequencyTable | None, bool | None, str | None]:
        """(table, cache_hit, key) for a scenario; (None, None, None) when
        the policy needs no table."""
        if not POLICIES.get(spec.policy.name).needs_table:
            return None, None, None
        key = table_key(spec.platform, spec.policy)
        with self.metrics.span("table_resolve"):
            table, hit = self.table(spec.platform, spec.policy)
        return table, hit, key

    # -- outcome store -----------------------------------------------------

    def _store_lookup(self, spec: ScenarioSpec) -> ScenarioOutcome | None:
        """A replayed outcome for `spec`, or None on a store miss.

        A hit is only accepted when the stored spec is *hash-equivalent*
        to the requested one (equal :meth:`ScenarioSpec.hash_dict`
        payloads — identical up to hash-excluded location params such as a
        trace file's path) — a record whose 12-hex key matches but whose
        canonical payload differs is a hash collision and raises rather
        than silently answering with another scenario's results.

        Raises:
            OutcomeStoreError: on a spec-hash collision or corrupt record.
        """
        if self.outcome_store is None:
            return None
        started = time.perf_counter()
        record = self.outcome_store.get(spec.spec_hash)
        if record is None:
            return None
        if ScenarioSpec.from_dict(record.spec).hash_dict() != spec.hash_dict():
            raise OutcomeStoreError(
                f"spec-hash collision on {spec.spec_hash}: the store holds a "
                f"different spec under this key (requested {spec.label!r})"
            )
        with self._lock:
            self.outcomes_replayed += 1
        self.metrics.counter(
            "outcomes_replayed_total", "scenarios answered from the store"
        ).inc()
        self.metrics.labelled_counter(
            "outcomes_replayed_by_policy",
            "scenarios answered from the store, by policy",
            policy=spec.policy.name,
        ).inc()
        return ScenarioOutcome(
            spec=spec,
            spec_hash=spec.spec_hash,
            result=None,
            wall_time_s=time.perf_counter() - started,
            table_cache_hit=None,
            table_key=record.provenance.get("table_key"),
            outcome_cache_hit=True,
            solve_wall_time_s=record.provenance.get("solve_wall_time_s"),
            stored=record,
        )

    def _store_put(self, outcome: ScenarioOutcome) -> None:
        """Persist an executed outcome (no-op without a store)."""
        if self.outcome_store is not None and outcome.result is not None:
            self.outcome_store.put(StoredOutcome.from_outcome(outcome))

    def lookup(self, spec: ScenarioSpec) -> ScenarioOutcome | None:
        """Probe the outcome store without executing anything.

        The serving layer streams store hits the moment a job is accepted
        — ahead of misses still solving — by probing each cell through
        this method first.

        Returns:
            A replayed outcome (``outcome_cache_hit=True``), or None when
            the scenario is not in the store (or no store is configured).

        Raises:
            OutcomeStoreError: on a spec-hash collision or corrupt record.
        """
        return self._store_lookup(spec)

    # -- execution ---------------------------------------------------------

    def _count_executed(self, wall: float, spec: ScenarioSpec) -> None:
        """Record one freshly simulated scenario in both counter systems."""
        with self._lock:
            self.scenarios_executed += 1
        self.metrics.counter(
            "scenarios_executed_total", "scenarios actually simulated"
        ).inc()
        self.metrics.labelled_counter(
            "scenarios_executed_by_policy",
            "scenarios actually simulated, by policy",
            policy=spec.policy.name,
        ).inc()
        self.metrics.histogram(
            "scenario_execute_seconds", "per-scenario simulation wall time"
        ).observe(wall)

    def run(self, spec: ScenarioSpec) -> ScenarioOutcome:
        """Execute one scenario serially (store consulted first)."""
        with self.metrics.span("scenario"):
            return self._run_instrumented(spec)

    def _run_instrumented(self, spec: ScenarioSpec) -> ScenarioOutcome:
        replayed = self._store_lookup(spec)
        if replayed is not None:
            return replayed
        table, hit, key = self._resolve_table(spec)
        platform = self.platform(spec.platform)
        started = time.perf_counter()
        with self.metrics.span("execute"):
            result = execute_scenario(spec, platform, table)
        wall = time.perf_counter() - started
        self._count_executed(wall, spec)
        outcome = ScenarioOutcome(
            spec=spec,
            spec_hash=spec.spec_hash,
            result=result,
            wall_time_s=wall,
            table_cache_hit=hit,
            table_key=key,
            solve_wall_time_s=wall,
        )
        self._store_put(outcome)
        return outcome

    def run_many(
        self, specs: Sequence[ScenarioSpec]
    ) -> list[ScenarioOutcome]:
        """Execute a scenario grid, reusing artifacts across scenarios.

        The outcome store (when configured) is consulted first: replayed
        scenarios skip table resolution entirely, so a fully warm store
        performs zero scenario solves *and* zero table builds.  For the
        misses, distinct frequency tables are resolved exactly once up
        front (in spec order), then scenarios run serially or over a
        process pool depending on ``n_workers``.  Output order matches
        input order, and parallel results are bit-identical to serial
        ones.  Freshly executed outcomes are written back to the store.
        """
        specs = list(specs)
        if not specs:
            return []
        with self.metrics.span("replay_pass"):
            replayed: list[ScenarioOutcome | None] = [
                self._store_lookup(spec) for spec in specs
            ]
        pending = [
            (i, spec)
            for i, (spec, hit) in enumerate(zip(specs, replayed))
            if hit is None
        ]
        resolved: list[tuple[FrequencyTable | None, bool | None, str | None]] = [
            self._resolve_table(spec) for _, spec in pending
        ]
        platforms = [self.platform(spec.platform) for _, spec in pending]
        outcomes: list[ScenarioOutcome | None] = list(replayed)

        def _finish(slot: int, result: SimulationResult, wall: float) -> None:
            # Record and persist one finished scenario immediately, so an
            # interrupted grid run keeps (and can later replay) every cell
            # that completed before the interruption.
            i, spec = pending[slot]
            _, hit, key = resolved[slot]
            self._count_executed(wall, spec)
            outcome = ScenarioOutcome(
                spec=spec,
                spec_hash=spec.spec_hash,
                result=result,
                wall_time_s=wall,
                table_cache_hit=hit,
                table_key=key,
                solve_wall_time_s=wall,
            )
            self._store_put(outcome)
            outcomes[i] = outcome

        workers = self.n_workers or 1
        if workers > 1 and len(pending) > 1:
            with ProcessPoolExecutor(
                max_workers=min(workers, len(pending))
            ) as pool:
                futures = {
                    pool.submit(_run_in_worker, spec, platform, table): slot
                    for slot, ((_, spec), platform, (table, _, _)) in enumerate(
                        zip(pending, platforms, resolved)
                    )
                }
                for future in as_completed(futures):
                    result, wall = future.result()
                    _finish(futures[future], result, wall)
        else:
            for slot, ((_, spec), platform, (table, _, _)) in enumerate(
                zip(pending, platforms, resolved)
            ):
                with self.metrics.span("execute"):
                    result, wall = _run_in_worker(spec, platform, table)
                _finish(slot, result, wall)
        return [outcome for outcome in outcomes if outcome is not None]

    def run_config(
        self,
        config: dict | str | Path,
        *,
        shard_index: int | None = None,
        shard_count: int | None = None,
    ) -> list[ScenarioOutcome]:
        """Expand a JSON config (path, text, or dict) and run the grid.

        Args:
            config: a config dict, a path to a config JSON file, or inline
                JSON text.
            shard_index: with `shard_count`, run only one deterministic
                shard of the expanded grid (see
                :func:`~repro.scenario.specs.shard_specs`).
            shard_count: total number of shards.

        Returns:
            The outcomes of this shard's scenarios, in grid order.
        """
        from repro.scenario.specs import scenario_grid_from_config

        if isinstance(config, (str, Path)):
            path = Path(config)
            if path.exists():
                config = json.loads(path.read_text())
            elif isinstance(config, str) and config.lstrip().startswith("{"):
                config = json.loads(config)  # inline JSON text
            else:
                raise ScenarioError(f"no such scenario config: {config}")
        return self.run_many(
            scenario_grid_from_config(
                config, shard_index=shard_index, shard_count=shard_count
            )
        )
