"""The four workloads, each driving the program's public API from outside.

Every workload derives all of its inputs (trace, sensor and assignment
seeds through the scenario seed; the table grid's jitter) from the
``--seed`` argument, sets up several times and keeps the last set-up,
measures one untraced phase, and with tracing on a second, traced phase
on identical inputs.  Outputs are checked against :mod:`harness.oracle`
after the timed phases, so checking costs no measured time.

Why these four (each names the layer it stresses and one it leaves idle):

* ``paper-grid``: Niagara-8 with the paper's three policies; Phase 2 (the
  thermal/DFS loop) is nearly all of the timed region, the solver does
  nothing there (its table is built in set-up).
* ``table-sweep``: the gen2 Phase-1 sweep of the ROADMAP's 4x10 grid; the
  solver and ``core`` do all the work and the simulator is idle.
* ``zoo-tournament``: the controller zoo on a 4-core row; ``mpc`` re-solves
  the convex program every window, so the solver runs online in many small
  warm-started solves next to a simulator on a far smaller network.
* ``service-mix``: ``protemp serve`` in its own process, one closed-loop
  client, 3 warm cells to 1 cold per job: transport, jobs, journal and
  store reads and writes side by side on the server's two workers.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from harness import layers, oracle
from harness.stats import Tally, failure_kind, median
from harness.tracing import Span, Tracer, inside, union_length

SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 200
SETUP_BUDGET_S = 1.0


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    trace: bool
    work: Path


@dataclass
class Phase:
    """One measured phase: what the end-to-end and layer metrics read."""

    wall_s: float
    cells: int
    latencies: list[float]
    #: (key, cells, seconds) per request; requests with the same key run
    #: the same inputs.  ``cells_per_s`` is :func:`stats.best_pace` over
    #: them, so a spell of host contention inside a run moves it little.
    rounds: list[tuple[int, int, float]] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)
    #: Per request: (request wall time, time its top-level layer spans
    #: account for) — the trace-coverage inputs.
    coverage: list[tuple[float, float]] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)


@dataclass
class Outcome:
    request: str
    tally: Tally
    setup_s: list[float]
    setup_parts: dict[str, float]
    untraced: Phase
    peak_rss_mb: float
    traced: Phase | None = None
    notes: list[str] = field(default_factory=list)


def _rss_mb() -> float:
    """Peak resident memory of this process so far (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _repeat_setup(
    fn: Callable[[], tuple[Any, dict[str, float]]],
    discard: Callable[[Any], Any] | None = None,
):
    """Run `fn` at least three times (more while cheap); keep the last.

    ``discard(result)`` releases a superseded set-up before the next
    repeat, outside the timed part.  Returns ``(last result, per-repeat
    seconds, median of each part)``.
    """
    times: list[float] = []
    parts: dict[str, list[float]] = {}
    result = None
    spent = 0.0
    while len(times) < SETUP_MIN_REPEATS or (
        spent < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPEATS
    ):
        if times and discard is not None:
            discard(result)
        started = time.perf_counter()
        result, split = fn()
        elapsed = time.perf_counter() - started
        times.append(elapsed)
        spent += elapsed
        for key, value in split.items():
            parts.setdefault(key, []).append(value)
    return result, times, {key: median(values) for key, values in parts.items()}


def _top_level(spans: list[Span], root_name: str) -> dict[int, float]:
    """Per root span id: summed duration of its direct children."""
    roots = {span.id for span in spans if span.name == root_name}
    covered = {root: 0.0 for root in roots}
    for span in spans:
        if span.parent in covered:
            covered[span.parent] += span.duration
    return covered


def _in_process_phase(
    ctx: Context,
    traced: bool,
    request: Callable[[Tracer | None, int], int],
    distinct: int = 1,
) -> Phase:
    """Repeat `request` until ``ctx.seconds`` have passed.

    ``request(tracer, key)`` runs input ``key`` of `distinct` and returns
    the cells it completed; keys rotate, and every key runs at least
    three times.  Each request's wall time, read here, is one latency
    sample.  With `traced`, the layer wrappers are installed and every
    request runs inside a ``bench.request`` root span.
    """
    tracer = Tracer() if traced else None
    rounds: list[tuple[int, int, float]] = []

    def loop() -> float:
        started = time.perf_counter()
        while (
            len(rounds) < 3 * distinct
            or time.perf_counter() - started < ctx.seconds
        ):
            key = len(rounds) % distinct
            began = time.perf_counter()
            if tracer is not None:
                with tracer.span("bench.request"):
                    done = request(tracer, key)
            else:
                done = request(None, key)
            rounds.append((key, done, time.perf_counter() - began))
        return time.perf_counter() - started

    def phase(wall: float, **spans: Any) -> Phase:
        cells = sum(done for _, done, _ in rounds)
        latencies = [seconds for _, _, seconds in rounds]
        return Phase(wall, cells, latencies, rounds, **spans)

    if tracer is None:
        return phase(loop())
    with layers.installed(tracer):
        wall = loop()
    spans = list(tracer.spans)
    covered = _top_level(spans, "bench.request")
    coverage = [
        (span.duration, covered[span.id])
        for span in spans
        if span.name == "bench.request"
    ]
    return phase(wall, spans=spans, coverage=coverage)


# -- paper-grid -----------------------------------------------------------

PAPER_T_GRID = [70.0, 85.0, 95.0, 100.0]
PAPER_F_GRID = [2e8, 4e8, 6e8, 8e8, 1e9]


#: Scenario seeds per paper grid.  A ``mixed`` trace holds 2,000 to
#: 12,000 tasks depending on its seed, and a cell's cost follows; three
#: seeds per run keep one draw from setting the run's figure.
PAPER_SEEDS = 3


def paper_grid_config(seed: int) -> dict:
    """Niagara-8, {no-tc, basic-dfs, protemp} x {mixed, compute} x seeds."""
    rng = np.random.default_rng([seed, 1])
    return {
        "base": {"platform": "niagara8", "t_initial": 45.0, "window": 0.1},
        "grid": {
            "policy": [
                "no-tc",
                {"name": "basic-dfs", "params": {"threshold": 90.0}},
                {
                    "name": "protemp",
                    "params": {
                        "t_grid": PAPER_T_GRID,
                        "f_grid": PAPER_F_GRID,
                        "step_subsample": 10,
                    },
                },
            ],
            "workload": [
                {"name": "mixed", "duration": 5.0, "params": {}},
                {"name": "compute", "duration": 5.0, "params": {}},
            ],
            "seed": [int(s) for s in rng.integers(0, 2**31, PAPER_SEEDS)],
        },
    }


def _check_rows(
    tally: Tally,
    rows: list[tuple[Any, dict]],
    reference: Callable[[Any], dict],
) -> int:
    """Compare each ``(spec, row)`` with its reference; reject mismatches."""
    cache: dict[str, dict] = {}
    for spec, row in rows:
        if spec.spec_hash not in cache:
            cache[spec.spec_hash] = reference(spec)
        problems = oracle.compare_rows(row, cache[spec.spec_hash])
        if problems:
            tally.reject(f"{spec.label}: {'; '.join(problems)}")
    return len(cache)


def paper_grid(ctx: Context) -> Outcome:
    from repro import ScenarioRunner
    from repro.scenario.specs import scenario_grid_from_config

    # A request is one cell of the 3 x 2 x 3 grid; the cells rotate, so a
    # cell's requests all run the same inputs and cost the same.
    specs = scenario_grid_from_config(paper_grid_config(ctx.seed))
    table_spec = next(s for s in specs if s.policy.name == "protemp")

    def setup():
        runner = ScenarioRunner()
        started = time.perf_counter()
        platform = runner.platform(table_spec.platform)
        built = time.perf_counter()
        table, _ = runner.table(table_spec.platform, table_spec.policy)
        done = time.perf_counter()
        return (platform, table), {
            "platform_s": built - started,
            "table_build_s": done - built,
        }

    (platform, table), setup_times, parts = _repeat_setup(setup)
    tally = Tally()
    rows: list[tuple[Any, dict]] = []

    def request(tracer, key):
        spec = specs[key]
        runner = ScenarioRunner()
        runner.prime_platform(table_spec.platform, platform)
        runner.prime_table(table_spec.platform, table_spec.policy, table)
        try:
            outcomes = runner.run_many([spec])
        except Exception as exc:
            tally.fail("raised", f"{spec.label}: {exc!r}")
            return 0
        tally.ok(len(outcomes))
        rows.extend((o.spec, o.data_row()) for o in outcomes)
        return len(outcomes)

    untraced = _in_process_phase(ctx, False, request, len(specs))
    rss = _rss_mb()
    traced = (
        _in_process_phase(ctx, True, request, len(specs)) if ctx.trace else None
    )
    checked = _check_rows(
        tally, rows, lambda spec: oracle.reference_row(spec, platform, table)
    )
    return Outcome(
        request=f"one cell of a {len(specs)}-cell grid through run_many",
        tally=tally,
        setup_s=setup_times,
        setup_parts=parts,
        untraced=untraced,
        traced=traced,
        peak_rss_mb=rss,
        notes=[f"oracle: {len(rows)} rows against {checked} reference cells"],
    )


# -- table-sweep ----------------------------------------------------------

SWEEP_T_GRID = [70.0, 85.0, 95.0, 100.0]
SWEEP_F_GRID_MHZ = [100.0 * k for k in range(1, 11)]
#: Builds rotate over this many seed-derived grids, so one grid's cost
#: does not set the run's figure.
SWEEP_GRIDS = 4


def sweep_grid(seed: int, index: int) -> tuple[list[float], list[float]]:
    """The ROADMAP grid, jittered by the seed (-0.5..0 C, +-2 MHz).

    Small enough to keep the feasible region and so the work per cell
    nearly constant, large enough that every seed solves new cells.
    Temperatures only move down: the top row stays at or below the
    platform's 100 C cap, because starting rows above it make gen2 return
    a suboptimal cell at this version (100.09 C, 99 MHz: 0.408 W against
    the cold sweep's 0.314 W).
    """
    rng = np.random.default_rng([seed, 2, index])
    t_grid = [t + float(d) for t, d in zip(SWEEP_T_GRID, rng.uniform(-0.5, 0.0, 4))]
    f_grid = [
        (f + float(d)) * 1e6
        for f, d in zip(SWEEP_F_GRID_MHZ, rng.uniform(-2.0, 2.0, 10))
    ]
    return t_grid, f_grid


def table_sweep(ctx: Context) -> Outcome:
    import repro.core as core
    from repro.scenario.registry import PLATFORMS

    def setup():
        started = time.perf_counter()
        platform = PLATFORMS.get("niagara8").factory()
        grids = [sweep_grid(ctx.seed, k) for k in range(SWEEP_GRIDS)]
        return (platform, grids), {"platform_s": time.perf_counter() - started}

    (platform, grids), setup_times, parts = _repeat_setup(setup)
    tally = Tally()
    tables: list[tuple[int, Any]] = []

    def request(tracer, index):
        t_grid, f_grid = grids[index]
        try:
            optimizer = core.ProTempOptimizer(platform, step_subsample=5)
            table = core.build_frequency_table(
                optimizer, t_grid, f_grid, strategy="gen2"
            )
        except Exception as exc:
            tally.fail("raised", repr(exc))
            return 0
        tally.ok()
        tables.append((index, table))
        return len(t_grid) * len(f_grid)

    untraced = _in_process_phase(ctx, False, request, SWEEP_GRIDS)
    rss = _rss_mb()
    traced = (
        _in_process_phase(ctx, True, request, SWEEP_GRIDS) if ctx.trace else None
    )
    colds = {}
    for index in sorted({index for index, _ in tables}):
        t_grid, f_grid = grids[index]
        colds[index] = core.build_frequency_table(
            core.ProTempOptimizer(platform, step_subsample=5, accelerated=False),
            t_grid,
            f_grid,
            warm_start=False,
        )
    for index, table in tables:
        problems = oracle.compare_tables(table, colds[index])
        if problems:
            tally.reject(f"grid {index}: " + "; ".join(problems[:3]))
    return Outcome(
        request="one gen2 table build (fresh optimizer)",
        tally=tally,
        setup_s=setup_times,
        setup_parts=parts,
        untraced=untraced,
        traced=traced,
        peak_rss_mb=rss,
        notes=[
            f"grids: {SWEEP_GRIDS} of 4 temperatures x 10 targets; oracle: "
            f"{len(tables)} tables against {len(colds)} cold sweeps"
        ],
    )


# -- zoo-tournament -------------------------------------------------------


def zoo_config(seed: int) -> dict:
    """The grid of ``examples/tournament_config.json`` for one derived seed."""
    rng = np.random.default_rng([seed, 3])
    return {
        "base": {
            "platform": {"name": "core-row", "params": {"n_cores": 4}},
            "t_initial": 55.0,
            "window": 0.1,
            "max_time": 2.0,
        },
        "grid": {
            "policy": [
                "no-tc",
                {"name": "basic-dfs", "params": {"threshold": 90.0}},
                {
                    "name": "rao-integral",
                    "params": {"setpoint": 95.0, "gain": 0.05},
                },
                {"name": "bhat-state-space", "params": {"margin": 2.0}},
                {"name": "mpc", "params": {"step_subsample": 10}},
            ],
            "workload": [
                {"name": "poisson", "duration": 2.0, "params": {"offered_load": 0.4}},
                {"name": "poisson", "duration": 2.0, "params": {"offered_load": 1.1}},
                {"name": "bursty", "duration": 2.0, "params": {}},
            ],
            "seed": [int(rng.integers(0, 2**31))],
        },
    }


def zoo_tournament(ctx: Context) -> Outcome:
    from repro import ScenarioRunner
    from repro.analysis.tournament import run_tournament, tournament_table
    from repro.scenario.specs import scenario_grid_from_config

    class RecordingRunner(ScenarioRunner):
        """A runner that keeps the outcomes of its last grid."""

        outcomes: list

        def run_many(self, specs):
            self.outcomes = super().run_many(specs)
            return self.outcomes

    # Every round runs the same tournament, so every round costs the same.
    config = zoo_config(ctx.seed)

    def setup():
        started = time.perf_counter()
        grid = scenario_grid_from_config(config)
        platform = ScenarioRunner().platform(grid[0].platform)
        return (grid, platform), {"platform_s": time.perf_counter() - started}

    (grid, platform), setup_times, parts = _repeat_setup(setup)
    tally = Tally()
    sections: list[dict] = []
    rows: list[tuple[Any, dict]] = []

    def request(tracer, index):
        runner = RecordingRunner()
        try:
            report = run_tournament(config, runner=runner)
        except Exception as exc:
            for spec in grid:
                tally.fail("raised", f"{spec.label}: {exc!r}")
            return 0
        outcomes = runner.outcomes
        tally.ok(len(outcomes))
        sections.append(report["tournament"])
        rows.extend((o.spec, o.data_row()) for o in outcomes)
        return len(outcomes)

    untraced = _in_process_phase(ctx, False, request)
    rss = _rss_mb()
    traced = _in_process_phase(ctx, True, request) if ctx.trace else None

    references: dict[str, dict] = {}

    def reference(spec):
        references[spec.spec_hash] = oracle.reference_row(spec, platform, None)
        return references[spec.spec_hash]

    checked = _check_rows(tally, rows, reference)
    # The ranking from reference rows (labels taken from the run's rows).
    labelled = {spec.spec_hash: row for spec, row in rows}
    expected = tournament_table(
        (
            spec.to_dict(),
            {**labelled[spec.spec_hash], **references[spec.spec_hash]},
        )
        for spec in grid
    )
    for section in sections:
        for key in ("ranking", "win_matrix", "n_matches", "n_cells"):
            if section[key] != expected[key]:
                tally.reject(f"tournament {key} differs from the reference")
                break
    return Outcome(
        request=f"one {len(grid)}-cell tournament",
        tally=tally,
        setup_s=setup_times,
        setup_parts=parts,
        untraced=untraced,
        traced=traced,
        peak_rss_mb=rss,
        notes=[
            f"oracle: {len(rows)} rows against {checked} reference cells; "
            f"{len(sections)} rankings against the reference ranking "
            + " > ".join(expected["ranking"])
        ],
    )


# -- service-mix ----------------------------------------------------------

SERVICE_POLICIES = [
    "no-tc",
    {"name": "basic-dfs", "params": {"threshold": 90.0}},
    {"name": "rao-integral", "params": {"setpoint": 95.0, "gain": 0.05}},
    {"name": "bhat-state-space", "params": {"margin": 2.0}},
]
SERVICE_BASE = {
    "platform": {"name": "core-row", "params": {"n_cores": 3}},
    "t_initial": 55.0,
    "window": 0.1,
    "max_time": 0.5,
    "workload": {"name": "poisson", "duration": 0.5, "params": {"offered_load": 1.1}},
}
WARM_SEEDS = 6
WARM_PER_JOB = 3
SERVER_WORKERS = 2
QUEUE_CAPACITY = 64
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

#: The server runs on one CPU and the client on another (the same one on
#: a single-CPU host).  Left to the scheduler, the server's threads and
#: the client hop between CPUs and every hand-off waits on a wake-up,
#: which on a shared host swings a job's latency far more than its work.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPUS = _CPUS[-1:]
CLIENT_CPUS = _CPUS[:1]


def _seed_base(seed: int) -> int:
    return int(np.random.default_rng([seed, 4]).integers(0, 2**30))


def prefill_config(seed: int) -> dict:
    """Every warm cell: each service policy x the warm seeds."""
    base = _seed_base(seed)
    return {
        "base": SERVICE_BASE,
        "grid": {
            "policy": SERVICE_POLICIES,
            "seed": [base + k for k in range(WARM_SEEDS)],
        },
    }


def job_config(seed: int, job: int) -> dict:
    """Job number `job`: every policy x (three warm seeds, one cold).

    The cold seed is unique to the job and lies outside the warm range.
    Every job runs the same policies in the same warm:cold mix, so jobs
    cost alike and their times can be pooled.
    """
    base = _seed_base(seed)
    warm = [base + (job * WARM_PER_JOB + k) % WARM_SEEDS for k in range(WARM_PER_JOB)]
    return {
        "base": SERVICE_BASE,
        "grid": {
            "policy": SERVICE_POLICIES,
            "seed": warm + [base + WARM_SEEDS + job],
        },
    }


class Server:
    """``protemp serve`` in its own process, started by the launcher."""

    def __init__(self, ctx: Context, name: str, traced: bool) -> None:
        self.dir = ctx.work / name
        self.dir.mkdir(parents=True)
        self.trace_path = self.dir / "spans.json" if traced else None
        self.log_path = self.dir / "server.log"
        launcher = Path(__file__).resolve().parent / "serve_launcher.py"
        command = [sys.executable, str(launcher)]
        command += ["--cpus", ",".join(map(str, SERVER_CPUS))]
        if self.trace_path is not None:
            command += ["--trace-out", str(self.trace_path)]
        command += [
            "serve",
            "--port", "0",
            "--workers", str(SERVER_WORKERS),
            "--outcome-store", str(self.dir / "outcomes.sqlite"),
            "--state", str(self.dir / "journal.sqlite"),
            "--queue-capacity", str(QUEUE_CAPACITY),
        ]
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            command,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            cwd=ctx.root,
        )
        self.url = ""

    def wait_healthy(self) -> None:
        from repro.serving.client import wait_for_server

        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while not self.url:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited: {self.log_path.read_text()}")
            if time.monotonic() > deadline:
                raise RuntimeError("server did not report its port")
            for line in self.log_path.read_text().splitlines():
                if "listening on " in line:
                    self.url = line.split("listening on ")[1].split()[0]
            time.sleep(0.005)
        wait_for_server(self.url, timeout=BOOT_TIMEOUT_S, interval=0.005)

    def peak_rss_mb(self) -> float:
        """The server's peak resident memory (``VmHWM``), in MB."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> list[Span]:
        """Drain and stop the server; return its spans when traced."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        finally:
            self._log.close()
        if self.trace_path is None or not self.trace_path.exists():
            return []
        return [Span.from_dict(d) for d in json.loads(self.trace_path.read_text())]


@dataclass
class JobResult:
    config: dict
    started: float
    latency: float
    submit_s: float
    rows: dict[int, tuple[bool, dict]]
    status: dict | None = None


def _run_job(client: Any, config: dict, tracer: Tracer | None) -> JobResult:
    """Submit one job and follow its event stream to ``done``."""
    started = time.perf_counter()
    if tracer is not None:
        with tracer.span("serving.submit"):
            accepted = client.submit(config)
    else:
        accepted = client.submit(config)
    submitted = time.perf_counter()
    rows: dict[int, tuple[bool, dict]] = {}
    done: dict | None = None
    for event in client.stream(accepted["job_id"]):
        if event.get("event") == "outcome":
            rows[event["index"]] = (event["outcome_cache_hit"], event["row"])
        elif event.get("event") == "done":
            done = event
    ended = time.perf_counter()
    if done is None or done.get("state") != "done":
        raise RuntimeError(f"job {accepted['job_id']} ended as {done}")
    result = JobResult(config, started, ended - started, submitted - started, rows)
    if tracer is not None:
        result.status = client.status(accepted["job_id"])
    return result


def service_mix(ctx: Context) -> Outcome:
    from repro.serving.client import ServiceClient

    os.sched_setaffinity(0, CLIENT_CPUS)
    servers: list[Server] = []

    def boot(traced: bool) -> tuple[Server, dict[str, float]]:
        started = time.perf_counter()
        server = Server(ctx, f"server-{len(servers)}", traced)
        servers.append(server)
        server.wait_healthy()
        booted = time.perf_counter()
        client = ServiceClient(server.url)
        client.wait(client.submit(prefill_config(ctx.seed))["job_id"])
        return server, {
            "server_boot_s": booted - started,
            "prefill_s": time.perf_counter() - booted,
        }

    tally = Tally()
    jobs: list[JobResult] = []
    rejected = 0

    def phase(
        server: Server, tracer: Tracer | None
    ) -> tuple[Phase, list[JobResult]]:
        """One closed-loop client: submit a job, wait for it, repeat."""
        nonlocal rejected
        mine: list[JobResult] = []
        client = ServiceClient(server.url)
        started = time.perf_counter()
        index = 0
        while time.perf_counter() - started < ctx.seconds:
            config = job_config(ctx.seed, index)
            index += 1
            try:
                result = _run_job(client, config, tracer)
            except Exception as exc:
                kind = failure_kind(exc)
                rejected += kind == "refused"
                tally.fail(kind, repr(exc))
                # Honour the service's backoff hint on a 429.
                time.sleep(min(getattr(exc, "retry_after_s", None) or 0.0, 1.0))
                continue
            tally.ok()
            mine.append(result)
        wall = time.perf_counter() - started
        jobs.extend(mine)
        cells = sum(len(j.rows) for j in mine)
        return Phase(
            wall_s=wall,
            cells=cells,
            latencies=[j.latency for j in mine],
            # Every job runs the same policies in the same warm:cold mix.
            rounds=[(0, len(j.rows), j.latency) for j in mine],
            extra={"started": started, "ended": started + wall},
        ), mine

    notes: list[str] = []
    traced = None
    try:
        server, setup_times, parts = _repeat_setup(
            lambda: boot(False), discard=Server.stop
        )
        untraced, _ = phase(server, None)
        rss = server.peak_rss_mb()
        server.stop()
        if ctx.trace:
            server, _ = boot(True)
            tracer = Tracer()
            rejected_before = rejected
            traced, traced_jobs = phase(server, tracer)
            counters = ServiceClient(server.url).metrics()["counters"]
            server_spans = server.stop()
            traced = _service_trace(
                traced,
                traced_jobs,
                tracer.spans,
                server_spans,
                counters,
                rejected - rejected_before,
                notes,
            )
    finally:
        for server in servers:
            server.stop()
    notes.insert(0, _check_service_jobs(tally, jobs))
    return Outcome(
        request="one job, POST /jobs to its done event",
        tally=tally,
        setup_s=setup_times,
        setup_parts=parts,
        untraced=untraced,
        traced=traced,
        peak_rss_mb=rss,
        notes=notes,
    )


def _service_trace(
    phase: Phase,
    jobs: list[JobResult],
    client_spans: list[Span],
    server_spans: list[Span],
    counters: dict[str, float],
    rejected: int,
    notes: list[str],
) -> Phase:
    """Merge client and server spans; attribute each job; reconcile counts."""
    start, end = phase.extra["started"], phase.extra["ended"]
    offset = len(client_spans)
    shifted = [
        Span(
            id=s.id + offset,
            name=s.name,
            start=s.start,
            end=s.end,
            parent=None if s.parent is None else s.parent + offset,
            attrs=s.attrs,
        )
        for s in server_spans
    ]
    window = [s for s in shifted if start <= s.start <= end]
    # The client runs one job at a time, so every top-level span inside a
    # job's window (its POST; on the server its replay-pass store reads,
    # cold-cell runs and journal writes) is that job's.  Cold cells run
    # side by side on the workers: count the time any span runs, not the
    # sum of their durations.
    top = [s for s in client_spans if s.name == "serving.submit"]
    top += [s for s in window if s.parent is None]
    coverage = []
    queued = replay = 0.0
    for job in jobs:
        timings = (job.status or {}).get("timings", {})
        queued += timings.get("queued_s", 0.0)
        replay += timings.get("replay_pass_s", 0.0)
        lo, hi = job.started, job.started + job.latency
        covered = union_length(
            [
                (max(s.start, lo), min(s.end, hi))
                for s in top
                if s.end > lo and s.start < hi
            ]
        )
        coverage.append((job.latency, covered))
    journal = [s for s in window if s.name == "serving.journal"]
    phase.spans = list(client_spans) + window
    phase.coverage = coverage
    phase.extra.update(
        {
            "serving.queued_s": queued,
            "serving.replay_pass_s": replay,
            "serving.journal_writes": len(journal),
            "serving.rejected": rejected,
        }
    )
    # Reconcile the wrappers with the server's own counters (lifetime).
    gets = [s for s in shifted if s.name == "scenario.store_get"]
    in_put = inside(shifted, "scenario.store_put")
    expected = {
        "scenarios_executed_total": sum(
            1 for s in shifted if s.name == "scenario.execute"
        ),
        "store_gets_total": len(gets),
        "store_puts_total": sum(1 for s in shifted if s.name == "scenario.store_put"),
        "outcomes_replayed_total": sum(
            1 for s in gets if s.attrs.get("hit") and s.id not in in_put
        ),
        "submits_rejected_total": rejected,
    }
    mismatches = 0
    for name, traced_count in expected.items():
        served = int(counters.get(name, 0))
        if served != traced_count:
            mismatches += 1
            notes.append(f"reconcile: {name} server {served} != traced {traced_count}")
    phase.extra["serving.reconcile_mismatches"] = mismatches
    if not mismatches:
        notes.append(
            "reconcile: spans match /metrics for "
            + ", ".join(f"{k}={v}" for k, v in expected.items())
        )
    return phase


#: Cold rows checked against the reference per run (first jobs of each
#: client); every warm row is checked.
COLD_ROWS_CHECKED = 16


def _check_service_jobs(tally: Tally, jobs: list[JobResult]) -> str:
    """Check every job's shape, warm rows and a sample of cold rows."""
    from repro.scenario.registry import PLATFORMS
    from repro.scenario.specs import scenario_grid_from_config

    platform = PLATFORMS.get("core-row").factory(n_cores=3)
    references: dict[str, dict] = {}
    cold_checked = 0
    for job in jobs:
        specs = scenario_grid_from_config(job.config)
        warm_seeds = set(job.config["grid"]["seed"][:WARM_PER_JOB])
        problems = []
        if sorted(job.rows) != list(range(len(specs))):
            problems.append(f"{len(job.rows)} outcome events for {len(specs)} cells")
        for index, (hit, row) in sorted(job.rows.items()):
            spec = specs[index]
            warm = spec.seed in warm_seeds
            if hit != warm:
                problems.append(f"{spec.label}: cache hit {hit}, expected {warm}")
            if not warm and cold_checked >= COLD_ROWS_CHECKED:
                continue
            cold_checked += not warm
            if spec.spec_hash not in references:
                references[spec.spec_hash] = oracle.reference_row(spec, platform, None)
            problems += oracle.compare_rows(row, references[spec.spec_hash])
        if problems:
            tally.reject("; ".join(problems[:3]))
    return (
        f"oracle: {len(jobs)} jobs; every warm row and {cold_checked} cold rows "
        f"against {len(references)} reference cells"
    )


WORKLOADS: dict[str, Callable[[Context], Outcome]] = {
    "paper-grid": paper_grid,
    "table-sweep": table_sweep,
    "zoo-tournament": zoo_tournament,
    "service-mix": service_mix,
}


def work_dir(root: Path, name: str) -> Path:
    """A fresh scratch directory for one run, inside the checkout."""
    path = root / ".perfbench" / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
