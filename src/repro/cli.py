"""Command-line interface: ``protemp <command>`` / ``python -m repro``.

Each command is its own subparser and takes only the positionals and
flags its handler reads; ``protemp <command> --help`` lists them.

* ``protemp <figN>`` / ``calibration`` / ``table`` — run one of the
  paper's experiments end-to-end and print the figure's data as text.
  Trace-driven figures accept ``--duration`` to trade fidelity for speed.
* ``protemp run <config.json>`` — expand a declarative scenario config
  (see `repro.scenario.specs.scenario_grid_from_config`) and execute the
  grid on a :class:`~repro.scenario.ScenarioRunner`, optionally over a
  process pool (``--workers``), restricted to one deterministic shard
  (``--shard i/n``), and/or backed by a persistent scenario-outcome cache
  (``--outcome-store DIR``; see `repro.scenario.store`).
* ``protemp tournament <config.json>`` — the same grid run, reduced to a
  ranked head-to-head of its policies.
* ``protemp merge <store>...`` — union the outcome sets of several
  stores (shards of one grid, or several runs; directories and sqlite
  files mix freely), detect spec-hash collisions and conflicting
  duplicates, print the combined summary table, and optionally write
  the merged store (``--output STORE``).
* ``protemp migrate <src> <dst>`` — copy one outcome store onto another
  backend (directory → sqlite and back) with the merge conflict
  semantics against whatever the destination already holds.
* ``protemp serve`` — run the long-lived scenario service: one warm
  :class:`~repro.scenario.ScenarioRunner` shared across HTTP requests
  (or stdin/NDJSON lines with ``--stdin``), outcomes streamed as
  JSON-lines events, graceful drain on SIGTERM, durable job state with
  ``--state`` (see `repro.serving`).
* ``protemp submit <config.json>`` — send a config to a running service
  and stream its outcome events back (``--url``, ``--json``,
  ``--priority`` to schedule ahead of the default-priority backlog).
* ``protemp report [STORE...]`` — summarize a run: per-policy outcome
  totals from outcome stores, per-job state/priority tables from a
  ``--state`` job journal, and per-phase wall-time/cache-hit/solve-count
  tables from a saved ``--metrics`` snapshot (``/metrics`` JSON);
  ``--json`` emits the versioned report object.
* ``protemp list`` — show the registered platforms, workloads, policies,
  assignments, sensors and experiments (``--json`` for tooling).
* ``protemp check [paths]`` — run the project-invariant static-analysis
  pass (`repro.devtools.check`) over the given files/directories
  (default ``src``): determinism, lock discipline, cache-key
  completeness, float hygiene, registry/spec discipline.  ``--rule``
  filters to specific rules, ``--json`` emits the versioned report (see
  docs/DEVTOOLS.md).

``protemp --version`` reports the installed package version (package
metadata when installed, the source tree's ``repro.__version__``
otherwise).

Usage errors — an unknown command or flag, a missing or extra
positional, a bad value — print one message per problem to stderr and
make :func:`main` return 2.  A flag the command does not take is named
together with the commands that take it, or the command's closest flag.

See docs/SCALING.md for the sharded-grid walkthrough and docs/SERVING.md
for the service endpoints and event schema.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import sys
import time
from functools import partial
from pathlib import Path
from typing import Any, Callable, NamedTuple, NoReturn

from repro.analysis import (
    ascii_plot,
    make_platform,
    run_assignment_effect,
    run_band_comparison,
    run_feasibility_sweep,
    run_gradient_timeseries,
    run_per_core_frequency,
    run_snapshot,
    run_waiting_comparison,
)
from repro.analysis.experiments import NIAGARA_SPEC, PROTEMP_SPEC
from repro.errors import OutcomeStoreError, ScenarioError, did_you_mean
from repro.scenario import (
    ASSIGNMENTS,
    PLATFORMS,
    POLICIES,
    SENSORS,
    WORKLOADS,
    ScenarioRunner,
    merge_stores,
    open_existing_store,
    open_outcome_store,
)
from repro.thermal.calibration import calibration_report, format_report

EXPERIMENTS = (
    "fig1",
    "fig2",
    "fig6a",
    "fig6b",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "calibration",
    "table",
)

#: Scenario-API and tooling commands, after the experiments in ``--help``.
COMMANDS = (
    "run",
    "tournament",
    "merge",
    "migrate",
    "list",
    "serve",
    "submit",
    "check",
    "report",
)

#: Distribution name in package metadata (pyproject.toml).
DISTRIBUTION = "protemp-repro"


def package_version() -> str:
    """The package version: installed metadata, else the source tree's.

    ``protemp --version`` must work both for an installed wheel (read the
    distribution metadata) and for a source checkout on ``PYTHONPATH``
    (fall back to ``repro.__version__``).
    """
    try:
        return importlib.metadata.version(DISTRIBUTION)
    except importlib.metadata.PackageNotFoundError:
        from repro import __version__

        return __version__

#: Registries shown by ``protemp list``, in display order.
_REGISTRIES = (
    ("platforms", PLATFORMS),
    ("workloads", WORKLOADS),
    ("policies", POLICIES),
    ("assignments", ASSIGNMENTS),
    ("sensors", SENSORS),
)


def _positive_int(text: str) -> int:
    """Argparse type of ``--workers`` and ``--queue-capacity``."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return value


def _table_cache_dir(text: str) -> str:
    """Argparse type of ``--table-cache-dir``: a directory, never a file."""
    if Path(text).is_file():
        raise argparse.ArgumentTypeError(
            f"{text} is a file; give a directory of table caches"
        )
    return text


#: Every flag's argparse declaration; each command's entry in
#: :data:`_COMMANDS` names the flags it takes.
_FLAGS: dict[str, dict[str, Any]] = {
    "--duration": dict(type=float, metavar="S", help=(
        "simulated seconds for trace-driven experiments")),
    "--seed": dict(type=int, default=7, help="workload random seed"),
    "--workers": dict(type=_positive_int, metavar="N", help=(
        "worker count: the process pool of 'run' and 'tournament' "
        "(default: serial), the service's worker threads (default 2)")),
    "--table-cache-dir": dict(type=_table_cache_dir, metavar="DIR", help=(
        "directory of persistent Phase-1 table caches")),
    "--shard": dict(metavar="I/N", help=(
        "run only shard I of N (0-based) of the expanded grid; the slicing "
        "hashes specs, so N hosts running I=0..N-1 cover the grid once")),
    "--outcome-store": dict(metavar="STORE", help=(
        "persistent scenario-outcome store: stored cells are replayed, "
        "fresh cells written back; a directory, a *.sqlite/*.db file, or "
        "a sqlite:/dir: URL")),
    "--output": dict(metavar="STORE", help=(
        "write the merged outcome store here")),
    "--json": dict(action="store_true", help="machine-readable output"),
    "--host": dict(help="bind address (default 127.0.0.1)"),
    "--port": dict(type=int, help="TCP port (default 8765; 0 picks one)"),
    "--stdin": dict(action="store_true", help=(
        "read one config JSON per stdin line and write NDJSON events to "
        "stdout instead of serving HTTP")),
    "--url": dict(metavar="URL", help=(
        "base URL of the running service (default http://127.0.0.1:8765)")),
    "--rule": dict(action="append", metavar="ID", help=(
        "run just this rule (repeatable, e.g. --rule PT001 --rule PT004; "
        "default: all rules)")),
    "--state": dict(metavar="FILE", help=(
        "SQLite job journal: 'serve' writes it, so a restarted service "
        "re-enqueues interrupted jobs and idempotency keys survive "
        "restarts; 'report' summarizes it")),
    "--idempotency-key": dict(metavar="KEY", help=(
        "retry token: resubmitting the same config under the same key "
        "streams the existing job instead of running it twice")),
    "--priority": dict(type=int, metavar="N", help=(
        "scheduling priority (higher runs first; default 0)")),
    "--queue-capacity": dict(type=_positive_int, metavar="N", help=(
        "admission-control limit: reject submissions with 429 once this "
        "many scenario cells are accepted but not yet finished (default: "
        "unbounded)")),
    "--metrics": dict(metavar="FILE", help=(
        "a saved /metrics JSON snapshot to summarize into per-phase "
        "timing tables")),
    "--tournament": dict(action="store_true", help=(
        "also rank the given outcome stores head to head (the reducer of "
        "'protemp tournament')")),
}

#: Near-synonyms that difflib does not pair (ratio 0.52, under
#: `did_you_mean`'s 0.6 cutoff): 'merge' writes its union to --output,
#: the grid commands read and write --outcome-store.
_SYNONYMS = {"--outcome-store": "--output", "--output": "--outcome-store"}


class _UsageError(SystemExit):
    """A usage error, already reported on stderr.

    A ``SystemExit(2)`` like argparse's own, so :func:`build_parser`
    behaves as any parser does; :func:`main` catches it and returns 2.
    """


class _HintingArgumentParser(argparse.ArgumentParser):
    """Argparse whose usage errors name the command and carry a hint.

    An unknown command gets the did-you-mean hint every other unknown-name
    error in the package gives (:func:`repro.errors.did_you_mean`):
    ``protemp: unknown command 'serv'; did you mean 'serve'?``.  A flag
    the command does not take is reported by the command's own parser,
    with the hint :func:`_flag_hint` picks.
    """

    #: The top-level parser's subparsers, by command name.
    commands: dict[str, argparse.ArgumentParser]

    def parse_args(self, args=None, namespace=None):  # type: ignore[override]
        parsed, extras = self.parse_known_args(args, namespace)
        if extras:
            self.commands[parsed.command].error(
                _unrecognized(parsed.command, extras)
            )
        return parsed

    def error(self, message: str) -> NoReturn:
        if "invalid choice" in message:  # only the command has choices
            start = message.find("'") + 1
            bad = message[start:message.find("'", start)]
            message = f"unknown command {bad!r}" + (
                did_you_mean(bad, EXPERIMENTS + COMMANDS)
                or "; see 'protemp list' for experiments and commands"
            )
        self.print_usage(sys.stderr)
        for line in message.splitlines():
            sys.stderr.write(f"{self.prog}: {line}\n")
        raise _UsageError(2)


def _flag_hint(command: str, flag: str) -> str:
    """Hint for a flag `command` does not take.

    The command's near-synonym of the flag if it has one, else the
    commands that take the flag, else the command's closest flag.
    Another command's real flag says where it belongs first: difflib
    would pair ``run --seed`` with ``--shard`` and ``submit --port`` with
    ``--priority``.
    """
    own = _COMMANDS[command].flags
    synonym = _SYNONYMS.get(flag)
    if synonym in own:
        return f"; did you mean {synonym!r}?"
    owners = [name for name, entry in _COMMANDS.items() if flag in entry.flags]
    if owners:
        return "; it belongs to " + ", ".join(repr(name) for name in owners)
    return did_you_mean(flag, own)


def _unrecognized(command: str, extras: list[str]) -> str:
    """The usage error for arguments `command` does not take: one line per
    unknown flag, else argparse's own wording for stray positionals."""
    flags = [arg.split("=", 1)[0] for arg in extras if arg.startswith("-")]
    if not flags:
        return f"unrecognized arguments: {' '.join(extras)}"
    return "\n".join(
        f"{flag} is not valid for {command!r}{_flag_hint(command, flag)}"
        for flag in flags
    )


def list_payload() -> dict:
    """The ``protemp list --json`` payload (shared with ``/registry``)."""
    payload: dict = {
        kind: {
            name: entry.description for name, entry in registry.items()
        }
        for kind, registry in _REGISTRIES
    }
    payload["experiments"] = list(EXPERIMENTS)
    return payload


def _list_command(args: argparse.Namespace) -> int:
    """``protemp list``: registered components and experiments."""
    if args.json:
        print(json.dumps(list_payload(), indent=1, sort_keys=True))
        return 0
    for kind, registry in _REGISTRIES:
        print(f"{kind}:")
        for name, entry in registry.items():
            suffix = " [needs table]" if entry.needs_table else ""
            print(f"  {name:<22s} {entry.description}{suffix}")
        print()
    print("experiments:")
    print("  " + " ".join(EXPERIMENTS))
    return 0


def _parse_shard(text: str) -> tuple[int, int]:
    """Parse ``--shard I/N`` into ``(shard_index, shard_count)``.

    Raises:
        ScenarioError: when the text is not ``I/N`` with integers (range
            checks happen in `repro.scenario.specs.shard_specs`).
    """
    index_text, sep, count_text = text.partition("/")
    try:
        if not sep:
            raise ValueError("missing '/'")
        return int(index_text), int(count_text)
    except ValueError as exc:
        raise ScenarioError(
            f"--shard must look like I/N (e.g. 0/4), got {text!r}: {exc}"
        ) from exc


def _print_summary_table(rows: list[dict]) -> None:
    """Human-readable outcome table shared by ``run`` and ``merge``.

    ``merge`` rows are deterministic summaries without per-run provenance
    (wall time, cache flags); those columns render as ``-``.
    """
    header = (
        f"{'scenario':<36s} {'policy':<10s} {'peak C':>7s} {'>tmax%':>7s} "
        f"{'wait ms':>8s} {'done':>11s} {'wall s':>7s} {'table':>6s}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        done = f"{row['completed_tasks']}/{row['arrived_tasks']}"
        if row.get("outcome_cache_hit"):
            table_note = "store"
        else:
            table_note = {True: "cache", False: "built", None: "-"}[
                row.get("table_cache_hit")
            ]
        wall = (
            f"{row['wall_time_s']:7.2f}" if "wall_time_s" in row else f"{'-':>7s}"
        )
        print(
            f"{row['scenario']:<36s} {row['policy']:<10s} "
            f"{row['peak_c']:7.1f} {row['violation_fraction'] * 100:6.2f}% "
            f"{row['mean_wait_s'] * 1e3:8.1f} {done:>11s} "
            f"{wall} {table_note:>6s}"
        )


def _run_command(args: argparse.Namespace) -> int:
    """``protemp run <config.json>``: execute a scenario grid."""
    started = time.time()
    runner = ScenarioRunner(
        n_workers=args.workers,
        table_cache_dir=args.table_cache_dir,
        outcome_store=args.outcome_store,
    )
    try:
        shard_index = shard_count = None
        if args.shard is not None:
            shard_index, shard_count = _parse_shard(args.shard)
        outcomes = runner.run_config(
            args.config, shard_index=shard_index, shard_count=shard_count
        )
    except (ScenarioError, OutcomeStoreError) as exc:
        print(f"protemp run: {exc}", file=sys.stderr)
        return 2
    rows = [outcome.summary_row() for outcome in outcomes]
    if args.json:
        print(json.dumps(rows, indent=1))
    else:
        _print_summary_table(rows)
        print(
            f"[{len(rows)} scenarios ({runner.scenarios_executed} executed, "
            f"{runner.outcomes_replayed} from store), "
            f"{runner.tables_built} tables built]",
            file=sys.stderr,
        )
    print(f"[run finished in {time.time() - started:.1f}s]", file=sys.stderr)
    return 0


def _tournament_command(args: argparse.Namespace) -> int:
    """``protemp tournament <config.json>``: ranked head-to-head run.

    Expands the config's grid (which must carry a ``policy`` axis with at
    least two entries), runs it through the scenario runner — with
    ``--outcome-store`` a warm re-run replays every cell and re-ranks
    with zero solves — and reduces the outcomes to standings, a pairwise
    win matrix, and a ranking.  ``--json`` emits the versioned report:
    its ``tournament`` section is a pure function of the outcomes (the CI
    smoke job byte-compares it across cold/warm runs), while ``run``
    carries this invocation's cache provenance.
    """
    from repro.analysis.tournament import (
        render_tournament,
        run_tournament,
        tournament_json,
    )

    started = time.time()
    runner = ScenarioRunner(
        n_workers=args.workers,
        table_cache_dir=args.table_cache_dir,
        outcome_store=args.outcome_store,
    )
    try:
        shard_index = shard_count = None
        if args.shard is not None:
            shard_index, shard_count = _parse_shard(args.shard)
        report = run_tournament(
            args.config,
            runner=runner,
            shard_index=shard_index,
            shard_count=shard_count,
        )
    except (ScenarioError, OutcomeStoreError) as exc:
        print(f"protemp tournament: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(tournament_json(report))
    else:
        print(render_tournament(report["tournament"]), end="")
    run_info = report["run"]
    print(
        f"[{run_info['scenarios']} cells "
        f"({run_info['scenarios_executed']} executed, "
        f"{run_info['outcomes_replayed']} from store), "
        f"{run_info['tables_built']} tables built]",
        file=sys.stderr,
    )
    print(f"[tournament finished in {time.time() - started:.1f}s]",
          file=sys.stderr)
    return 0


def _merge_command(args: argparse.Namespace) -> int:
    """``protemp merge <store>...``: union shard outcome sets.

    Stores are named like ``--outcome-store``: a directory, a
    ``*.sqlite``/``*.db`` file, or a ``sqlite:``/``dir:`` URL — shards
    on different backends merge freely.
    """
    try:
        merged = merge_stores(open_existing_store(p) for p in args.stores)
        if args.output is not None:
            target = open_outcome_store(args.output)
            for record in merged.records:
                target.put(record)
    except OutcomeStoreError as exc:
        print(f"protemp merge: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(merged.summary_rows(), indent=1))
    else:
        _print_summary_table(merged.summary_rows())
    print(
        f"[{len(merged.records)} outcomes from {len(args.stores)} stores "
        f"({merged.duplicates} duplicates dropped)"
        + (f" -> {args.output}" if args.output is not None else "")
        + "]",
        file=sys.stderr,
    )
    return 0


def _migrate_command(args: argparse.Namespace) -> int:
    """``protemp migrate <src> <dst>``: copy a store onto another backend.

    Any backend to any other (directory → sqlite and back); ``put``
    applies the merge conflict semantics against whatever the
    destination already holds, so migrating into a non-empty store is a
    union (benign duplicates skip, conflicting records abort).
    """
    src_name, dst_name = args.src, args.dst
    copied = skipped = 0
    try:
        source = open_existing_store(src_name)
        destination = open_outcome_store(dst_name)
        for record in source.records():
            if destination.get(record.spec_hash) is None:
                destination.put(record)
                copied += 1
            else:
                destination.put(record)  # conflict check vs existing
                skipped += 1
        total = len(destination)
    except OutcomeStoreError as exc:
        print(f"protemp migrate: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(
            {
                "source": src_name,
                "destination": dst_name,
                "copied": copied,
                "skipped": skipped,
                "destination_records": total,
            },
            indent=1,
            allow_nan=False,
        ))
    else:
        print(
            f"[{copied} records copied {src_name} -> {dst_name} "
            f"({skipped} already present; destination holds {total})]",
            file=sys.stderr,
        )
    return 0


def _serve_command(args: argparse.Namespace) -> int:
    """``protemp serve``: the long-lived scenario service."""
    from repro.serving import (
        DEFAULT_HOST,
        DEFAULT_MAX_WORKERS,
        DEFAULT_PORT,
        ScenarioService,
        serve,
        serve_stdin,
    )

    if args.stdin and (args.host is not None or args.port is not None):
        print("protemp serve: --stdin does not take --host/--port",
              file=sys.stderr)
        return 2
    service = ScenarioService(
        max_workers=args.workers or DEFAULT_MAX_WORKERS,
        table_cache_dir=args.table_cache_dir,
        outcome_store=args.outcome_store,
        state=args.state,
        queue_capacity=args.queue_capacity,
    )
    if args.stdin:
        return serve_stdin(service)
    return serve(
        service,
        host=args.host if args.host is not None else DEFAULT_HOST,
        port=args.port if args.port is not None else DEFAULT_PORT,
    )


def _submit_command(args: argparse.Namespace) -> int:
    """``protemp submit <config.json>``: stream a config through a service."""
    from repro.serving import DEFAULT_HOST, DEFAULT_PORT, ServiceClient
    from repro.errors import ServiceError

    path = Path(args.config)
    if not path.exists():
        print(f"protemp submit: no such scenario config: {args.config}",
              file=sys.stderr)
        return 2
    try:
        config = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        print(f"protemp submit: config is not valid JSON: {exc}",
              file=sys.stderr)
        return 2
    url = (
        args.url
        if args.url is not None
        else f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"
    )
    client = ServiceClient(url)
    rows: list[dict] = []
    done: dict | None = None
    try:
        for event in client.submit_and_stream(
            config,
            idempotency_key=args.idempotency_key,
            priority=args.priority,
        ):
            if args.json:
                print(json.dumps(event))
                sys.stdout.flush()
            kind = event.get("event")
            if kind == "job":
                print(f"[{event['job_id']}: {event['n_scenarios']} "
                      "scenarios]", file=sys.stderr)
            elif kind == "outcome":
                rows.append(event["row"])
            elif kind == "scenario_error" and not args.json:
                error = event["error"]
                print(
                    f"protemp submit: scenario {event['scenario']!r} "
                    f"failed: {error['type']}: {error['message']}",
                    file=sys.stderr,
                )
            if kind == "done":
                done = event
    except ServiceError as exc:
        retry = getattr(exc, "retry_after_s", None)
        suffix = f" (retry after {retry}s)" if retry is not None else ""
        print(f"protemp submit: {exc}{suffix}", file=sys.stderr)
        return 2
    if not args.json:
        _print_summary_table(rows)
    if done is None:
        print("protemp submit: event stream ended without a done event",
              file=sys.stderr)
        return 1
    print(
        f"[{done['n_scenarios']} scenarios "
        f"({done['scenarios_executed']} executed, "
        f"{done['outcomes_replayed']} from store, "
        f"{done['failed']} failed) in {done['wall_time_s']:.1f}s]",
        file=sys.stderr,
    )
    return 0 if done["failed"] == 0 and not done.get("error") else 1


def _check_command(args: argparse.Namespace) -> int:
    """``protemp check [paths]``: the project-invariant static analysis.

    Exit codes follow the usual linter convention: 0 clean (waived-only
    counts as clean), 1 active findings, 2 usage errors (unknown rule
    ids, missing paths).
    """
    # Lazy: devtools is pure stdlib but irrelevant to every other command.
    from repro.devtools.check import render_json, render_text, run_check
    from repro.errors import DevtoolsError

    paths = args.paths
    if not paths:
        if not Path("src").is_dir():
            print(
                "protemp check: no paths given and no ./src directory to "
                "default to",
                file=sys.stderr,
            )
            return 2
        paths = ["src"]
    try:
        report = run_check(paths, rules=args.rule)
    except DevtoolsError as exc:
        print(f"protemp check: {exc}", file=sys.stderr)
        return 2
    print(render_json(report) if args.json else render_text(report))
    return report.exit_code


def _report_command(args: argparse.Namespace) -> int:
    """``protemp report [STORE...]``: summarize a run's artifacts.

    Any combination of inputs works — outcome stores (positional),
    a job journal (``--state``), and a saved ``/metrics`` JSON snapshot
    (``--metrics``); at least one must be given.  Exit 0 with the
    rendered tables, 2 on usage errors or unreadable inputs.
    """
    # Lazy like _serve_command: report pulls in the serving layer only
    # when a --state journal is named.
    from repro.observability.report import build_report, render_report
    from repro.errors import ServiceError

    if not args.stores and args.state is None and args.metrics is None:
        print(
            "protemp report: nothing to report — give outcome stores, "
            "--state JOURNAL, and/or --metrics SNAPSHOT",
            file=sys.stderr,
        )
        return 2
    try:
        report = build_report(
            stores=args.stores or None,
            state=args.state,
            metrics=args.metrics,
            tournament=args.tournament,
        )
    except (OutcomeStoreError, ScenarioError, ServiceError, OSError) as exc:
        print(f"protemp report: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(
            f"protemp report: metrics snapshot is not valid JSON: {exc}",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True, allow_nan=False))
    else:
        print(render_report(report), end="")
    return 0


def _snapshot_plot(result) -> str:
    return ascii_plot(
        result.times,
        {"P1": result.temperature},
        hline=result.t_max,
        y_label="Temperature (C)",
        x_label="time (s)",
    )


def _experiment_command(args: argparse.Namespace) -> int:
    """``protemp <figN> | calibration | table``: one paper experiment.

    Each branch reads only the flags its command takes (see
    :data:`_COMMANDS`).
    """
    started = time.time()
    name = args.command
    platform = make_platform()

    def table():
        runner = ScenarioRunner(table_cache_dir=args.table_cache_dir)
        runner.prime_platform(NIAGARA_SPEC, platform)
        return runner.table(NIAGARA_SPEC, PROTEMP_SPEC)[0]

    if name == "fig1":
        result = run_snapshot(
            "basic", duration=args.duration or 60.0, seed=args.seed,
            platform=platform,
        )
        print(result.text())
        print(_snapshot_plot(result))
    elif name == "fig2":
        result = run_snapshot(
            "protemp", duration=args.duration or 60.0, seed=args.seed,
            platform=platform, table=table(),
        )
        print(result.text())
        print(_snapshot_plot(result))
    elif name in ("fig6a", "fig6b"):
        kind = "mixed" if name == "fig6a" else "compute"
        result = run_band_comparison(
            kind, duration=args.duration or 40.0, seed=args.seed,
            platform=platform, table=table(),
        )
        print(result.text())
    elif name == "fig7":
        result = run_waiting_comparison(
            duration=args.duration or 40.0, seed=args.seed,
            platform=platform, table=table(),
        )
        print(result.text())
    elif name == "fig8":
        result = run_gradient_timeseries(
            duration=args.duration or 60.0, seed=args.seed,
            platform=platform, table=table(),
        )
        print(result.text())
        print(
            ascii_plot(
                result.times,
                {"P1": result.p1, "P2": result.p2},
                y_label="Temperature (C)",
                x_label="time (s)",
            )
        )
    elif name == "fig9":
        print(run_feasibility_sweep(platform=platform).text())
    elif name == "fig10":
        print(run_per_core_frequency(platform=platform).text())
    elif name == "fig11":
        result = run_assignment_effect(
            duration=args.duration or 40.0, seed=args.seed,
            platform=platform, table=table(),
        )
        print(result.text())
    elif name == "calibration":
        print(format_report(calibration_report(platform), platform.core_names))
    elif name == "table":
        print(table().format())
    print(f"[{name} finished in {time.time() - started:.1f}s]",
          file=sys.stderr)
    return 0


class _Command(NamedTuple):
    """One ``protemp`` command: its handler and what it accepts."""

    handler: Callable[[argparse.Namespace], int]
    help: str
    flags: tuple[str, ...] = ()
    positionals: tuple[tuple[str, dict[str, Any]], ...] = ()


_experiment = partial(_Command, _experiment_command)
_SIM = ("--duration", "--seed")
_FIGURE = _SIM + ("--table-cache-dir",)
_GRID = ("--workers", "--table-cache-dir", "--shard", "--outcome-store", "--json")
_CONFIG = (("config", dict(help="scenario config JSON file")),)

#: Every command, with exactly the positionals and flags its handler reads.
_COMMANDS: dict[str, _Command] = {
    "fig1": _experiment("Figure 1: Basic-DFS temperature snapshot", _SIM),
    "fig2": _experiment("Figure 2: Pro-Temp temperature snapshot", _FIGURE),
    "fig6a": _experiment("Figure 6a: time in bands, mixed workload", _FIGURE),
    "fig6b": _experiment("Figure 6b: time in bands, compute workload", _FIGURE),
    "fig7": _experiment("Figure 7: normalized task waiting time", _FIGURE),
    "fig8": _experiment("Figure 8: spatial gradient time series", _FIGURE),
    "fig9": _experiment("Figure 9: uniform vs per-core feasible frequency"),
    "fig10": _experiment("Figure 10: per-core frequencies"),
    "fig11": _experiment("Figure 11: temperature-aware assignment", _FIGURE),
    "calibration": _experiment("thermal-model calibration report"),
    "table": _experiment(
        "the Phase-1 frequency table (paper Figure 4)", ("--table-cache-dir",)
    ),
    "run": _Command(
        _run_command, "execute a scenario config's grid", _GRID, _CONFIG
    ),
    "tournament": _Command(
        _tournament_command, "rank a config's policies head to head", _GRID,
        _CONFIG,
    ),
    "merge": _Command(
        _merge_command, "union outcome stores", ("--output", "--json"),
        (("stores", dict(nargs="+", metavar="STORE", help="a store")),),
    ),
    "migrate": _Command(
        _migrate_command, "copy an outcome store onto another backend",
        ("--json",),
        (("src", dict(help="source store")),
         ("dst", dict(help="destination store"))),
    ),
    "serve": _Command(
        _serve_command, "run the long-lived scenario service",
        ("--workers", "--table-cache-dir", "--outcome-store", "--host",
         "--port", "--stdin", "--state", "--queue-capacity"),
    ),
    "submit": _Command(
        _submit_command, "stream a config through a running service",
        ("--url", "--json", "--idempotency-key", "--priority"), _CONFIG,
    ),
    "check": _Command(
        _check_command, "project-invariant static analysis",
        ("--rule", "--json"),
        (("paths", dict(nargs="*", metavar="PATH",
                        help="file or directory (default: src)")),),
    ),
    "report": _Command(
        _report_command, "summarize outcome stores, a journal and metrics",
        ("--state", "--metrics", "--tournament", "--json"),
        (("stores", dict(nargs="*", metavar="STORE", help="a store")),),
    ),
    "list": _Command(
        _list_command, "show registered components and experiments",
        ("--json",),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser: one subparser per command."""
    parser = _HintingArgumentParser(
        prog="protemp",
        description=(
            "Pro-Temp reproduction (Murali et al., DATE 2008): run the "
            "paper's experiments, or declarative scenario grids, on "
            "simulated multi-core platforms."
        ),
        allow_abbrev=False,
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"protemp {package_version()}",
    )
    subparsers = parser.add_subparsers(
        dest="command", metavar="command", required=True
    )
    for name in EXPERIMENTS + COMMANDS:
        command = _COMMANDS[name]
        sub = subparsers.add_parser(
            name,
            help=command.help,
            description=command.help,
            allow_abbrev=False,
        )
        for positional, kwargs in command.positionals:
            sub.add_argument(positional, **kwargs)
        for flag in command.flags:
            sub.add_argument(flag, **_FLAGS[flag])
        sub.set_defaults(handler=command.handler)
    parser.commands = subparsers.choices
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code (2 on usage errors)."""
    try:
        args = build_parser().parse_args(argv)
    except _UsageError:
        return 2
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
