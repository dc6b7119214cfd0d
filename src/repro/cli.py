"""Command-line interface: ``protemp <command>`` / ``python -m repro``.

Three command families:

* ``protemp <figN>`` — run one of the paper's experiments end-to-end and
  print the figure's data as text.  Heavy experiments accept
  ``--duration`` to trade fidelity for speed.
* ``protemp run <config.json>`` — expand a declarative scenario config
  (see `repro.scenario.specs.scenario_grid_from_config`) and execute the
  grid on a :class:`~repro.scenario.ScenarioRunner`, optionally over a
  process pool (``--workers``), restricted to one deterministic shard
  (``--shard i/n``), and/or backed by a persistent scenario-outcome cache
  (``--outcome-store DIR``; see `repro.scenario.store`).
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

See docs/SCALING.md for the sharded-grid walkthrough and docs/SERVING.md
for the service endpoints and event schema.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import sys
import time
from pathlib import Path

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

#: Scenario-API commands sharing the positional slot with the experiments.
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


class _HintingArgumentParser(argparse.ArgumentParser):
    """Argparse with did-you-mean hints for unknown subcommands.

    Unknown-subcommand failures exit with the same code (2) and message
    shape as every other unknown-name error in the package
    (:func:`repro.errors.did_you_mean`): ``protemp: unknown command
    'serv'; did you mean 'serve'?``.
    """

    def error(self, message: str):
        if "invalid choice" in message:
            start = message.find("'") + 1
            bad = message[start:message.find("'", start)]
            hint = did_you_mean(bad, EXPERIMENTS + COMMANDS) or (
                "; see 'protemp list' for experiments and commands"
            )
            self.print_usage(sys.stderr)
            sys.stderr.write(
                f"{self.prog}: unknown command {bad!r}{hint}\n"
            )
            sys.exit(2)
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = _HintingArgumentParser(
        prog="protemp",
        description=(
            "Pro-Temp reproduction (Murali et al., DATE 2008): run the "
            "paper's experiments, or declarative scenario grids, on "
            "simulated multi-core platforms."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"protemp {package_version()}",
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENTS + COMMANDS,
        help=(
            "a paper experiment (figN), 'run' (execute a scenario config), "
            "'tournament' (ranked head-to-head over a policy grid), "
            "'serve'/'submit' (the long-lived scenario service), "
            "'merge'/'migrate' (combine or convert outcome stores), "
            "'check' (static analysis), or 'list' (show registered "
            "components)"
        ),
    )
    parser.add_argument(
        "config",
        nargs="?",
        default=None,
        help=(
            "scenario config JSON file ('run'/'tournament'/'submit'), "
            "first outcome store ('merge'), source store ('migrate'), or "
            "first path to analyze ('check')"
        ),
    )
    parser.add_argument(
        "stores",
        nargs="*",
        default=[],
        help=(
            "additional outcome stores to union ('merge'), the "
            "destination store ('migrate'), or additional paths to "
            "analyze ('check')"
        ),
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="simulated seconds for trace-driven experiments",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload random seed"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size for 'run' (default: serial)",
    )
    parser.add_argument(
        "--table-cache-dir",
        default=None,
        help=(
            "directory of persistent Phase-1 table caches ('run', "
            "'tournament', 'serve', the figures and 'table')"
        ),
    )
    parser.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help=(
            "run only shard I of N (0-based) of the expanded grid; the "
            "slicing hashes specs, so N hosts running I=0..N-1 cover the "
            "grid exactly once"
        ),
    )
    parser.add_argument(
        "--outcome-store",
        default=None,
        metavar="STORE",
        help=(
            "persistent scenario-outcome store: cells already in the store "
            "are replayed instead of re-simulated, fresh cells are written "
            "back ('run', 'serve'); a directory, a *.sqlite/*.db file, or "
            "a sqlite:/dir: URL"
        ),
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="DIR",
        help="write the merged outcome store to this directory ('merge')",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help=(
            "machine-readable output ('run', 'list'; raw NDJSON events "
            "for 'submit')"
        ),
    )
    parser.add_argument(
        "--host",
        default=None,
        help="bind address for 'serve' (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port for 'serve' (default 8765)",
    )
    parser.add_argument(
        "--stdin",
        action="store_true",
        help=(
            "'serve' only: read one config JSON per stdin line and write "
            "NDJSON events to stdout instead of serving HTTP"
        ),
    )
    parser.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help=(
            "base URL of the running service for 'submit' "
            "(default http://127.0.0.1:8765)"
        ),
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help=(
            "'check' only: run just this rule (repeatable, e.g. "
            "--rule PT001 --rule PT004; default: all rules)"
        ),
    )
    parser.add_argument(
        "--state",
        default=None,
        metavar="FILE",
        help=(
            "'serve' only: journal job state to this SQLite file so a "
            "restarted service re-enqueues interrupted jobs (finished "
            "cells replay from the outcome store) and idempotency keys "
            "survive restarts"
        ),
    )
    parser.add_argument(
        "--idempotency-key",
        default=None,
        metavar="KEY",
        help=(
            "'submit' only: retry token — resubmitting the same config "
            "under the same key streams the existing job instead of "
            "running it twice"
        ),
    )
    parser.add_argument(
        "--priority",
        type=int,
        default=None,
        metavar="N",
        help=(
            "'submit' only: scheduling priority for the job (higher "
            "runs first; default 0)"
        ),
    )
    parser.add_argument(
        "--queue-capacity",
        type=int,
        default=None,
        metavar="N",
        help=(
            "'serve' only: admission-control limit — reject submissions "
            "with 429 once this many scenario cells are accepted but not "
            "yet finished (default: unbounded)"
        ),
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help=(
            "'report' only: a saved /metrics JSON snapshot to summarize "
            "into per-phase timing tables"
        ),
    )
    parser.add_argument(
        "--tournament",
        action="store_true",
        help=(
            "'report' only: also reduce the given outcome stores into a "
            "ranked head-to-head tournament (same reducer as 'protemp "
            "tournament', so a saved store re-renders its ranking)"
        ),
    )
    return parser


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


def _list_command(as_json: bool) -> int:
    """``protemp list``: registered components and experiments."""
    if as_json:
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


def _reject_foreign_flags(
    command: str, args: argparse.Namespace, invalid: dict[str, object]
) -> str | None:
    """Guard against flags that belong to a *different* subcommand.

    The experiments, ``run`` and ``merge`` share one argparse namespace;
    silently ignoring another command's flag (classic: ``merge
    --outcome-store`` instead of ``--output``) would discard user intent.

    Returns:
        An error message, or None when no foreign flag is set.
    """
    used = [
        flag
        for flag, value in invalid.items()
        # Identity, not equality: 0 is a meaningful value for int flags
        # (--port 0 binds an ephemeral port) and must still be rejected.
        if value is not None and value is not False
    ]
    if used:
        return (
            f"protemp {command}: {', '.join(used)} "
            f"{'is' if len(used) == 1 else 'are'} not valid for '{command}'"
        )
    return None


def _run_command(args: argparse.Namespace) -> int:
    """``protemp run <config.json>``: execute a scenario grid."""
    if args.config is None:
        print("protemp run: a scenario config JSON path is required",
              file=sys.stderr)
        return 2
    if args.stores:
        print("protemp run: takes a single config "
              f"(unexpected arguments: {args.stores})", file=sys.stderr)
        return 2
    error = _reject_foreign_flags(
        "run",
        args,
        {
            "--output": args.output,
            "--host": args.host,
            "--port": args.port,
            "--url": args.url,
            "--stdin": args.stdin,
            "--rule": args.rule,
            "--state": args.state,
            "--idempotency-key": args.idempotency_key,
            "--priority": args.priority,
            "--queue-capacity": args.queue_capacity,
            "--metrics": args.metrics,
            "--tournament": args.tournament,
        },
    )
    if error:
        hint = " (did you mean --outcome-store?)" if args.output else ""
        print(f"{error}{hint}", file=sys.stderr)
        return 2
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
        return 0
    _print_summary_table(rows)
    print(
        f"[{len(rows)} scenarios ({runner.scenarios_executed} executed, "
        f"{runner.outcomes_replayed} from store), "
        f"{runner.tables_built} tables built]",
        file=sys.stderr,
    )
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

    if args.config is None:
        print(
            "protemp tournament: a scenario config JSON path is required",
            file=sys.stderr,
        )
        return 2
    if args.stores:
        print(
            "protemp tournament: takes a single config "
            f"(unexpected arguments: {args.stores})",
            file=sys.stderr,
        )
        return 2
    error = _reject_foreign_flags(
        "tournament",
        args,
        {
            "--output": args.output,
            "--host": args.host,
            "--port": args.port,
            "--url": args.url,
            "--stdin": args.stdin,
            "--rule": args.rule,
            "--state": args.state,
            "--idempotency-key": args.idempotency_key,
            "--priority": args.priority,
            "--queue-capacity": args.queue_capacity,
            "--metrics": args.metrics,
            "--tournament": args.tournament,
        },
    )
    if error:
        hint = (
            " ('tournament' already ranks; the flag belongs to 'report')"
            if args.tournament
            else ""
        )
        print(f"{error}{hint}", file=sys.stderr)
        return 2
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
    return 0


def _merge_command(args: argparse.Namespace) -> int:
    """``protemp merge <store>...``: union shard outcome sets.

    Stores are named like ``--outcome-store``: a directory, a
    ``*.sqlite``/``*.db`` file, or a ``sqlite:``/``dir:`` URL — shards
    on different backends merge freely.
    """
    error = _reject_foreign_flags(
        "merge",
        args,
        {
            "--outcome-store": args.outcome_store,
            "--shard": args.shard,
            "--workers": args.workers,
            "--table-cache-dir": args.table_cache_dir,
            "--host": args.host,
            "--port": args.port,
            "--url": args.url,
            "--stdin": args.stdin,
            "--rule": args.rule,
            "--state": args.state,
            "--idempotency-key": args.idempotency_key,
            "--priority": args.priority,
            "--queue-capacity": args.queue_capacity,
            "--metrics": args.metrics,
            "--tournament": args.tournament,
        },
    )
    if error:
        hint = (
            " (did you mean --output?)"
            if args.outcome_store is not None
            else ""
        )
        print(f"{error}{hint}", file=sys.stderr)
        return 2
    paths = ([args.config] if args.config else []) + list(args.stores)
    if not paths:
        print("protemp merge: at least one outcome-store path is required",
              file=sys.stderr)
        return 2
    try:
        merged = merge_stores(open_existing_store(p) for p in paths)
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
        f"[{len(merged.records)} outcomes from {len(paths)} stores "
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
    error = _reject_foreign_flags(
        "migrate",
        args,
        {
            "--outcome-store": args.outcome_store,
            "--shard": args.shard,
            "--workers": args.workers,
            "--table-cache-dir": args.table_cache_dir,
            "--output": args.output,
            "--host": args.host,
            "--port": args.port,
            "--url": args.url,
            "--stdin": args.stdin,
            "--rule": args.rule,
            "--state": args.state,
            "--idempotency-key": args.idempotency_key,
            "--priority": args.priority,
            "--queue-capacity": args.queue_capacity,
            "--metrics": args.metrics,
            "--tournament": args.tournament,
        },
    )
    if error:
        print(error, file=sys.stderr)
        return 2
    if args.config is None or len(args.stores) != 1:
        print("protemp migrate: takes exactly a source and a destination "
              "store (e.g. protemp migrate outcomes/ outcomes.sqlite)",
              file=sys.stderr)
        return 2
    src_name, dst_name = args.config, args.stores[0]
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

    error = _reject_foreign_flags(
        "serve",
        args,
        {
            "--output": args.output,
            "--shard": args.shard,
            "--url": args.url,
            "--rule": args.rule,
            "--idempotency-key": args.idempotency_key,
            "--priority": args.priority,
            "--metrics": args.metrics,
            "--tournament": args.tournament,
        },
    )
    if error:
        print(error, file=sys.stderr)
        return 2
    if args.config is not None or args.stores:
        print("protemp serve: takes no positional arguments (configs are "
              "submitted over HTTP or stdin)", file=sys.stderr)
        return 2
    service = ScenarioService(
        max_workers=args.workers or DEFAULT_MAX_WORKERS,
        table_cache_dir=args.table_cache_dir,
        outcome_store=args.outcome_store,
        state=args.state,
        queue_capacity=args.queue_capacity,
    )
    if args.stdin:
        if args.host is not None or args.port is not None:
            print("protemp serve: --stdin does not take --host/--port",
                  file=sys.stderr)
            return 2
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

    error = _reject_foreign_flags(
        "submit",
        args,
        {
            "--output": args.output,
            "--shard": args.shard,
            "--workers": args.workers,
            "--table-cache-dir": args.table_cache_dir,
            "--outcome-store": args.outcome_store,
            "--host": args.host,
            "--port": args.port,
            "--stdin": args.stdin,
            "--rule": args.rule,
            "--state": args.state,
            "--queue-capacity": args.queue_capacity,
            "--metrics": args.metrics,
            "--tournament": args.tournament,
        },
    )
    if error:
        hint = " (caches live on the server; see 'protemp serve')" if (
            args.table_cache_dir or args.outcome_store
        ) else ""
        print(f"{error}{hint}", file=sys.stderr)
        return 2
    if args.config is None:
        print("protemp submit: a scenario config JSON path is required",
              file=sys.stderr)
        return 2
    if args.stores:
        print("protemp submit: takes a single config "
              f"(unexpected arguments: {args.stores})", file=sys.stderr)
        return 2
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

    error = _reject_foreign_flags(
        "check",
        args,
        {
            "--duration": args.duration,
            "--workers": args.workers,
            "--table-cache-dir": args.table_cache_dir,
            "--shard": args.shard,
            "--outcome-store": args.outcome_store,
            "--output": args.output,
            "--host": args.host,
            "--port": args.port,
            "--stdin": args.stdin,
            "--url": args.url,
            "--state": args.state,
            "--idempotency-key": args.idempotency_key,
            "--priority": args.priority,
            "--queue-capacity": args.queue_capacity,
            "--metrics": args.metrics,
            "--tournament": args.tournament,
        },
    )
    if error:
        print(error, file=sys.stderr)
        return 2
    paths = ([args.config] if args.config else []) + list(args.stores)
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

    error = _reject_foreign_flags(
        "report",
        args,
        {
            "--duration": args.duration,
            "--workers": args.workers,
            "--table-cache-dir": args.table_cache_dir,
            "--shard": args.shard,
            "--outcome-store": args.outcome_store,
            "--output": args.output,
            "--host": args.host,
            "--port": args.port,
            "--stdin": args.stdin,
            "--url": args.url,
            "--rule": args.rule,
            "--idempotency-key": args.idempotency_key,
            "--priority": args.priority,
            "--queue-capacity": args.queue_capacity,
        },
    )
    if error:
        hint = (
            " (did you mean a positional store path?)"
            if args.outcome_store is not None
            else ""
        )
        print(f"{error}{hint}", file=sys.stderr)
        return 2
    store_paths = ([args.config] if args.config else []) + list(args.stores)
    if not store_paths and args.state is None and args.metrics is None:
        print(
            "protemp report: nothing to report — give outcome stores, "
            "--state JOURNAL, and/or --metrics SNAPSHOT",
            file=sys.stderr,
        )
        return 2
    try:
        report = build_report(
            stores=store_paths or None,
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


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.table_cache_dir is not None and Path(args.table_cache_dir).is_file():
        # argparse expands the prefix `--table-cache` to this flag, so a
        # single-file table cache path lands here too.
        print(
            f"protemp {args.experiment}: --table-cache-dir "
            f"{args.table_cache_dir} is a file; give a directory of "
            "table caches",
            file=sys.stderr,
        )
        return 2
    if args.experiment == "list":
        return _list_command(args.json)
    started = time.time()
    if args.experiment == "run":
        code = _run_command(args)
        print(f"[run finished in {time.time() - started:.1f}s]",
              file=sys.stderr)
        return code
    if args.experiment == "tournament":
        code = _tournament_command(args)
        print(f"[tournament finished in {time.time() - started:.1f}s]",
              file=sys.stderr)
        return code
    if args.experiment == "merge":
        return _merge_command(args)
    if args.experiment == "migrate":
        return _migrate_command(args)
    if args.experiment == "serve":
        return _serve_command(args)
    if args.experiment == "submit":
        return _submit_command(args)
    if args.experiment == "check":
        return _check_command(args)
    if args.experiment == "report":
        return _report_command(args)
    if args.config is not None or args.stores:
        print(f"protemp {args.experiment}: unexpected positional arguments",
              file=sys.stderr)
        return 2
    platform = make_platform()
    runner = ScenarioRunner(table_cache_dir=args.table_cache_dir)
    runner.prime_platform(NIAGARA_SPEC, platform)

    def table():
        return runner.table(NIAGARA_SPEC, PROTEMP_SPEC)[0]

    duration = args.duration
    if args.experiment == "fig1":
        result = run_snapshot(
            "basic", duration=duration or 60.0, seed=args.seed,
            platform=platform,
        )
        print(result.text())
        print(_snapshot_plot(result))
    elif args.experiment == "fig2":
        result = run_snapshot(
            "protemp", duration=duration or 60.0, seed=args.seed,
            platform=platform, table=table(),
        )
        print(result.text())
        print(_snapshot_plot(result))
    elif args.experiment in ("fig6a", "fig6b"):
        kind = "mixed" if args.experiment == "fig6a" else "compute"
        result = run_band_comparison(
            kind, duration=duration or 40.0, seed=args.seed,
            platform=platform, table=table(),
        )
        print(result.text())
    elif args.experiment == "fig7":
        result = run_waiting_comparison(
            duration=duration or 40.0, seed=args.seed,
            platform=platform, table=table(),
        )
        print(result.text())
    elif args.experiment == "fig8":
        result = run_gradient_timeseries(
            duration=duration or 60.0, seed=args.seed,
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
    elif args.experiment == "fig9":
        print(run_feasibility_sweep(platform=platform).text())
    elif args.experiment == "fig10":
        print(run_per_core_frequency(platform=platform).text())
    elif args.experiment == "fig11":
        result = run_assignment_effect(
            duration=duration or 40.0, seed=args.seed,
            platform=platform, table=table(),
        )
        print(result.text())
    elif args.experiment == "calibration":
        print(format_report(calibration_report(platform), platform.core_names))
    elif args.experiment == "table":
        print(table().format())
    print(f"[{args.experiment} finished in {time.time() - started:.1f}s]",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
