"""Tests for the command-line interface."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import COMMANDS, EXPERIMENTS, build_parser, main

ROOT = Path(__file__).resolve().parents[1]


class TestParser:
    def test_known_experiments(self):
        parser = build_parser()
        for exp in EXPERIMENTS:
            args = parser.parse_args([exp])
            assert args.command == exp

    def test_unknown_experiment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig99"])

    def test_options(self):
        args = build_parser().parse_args(
            ["fig7", "--duration", "5", "--seed", "3"]
        )
        assert args.duration == 5.0
        assert args.seed == 3


class TestTableCacheDir:
    def test_cache_file_instead_of_directory_rejected(self, tmp_path, capsys):
        """A file where the table-cache directory belongs is a usage
        error, not a traceback."""
        old_cache = tmp_path / "table.json"
        old_cache.write_text("{}")
        assert main(["table", "--table-cache-dir", str(old_cache)]) == 2
        assert "is a file" in capsys.readouterr().err

    def test_removed_single_file_flag_points_to_dir(self, tmp_path, capsys):
        """The removed `--table-cache FILE` is no longer expanded to
        `--table-cache-dir` (which created a directory named FILE): it is
        rejected with a pointer to the directory flag, creating nothing."""
        target = tmp_path / "x.json"
        assert main(["table", "--table-cache", str(target)]) == 2
        err = capsys.readouterr().err
        assert "--table-cache is not valid for 'table'" in err
        assert "did you mean '--table-cache-dir'?" in err
        assert not target.exists()

    def test_table_command_reuses_cache_dir(self, tmp_path, capsys):
        """`table` takes its table from the runner's cache: the first run
        writes one JSON table, the second loads it and prints the same."""
        cache = tmp_path / "tables"
        outputs = []
        for _ in range(2):
            assert main(["table", "--table-cache-dir", str(cache)]) == 0
            outputs.append(capsys.readouterr().out)
        assert len(list(cache.glob("table_*.json"))) == 1
        assert outputs[0] == outputs[1]
        assert "infeasible" in outputs[0]


class TestScenarioCommands:
    def test_commands_parse(self):
        parser = build_parser()
        positionals = {
            "run": ["c.json"],
            "tournament": ["c.json"],
            "merge": ["store"],
            "migrate": ["src", "dst"],
            "submit": ["c.json"],
        }
        for command in COMMANDS:
            argv = [command, *positionals.get(command, [])]
            assert parser.parse_args(argv).command == command
        args = parser.parse_args(
            ["run", "config.json", "--workers", "2", "--json"]
        )
        assert args.config == "config.json"
        assert args.workers == 2
        assert args.json

    def test_list_shows_registries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for expected in (
            "niagara8",
            "mixed",
            "protemp",
            "basic-dfs",
            "first-idle",
            "noisy",
            "fig6a",
        ):
            assert expected in out

    def test_list_json_is_machine_readable(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "protemp" in payload["policies"]
        assert "niagara8" in payload["platforms"]
        assert "fig9" in payload["experiments"]

    def test_run_requires_config(self, capsys):
        assert main(["run"]) == 2
        assert "config" in capsys.readouterr().err

    def test_run_missing_config_file_reports_cleanly(self, capsys):
        assert main(["run", "no-such-config.json"]) == 2
        assert "no such scenario config" in capsys.readouterr().err

    def test_run_executes_config(self, tmp_path, capsys):
        config = {
            "base": {
                "platform": {"name": "core-row", "params": {"n_cores": 3}},
                "workload": {
                    "name": "poisson",
                    "duration": 1.0,
                    "params": {"offered_load": 0.3},
                },
                "t_initial": 60.0,
            },
            "grid": {"policy": ["no-tc", "basic-dfs"], "seed": [0, 1]},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "No-TC" in out and "Basic-DFS" in out

    def test_run_json_output(self, tmp_path, capsys):
        config = {
            "platform": {"name": "core-row", "params": {"n_cores": 3}},
            "workload": {
                "name": "poisson",
                "duration": 1.0,
                "params": {"offered_load": 0.3},
            },
            "policy": "no-tc",
            "t_initial": 60.0,
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(config))
        assert main(["run", str(path), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["policy"] == "No-TC"
        assert rows[0]["table_cache_hit"] is None


FAST_CONFIG = {
    "base": {
        "platform": {"name": "core-row", "params": {"n_cores": 3}},
        "workload": {
            "name": "poisson",
            "duration": 1.0,
            "params": {"offered_load": 0.3},
        },
        "t_initial": 60.0,
    },
    "grid": {"policy": ["no-tc", "basic-dfs"], "seed": [0, 1]},
}

VOLATILE_ROW_KEYS = {
    "wall_time_s",
    "solve_wall_time_s",
    "table_cache_hit",
    "outcome_cache_hit",
}


def _write_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FAST_CONFIG))
    return str(path)


class TestShardingAndStore:
    def test_shard_options_parse(self):
        args = build_parser().parse_args(
            ["run", "cfg.json", "--shard", "1/4", "--outcome-store", "out"]
        )
        assert args.shard == "1/4"
        assert args.outcome_store == "out"

    def test_malformed_shard_rejected(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        assert main(["run", config, "--shard", "banana"]) == 2
        assert "--shard" in capsys.readouterr().err

    def test_out_of_range_shard_rejected(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        assert main(["run", config, "--shard", "2/2"]) == 2
        assert "shard_index" in capsys.readouterr().err

    def test_sharded_runs_merge_to_the_unsharded_run(self, tmp_path, capsys):
        """CLI acceptance loop: two --shard runs, protemp merge, and the
        result matches the unsharded run's deterministic rows exactly."""
        config = _write_config(tmp_path)
        for index in range(2):
            assert main([
                "run", config, "--shard", f"{index}/2",
                "--outcome-store", str(tmp_path / f"shard{index}"),
            ]) == 0
        capsys.readouterr()
        assert main([
            "merge", str(tmp_path / "shard0"), str(tmp_path / "shard1"),
            "--output", str(tmp_path / "merged"), "--json",
        ]) == 0
        merged_rows = json.loads(capsys.readouterr().out)
        assert main(["run", config, "--json"]) == 0
        full_rows = json.loads(capsys.readouterr().out)
        expected = sorted(
            (
                {k: v for k, v in row.items() if k not in VOLATILE_ROW_KEYS}
                for row in full_rows
            ),
            key=lambda row: row["spec_hash"],
        )
        assert merged_rows == expected
        # And the merged store warm-replays the whole grid: zero executed.
        assert main([
            "run", config, "--outcome-store", str(tmp_path / "merged")
        ]) == 0
        err = capsys.readouterr().err
        assert "0 executed" in err and "4 from store" in err

    def test_warm_store_rerun_replays(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        store = str(tmp_path / "store")
        assert main(["run", config, "--outcome-store", store]) == 0
        capsys.readouterr()
        assert main(["run", config, "--outcome-store", store, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(row["outcome_cache_hit"] for row in rows)

    def test_run_rejects_extra_positionals(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        assert main(["run", config, "stray-arg"]) == 2
        assert "unrecognized arguments: stray-arg" in capsys.readouterr().err


class TestMergeCommand:
    def test_merge_requires_stores(self, capsys):
        assert main(["merge"]) == 2
        assert "required: STORE" in capsys.readouterr().err

    def test_merge_missing_store_reported(self, tmp_path, capsys):
        assert main(["merge", str(tmp_path / "nope")]) == 2
        assert "no such outcome store" in capsys.readouterr().err

    def test_merge_conflict_detected(self, tmp_path, capsys):
        from repro.scenario import (
            DirectoryOutcomeStore,
            ScenarioRunner,
            scenario_grid_from_config,
        )

        spec = scenario_grid_from_config(FAST_CONFIG)[0]
        ScenarioRunner(outcome_store=tmp_path / "a").run(spec)
        ScenarioRunner(outcome_store=tmp_path / "b").run(spec)
        # Tamper with one copy's summary to fake nondeterminism.
        store_b = DirectoryOutcomeStore(tmp_path / "b")
        record = store_b.get(spec.spec_hash)
        broken = record.summary | {"peak_c": -1.0}
        path = tmp_path / "b" / f"outcome_{spec.spec_hash}.jsonl"
        payload = record.to_dict() | {"summary": broken}
        path.write_text(json.dumps(payload) + "\n")
        assert main(["merge", str(tmp_path / "a"), str(tmp_path / "b")]) == 2
        assert "conflicting duplicate" in capsys.readouterr().err

    def test_merge_rejects_run_flags(self, tmp_path, capsys):
        """--outcome-store on merge (near-synonym of --output) must be
        rejected with a hint, not silently ignored."""
        store = tmp_path / "store"
        store.mkdir()
        assert main(
            ["merge", str(store), "--outcome-store", str(tmp_path / "out")]
        ) == 2
        err = capsys.readouterr().err
        assert "--outcome-store" in err and "--output" in err

    def test_run_rejects_merge_flags(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        assert main(["run", config, "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "--output" in err and "--outcome-store" in err

    def test_merge_prints_human_table(self, tmp_path, capsys):
        from repro.scenario import ScenarioRunner, scenario_grid_from_config

        runner = ScenarioRunner(outcome_store=tmp_path / "store")
        runner.run_many(scenario_grid_from_config(FAST_CONFIG))
        capsys.readouterr()
        assert main(["merge", str(tmp_path / "store")]) == 0
        captured = capsys.readouterr()
        assert "No-TC" in captured.out and "Basic-DFS" in captured.out
        assert "4 outcomes" in captured.err


class TestVersionAndHints:
    def test_version_flag_reports_package_version(self, capsys):
        import repro
        from repro.cli import package_version

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"protemp {package_version()}"
        # Uninstalled source tree: metadata lookup falls back to __version__.
        assert repro.__version__ in out

    def test_unknown_command_exit_code_and_hint(self, capsys):
        assert main(["serv"]) == 2
        err = capsys.readouterr().err
        assert "unknown command 'serv'" in err
        assert "did you mean 'serve'?" in err

    def test_unknown_command_without_close_match(self, capsys):
        assert main(["xyzzy123"]) == 2
        err = capsys.readouterr().err
        assert "unknown command 'xyzzy123'" in err


class TestServeSubmitFlags:
    def test_serve_and_submit_parse(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "9000", "--stdin"])
        assert args.command == "serve" and args.port == 9000 and args.stdin
        args = parser.parse_args(
            ["submit", "cfg.json", "--url", "http://localhost:1234"]
        )
        assert args.command == "submit"
        assert args.url == "http://localhost:1234"

    def test_serve_rejects_positionals_and_foreign_flags(self, capsys):
        assert main(["serve", "config.json"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert main(["serve", "--url", "http://x"]) == 2
        assert "--url" in capsys.readouterr().err

    def test_submit_requires_config(self, capsys):
        assert main(["submit"]) == 2
        assert "config" in capsys.readouterr().err

    def test_submit_missing_config_reported(self, capsys):
        assert main(["submit", "no-such.json"]) == 2
        assert "no such scenario config" in capsys.readouterr().err

    def test_submit_rejects_server_side_flags(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        assert main(
            ["submit", config, "--outcome-store", str(tmp_path / "s")]
        ) == 2
        err = capsys.readouterr().err
        assert "--outcome-store" in err and "'serve'" in err

    def test_submit_unreachable_server_reported(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        assert main(
            ["submit", config, "--url", "http://127.0.0.1:1"]
        ) == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_run_rejects_serve_flags(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        assert main(["run", config, "--port", "9000"]) == 2
        assert "--port" in capsys.readouterr().err
        # 0 is falsy but still a set value (ephemeral port) — rejected too.
        assert main(["run", config, "--port", "0"]) == 2
        assert "--port" in capsys.readouterr().err

    def test_submit_streams_against_live_service(self, tmp_path, capsys):
        """End-to-end: a real server thread, `protemp submit` twice —
        cold executes, warm replays everything from the store."""
        import threading

        from repro.scenario import MemoryOutcomeStore
        from repro.serving import ScenarioService, make_server

        service = ScenarioService(
            max_workers=2, outcome_store=MemoryOutcomeStore()
        )
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        config = _write_config(tmp_path)
        try:
            assert main(["submit", config, "--url", url]) == 0
            captured = capsys.readouterr()
            assert "No-TC" in captured.out and "Basic-DFS" in captured.out
            assert "4 executed, 0 from store" in captured.err

            assert main(["submit", config, "--url", url, "--json"]) == 0
            captured = capsys.readouterr()
            events = [
                json.loads(line)
                for line in captured.out.splitlines()
                if line.strip()
            ]
            done = events[-1]
            assert done["event"] == "done"
            assert done["scenarios_executed"] == 0
            assert done["outcomes_replayed"] == 4
        finally:
            server.shutdown()
            server.server_close()
            service.drain()


class TestUsageErrors:
    """A flag the command does not take, or a count below one, exits 2
    and names the flag instead of being dropped or failing later."""

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["list", "--outcome-store", "X"], ["--outcome-store"]),
            (
                ["fig9", "--rule", "PT001", "--port", "1",
                 "--idempotency-key", "k"],
                ["--rule", "--port", "--idempotency-key"],
            ),
            (["run", "CFG", "--seed", "3"], ["--seed"]),
            (["check", "src", "--seed", "3"], ["--seed"]),
        ],
    )
    def test_foreign_flag_rejected(self, argv, flags, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        for flag in flags:
            assert f"{flag} is not valid for '{argv[0]}'" in err

    def test_hint_names_the_commands_that_take_the_flag(self, capsys):
        assert main(["list", "--outcome-store", "X"]) == 2
        err = capsys.readouterr().err
        assert "it belongs to 'run', 'tournament', 'serve'" in err
        # Another command's real flag points there, not at a look-alike
        # of this command's own (difflib pairs --seed with --shard).
        assert main(["run", "CFG", "--seed", "3"]) == 2
        err = capsys.readouterr().err
        assert "it belongs to 'fig1'" in err and "did you mean" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "CFG", "--workers", "0"],
            ["tournament", "CFG", "--workers", "-1"],
            # --stdin: a regression must not bind a port and block.
            ["serve", "--stdin", "--queue-capacity", "0"],
            ["serve", "--stdin", "--workers", "0"],
        ],
    )
    def test_non_positive_counts_rejected(self, argv, capsys):
        assert main(argv) == 2
        flag = argv[-2]
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a positive integer" in err

    def test_stdin_excludes_host_and_port(self, capsys):
        assert main(["serve", "--stdin", "--port", "1"]) == 2
        assert "--stdin does not take" in capsys.readouterr().err


def _shell_lines(workflow: Path) -> list[str]:
    """Shell command lines of a workflow's ``run:`` steps: a folded
    (``>``) block is one line, and ``\\`` continuations are joined."""
    lines = workflow.read_text().splitlines()
    commands: list[str] = []
    i = 0
    while i < len(lines):
        match = re.match(r"(\s*)(?:- )?run:\s*(.*)$", lines[i])
        i += 1
        if match is None:
            continue
        indent, body = len(match.group(1)), match.group(2)
        if body[:1] not in (">", "|"):
            commands.append(body)
            continue
        block = []
        while i < len(lines) and (
            not lines[i].strip()
            or len(lines[i]) - len(lines[i].lstrip()) > indent
        ):
            block.append(lines[i].strip())
            i += 1
        text = "\n".join(block)
        if body.startswith(">"):
            text = text.replace("\n", " ")
        commands.extend(text.replace("\\\n", " ").splitlines())
    return commands


def _workflow_invocations() -> list[list[str]]:
    """The argv of every ``python -m repro`` call in the CI workflows,
    cut at the first shell operator."""
    argvs = []
    for workflow in sorted((ROOT / ".github" / "workflows").glob("*.yml")):
        for line in _shell_lines(workflow):
            _, found, rest = line.partition("python -m repro ")
            if found:
                argvs.append(shlex.split(re.split(r"[>|&]", rest)[0]))
    return argvs


WORKFLOW_INVOCATIONS = _workflow_invocations()


def _assert_parses(argv: list[str]) -> None:
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"protemp {shlex.join(argv)} exits {exc.code}")


class TestShippedInvocations:
    """Every command line the repo ships still parses."""

    def test_workflows_found(self):
        commands = {argv[0] for argv in WORKFLOW_INVOCATIONS}
        assert {
            "check", "run", "merge", "migrate", "serve", "submit",
            "report", "tournament",
        } <= commands

    @pytest.mark.parametrize("argv", WORKFLOW_INVOCATIONS, ids=shlex.join)
    def test_workflow_invocation_parses(self, argv):
        _assert_parses(argv)

    def test_perfbench_server_argv_parses(self, tmp_path, monkeypatch):
        """The argv perfbench's service-mix ``Server`` launches."""
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        from harness import workloads

        launched = []
        monkeypatch.setattr(
            workloads.subprocess,
            "Popen",
            lambda command, **kwargs: launched.append(command),
        )
        ctx = workloads.Context(
            root=ROOT, seed=7, seconds=1.0, trace=False, work=tmp_path
        )
        workloads.Server(ctx, "server", traced=False)._log.close()
        (command,) = launched
        argv = command[command.index("serve"):]
        assert "--queue-capacity" in argv
        _assert_parses(argv)


class TestMain:
    def test_calibration_runs(self, capsys):
        assert main(["calibration"]) == 0
        out = capsys.readouterr().out
        assert "hottest core" in out

    def test_fig10_runs(self, capsys):
        assert main(["fig10"]) == 0
        out = capsys.readouterr().out
        assert "P1" in out and "P2" in out
