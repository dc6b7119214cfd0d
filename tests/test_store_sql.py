"""SqliteOutcomeStore: equivalence, migrations, concurrency, migrate CLI.

Covers the ISSUE 8 tentpole guarantees: the sqlite backend is
observationally equivalent to the directory backend (same puts lead to
the same gets, conflicts, and merge results), schema versioning with a
working migration hook (and refusal of future layouts), concurrent
writers converge, an interrupted grid run restarted against the same
sqlite store performs zero re-solves and yields bit-identical rows, and
``protemp migrate`` round-trips any backend losslessly.
"""

from __future__ import annotations

import json
import sqlite3
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import OutcomeStoreError
from repro.scenario import (
    DirectoryOutcomeStore,
    MemoryOutcomeStore,
    ScenarioRunner,
    SqliteOutcomeStore,
    merge_stores,
    open_existing_store,
    open_outcome_store,
)
from repro.scenario import store_sql
from test_scenario_store import fast_grid, make_record


class TestSqliteBasics:
    def test_file_created_with_parents(self, tmp_path):
        store = SqliteOutcomeStore(tmp_path / "deep" / "nest" / "o.sqlite")
        store.put(make_record())
        assert (tmp_path / "deep" / "nest" / "o.sqlite").is_file()

    def test_reopen_sees_previous_writes(self, tmp_path):
        path = tmp_path / "o.sqlite"
        with SqliteOutcomeStore(path) as store:
            store.put(make_record(0))
            store.put(make_record(1))
        reopened = SqliteOutcomeStore(path)
        assert len(reopened) == 2
        assert reopened.get(make_record(0).spec_hash) is not None

    def test_records_ordered_by_spec_hash(self, tmp_path):
        store = SqliteOutcomeStore(tmp_path / "o.sqlite")
        records = [make_record(seed) for seed in range(6)]
        for record in records:
            store.put(record)
        hashes = [r.spec_hash for r in store.records()]
        assert hashes == sorted(hashes)

    def test_close_is_idempotent_and_store_reopens(self, tmp_path):
        store = SqliteOutcomeStore(tmp_path / "o.sqlite")
        store.put(make_record())
        store.close()
        store.close()
        assert len(store) == 1  # transparently reconnected

    def test_corrupt_row_raises_cleanly(self, tmp_path):
        path = tmp_path / "o.sqlite"
        store = SqliteOutcomeStore(path)
        record = make_record()
        store.put(record)
        store.close()
        with sqlite3.connect(path) as raw:
            raw.execute(
                "UPDATE outcomes SET spec = ?", ("{not json",)
            )
        with pytest.raises(OutcomeStoreError, match="unreadable"):
            store.get(record.spec_hash)

    def test_unwritable_path_raises_outcome_store_error(self, tmp_path):
        clash = tmp_path / "plain.txt"
        clash.write_text("not a database\n")
        store = SqliteOutcomeStore(clash / "o.sqlite")
        with pytest.raises(OutcomeStoreError, match="cannot open"):
            store.put(make_record())


class TestSchemaVersioning:
    def test_fresh_store_is_current_version(self, tmp_path):
        store = SqliteOutcomeStore(tmp_path / "o.sqlite")
        assert store.schema_version() == store_sql.SCHEMA_VERSION

    def test_future_schema_version_refuses_to_open(self, tmp_path):
        path = tmp_path / "o.sqlite"
        SqliteOutcomeStore(path).put(make_record())
        with sqlite3.connect(path) as raw:
            raw.execute(
                "UPDATE meta SET value = '99' WHERE key = 'schema_version'"
            )
        with pytest.raises(OutcomeStoreError, match="newer"):
            SqliteOutcomeStore(path).get("0" * 12)

    def test_migration_hook_upgrades_old_store(self, tmp_path, monkeypatch):
        """A store created at version N upgrades through MIGRATIONS when
        the code moves to N+1 — the Postgres-readiness contract."""
        path = tmp_path / "o.sqlite"
        record = make_record()
        with SqliteOutcomeStore(path) as old:
            old.put(record)

        def add_notes_column(connection: sqlite3.Connection) -> None:
            connection.execute(
                "ALTER TABLE outcomes ADD COLUMN notes TEXT"
            )

        monkeypatch.setattr(
            store_sql, "SCHEMA_VERSION", store_sql.SCHEMA_VERSION + 1
        )
        monkeypatch.setitem(
            store_sql.MIGRATIONS, store_sql.SCHEMA_VERSION - 1,
            add_notes_column,
        )
        upgraded = SqliteOutcomeStore(path)
        assert upgraded.schema_version() == store_sql.SCHEMA_VERSION
        loaded = upgraded.get(record.spec_hash)
        assert loaded.same_content(record)

    def test_missing_migration_step_raises(self, tmp_path, monkeypatch):
        path = tmp_path / "o.sqlite"
        SqliteOutcomeStore(path).put(make_record())
        monkeypatch.setattr(
            store_sql, "SCHEMA_VERSION", store_sql.SCHEMA_VERSION + 1
        )
        with pytest.raises(OutcomeStoreError, match="no sqlite schema"):
            SqliteOutcomeStore(path).schema_version()


#: One synthetic put: (seed, summary variant).  Same seed + same variant
#: is a benign duplicate; same seed + different variant is a conflict.
_PUTS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 1)),
    min_size=1,
    max_size=12,
)


class TestObservationalEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(puts=_PUTS)
    def test_same_puts_same_gets_and_conflicts(self, tmp_path_factory, puts):
        """Property: any put sequence behaves identically on the
        directory and sqlite backends — same conflicts at the same step,
        same surviving records, same merge result."""
        tmp = tmp_path_factory.mktemp("equiv")
        stores = [
            DirectoryOutcomeStore(tmp / "dir"),
            SqliteOutcomeStore(tmp / "store.sqlite"),
        ]
        records = {
            (seed, variant): make_record(seed, peak_c=80.0 + variant)
            for seed, variant in puts
        }
        for key in puts:
            outcomes = []
            for store in stores:
                try:
                    store.put(records[key])
                    outcomes.append("ok")
                except OutcomeStoreError:
                    outcomes.append("conflict")
            assert outcomes[0] == outcomes[1], key
        assert len(stores[0]) == len(stores[1])
        for seed, variant in records:
            a = stores[0].get(records[(seed, variant)].spec_hash)
            b = stores[1].get(records[(seed, variant)].spec_hash)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.same_content(b)

    def test_merge_treats_backends_alike(self, tmp_path):
        """merge_stores over mixed backends equals merge over one."""
        records = [make_record(seed) for seed in range(4)]
        directory = DirectoryOutcomeStore(tmp_path / "dir")
        sqlite_store = SqliteOutcomeStore(tmp_path / "o.sqlite")
        memory = MemoryOutcomeStore()
        for record in records[:3]:
            directory.put(record)
        for record in records[1:]:
            sqlite_store.put(record)
        for record in records:
            memory.put(record)
        mixed = merge_stores([directory, sqlite_store])
        assert mixed.summary_rows() == merge_stores([memory]).summary_rows()
        assert mixed.duplicates == 2


class TestConcurrentWriters:
    def test_threads_with_separate_connections_converge(self, tmp_path):
        """N threads, each with its OWN store instance on one file,
        writing overlapping same-content records: no errors, every
        record present exactly once (the cross-process WAL story,
        exercised in-process)."""
        path = tmp_path / "o.sqlite"
        records = [make_record(seed) for seed in range(24)]
        errors: list[Exception] = []

        def writer(offset: int) -> None:
            store = SqliteOutcomeStore(path)
            try:
                # Overlapping slices: every record is written by >= 2
                # threads, so the INSERT OR IGNORE race path runs.
                for record in records[offset:] + records[:offset]:
                    store.put(record)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)
            finally:
                store.close()

        threads = [
            threading.Thread(target=writer, args=(i * 6,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        final = SqliteOutcomeStore(path)
        assert len(final) == len(records)

    def test_one_instance_shared_across_threads(self, tmp_path):
        store = SqliteOutcomeStore(tmp_path / "o.sqlite")
        records = [make_record(seed) for seed in range(16)]

        def writer(chunk: list) -> None:
            for record in chunk:
                store.put(record)

        threads = [
            threading.Thread(target=writer, args=(records[i::2],))
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(store) == len(records)


class TestRestartRecovery:
    def test_interrupted_grid_restart_zero_resolves_bit_identical(
        self, tmp_path
    ):
        """Acceptance: kill a grid run mid-flight, restart against the
        same sqlite store — finished cells replay (scenarios_executed
        counts only the interrupted remainder) and every row is
        bit-identical to an uninterrupted run."""
        from unittest import mock

        from repro.scenario import runner as runner_mod

        specs = fast_grid()
        reference = ScenarioRunner().run_many(specs)

        store_path = tmp_path / "o.sqlite"
        runner = ScenarioRunner(outcome_store=store_path)
        calls = 0
        real = runner_mod._run_in_worker

        def crash_on_third(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == 3:
                raise RuntimeError("host died")
            return real(*args, **kwargs)

        with mock.patch.object(
            runner_mod, "_run_in_worker", side_effect=crash_on_third
        ):
            with pytest.raises(RuntimeError):
                runner.run_many(specs)

        survivor = ScenarioRunner(outcome_store=store_path)
        outcomes = survivor.run_many(specs)
        assert survivor.outcomes_replayed == 2
        assert survivor.scenarios_executed == len(specs) - 2
        for fresh, replayed in zip(reference, outcomes):
            assert fresh.data_row() == replayed.data_row()

        # And a third pass is a full warm replay: zero re-solves.
        warm = ScenarioRunner(outcome_store=store_path)
        warm.run_many(specs)
        assert warm.scenarios_executed == 0
        assert warm.outcomes_replayed == len(specs)


class TestBackendSelection:
    def test_sqlite_url_and_suffixes(self, tmp_path):
        for name in ("sqlite:" + str(tmp_path / "a"), str(tmp_path / "b.sqlite"),
                     str(tmp_path / "c.sqlite3"), str(tmp_path / "d.db")):
            assert isinstance(open_outcome_store(name), SqliteOutcomeStore)

    def test_dir_url_and_plain_path(self, tmp_path):
        assert isinstance(
            open_outcome_store("dir:" + str(tmp_path / "s")),
            DirectoryOutcomeStore,
        )
        assert isinstance(
            open_outcome_store(tmp_path / "plain"), DirectoryOutcomeStore
        )

    def test_memory_url_and_none(self):
        assert isinstance(open_outcome_store("memory:"), MemoryOutcomeStore)
        assert open_outcome_store(None) is None

    def test_store_instance_passes_through(self, tmp_path):
        store = SqliteOutcomeStore(tmp_path / "o.sqlite")
        assert open_outcome_store(store) is store

    def test_sqlite_url_requires_path(self):
        with pytest.raises(OutcomeStoreError, match="missing a path"):
            open_outcome_store("sqlite:")

    def test_open_existing_rejects_missing(self, tmp_path):
        with pytest.raises(OutcomeStoreError, match="no such"):
            open_existing_store(tmp_path / "absent")
        with pytest.raises(OutcomeStoreError, match="no such"):
            open_existing_store(tmp_path / "absent.sqlite")

    def test_dir_url_forces_directory_backend_despite_suffix(self, tmp_path):
        """dir: overrides suffix detection (escape hatch for odd names)."""
        store = open_outcome_store("dir:" + str(tmp_path / "weird.db"))
        assert isinstance(store, DirectoryOutcomeStore)


def _rows(store) -> list[dict]:
    return [record.summary for record in store.records()]


class TestMigrateCommand:
    @pytest.fixture()
    def seeded_dir(self, tmp_path):
        """A directory store holding one executed fast grid."""
        store_dir = tmp_path / "src_store"
        ScenarioRunner(outcome_store=store_dir).run_many(fast_grid())
        return store_dir

    def test_round_trip_dir_sqlite_dir_is_lossless(
        self, seeded_dir, tmp_path, capsys
    ):
        db = tmp_path / "mid.sqlite"
        back = tmp_path / "back_store"
        assert main(["migrate", str(seeded_dir), str(db)]) == 0
        assert main(["migrate", str(db), str(back)]) == 0
        source = DirectoryOutcomeStore(seeded_dir)
        returned = DirectoryOutcomeStore(back)
        assert _rows(source) == _rows(returned)
        for a, b in zip(source.records(), returned.records()):
            assert a.same_content(b)
            assert a.provenance == b.provenance  # lossless, not just equal

    def test_migrate_json_reports_counts(self, seeded_dir, tmp_path, capsys):
        db = tmp_path / "mid.sqlite"
        assert main(["migrate", str(seeded_dir), str(db), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["copied"] == 8
        assert report["skipped"] == 0
        # Second run: everything already present.
        assert main(["migrate", str(seeded_dir), str(db), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["copied"] == 0
        assert report["skipped"] == 8
        assert report["destination_records"] == 8

    def test_migrate_missing_source_exits_2(self, tmp_path, capsys):
        code = main(
            ["migrate", str(tmp_path / "absent"), str(tmp_path / "o.sqlite")]
        )
        assert code == 2
        assert "no such" in capsys.readouterr().err

    def test_migrate_conflict_aborts(self, tmp_path, capsys):
        src = DirectoryOutcomeStore(tmp_path / "src")
        src.put(make_record(0, peak_c=80.0))
        dst = SqliteOutcomeStore(tmp_path / "dst.sqlite")
        dst.put(make_record(0, peak_c=99.0))
        code = main(["migrate", str(tmp_path / "src"),
                     str(tmp_path / "dst.sqlite")])
        assert code == 2
        assert "conflicting" in capsys.readouterr().err

    def test_migrate_usage_errors(self, tmp_path, capsys):
        assert main(["migrate"]) == 2
        assert "required: src, dst" in capsys.readouterr().err
        assert main(["migrate", "a", "b", "c"]) == 2

    def test_run_replays_warm_from_migrated_sqlite(
        self, seeded_dir, tmp_path, capsys
    ):
        """CLI acceptance: migrate dir -> sqlite, then protemp run
        --outcome-store sqlite:... replays every cell."""
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
            "grid": {"policy": ["no-tc", "basic-dfs"],
                     "workload": [
                         {"name": "poisson", "duration": 1.0,
                          "params": {"offered_load": 0.3}},
                         {"name": "compute", "duration": 1.0},
                     ],
                     "seed": [0, 1]},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        db = tmp_path / "warm.sqlite"
        assert main(["migrate", str(seeded_dir), str(db)]) == 0
        code = main([
            "run", str(config_path),
            "--outcome-store", f"sqlite:{db}", "--json",
        ])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 8
        assert all(row["outcome_cache_hit"] for row in rows)
