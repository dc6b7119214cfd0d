"""Outcome store: round-trips, sharding, runner replay, merge semantics.

Covers the ISSUE 4 acceptance criteria directly: a sharded run merged back
together is bit-identical (summary rows) to the unsharded run, and a second
full run over a warm store performs zero scenario solves and zero table
builds.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import OutcomeStoreError, ScenarioError
from repro.scenario import (
    DirectoryOutcomeStore,
    MemoryOutcomeStore,
    PlatformSpec,
    PolicySpec,
    ScenarioRunner,
    ScenarioSpec,
    StoredOutcome,
    WorkloadSpec,
    merge_stores,
    open_outcome_store,
    shard_of,
    shard_specs,
    union_records,
)

ROW3 = PlatformSpec("core-row", {"n_cores": 3})

#: Tiny Phase-1 table config so protemp scenarios are cheap to solve.
PROTEMP_SMALL = PolicySpec(
    "protemp",
    {"t_grid": [80.0, 100.0], "f_grid": [3e8, 6e8], "step_subsample": 20},
)


def fast_grid(n_seeds: int = 2) -> list[ScenarioSpec]:
    """A cheap 2 x 2 x n grid on the 3-core row platform (no tables)."""
    return ScenarioSpec.grid(
        ScenarioSpec(platform=ROW3, t_initial=60.0),
        policy=["no-tc", "basic-dfs"],
        workload=[
            WorkloadSpec("poisson", 1.0, {"offered_load": 0.3}),
            WorkloadSpec("compute", 1.0),
        ],
        seed=range(n_seeds),
    )


def make_record(seed: int = 0, **summary_overrides) -> StoredOutcome:
    """A valid record for a synthetic spec (no simulation needed)."""
    spec = ScenarioSpec(platform=ROW3, seed=seed)
    summary = {
        "scenario": spec.label,
        "spec_hash": spec.spec_hash,
        "policy": "No-TC",
        "peak_c": 81.25,
        "violation_fraction": 0.0,
        "completed_tasks": 10,
        "arrived_tasks": 12,
        "mean_wait_s": 0.004,
        **summary_overrides,
    }
    return StoredOutcome(
        spec_hash=spec.spec_hash,
        spec=spec.to_dict(),
        summary=summary,
        provenance={"solve_wall_time_s": 0.5, "table_cache_hit": None},
    )


@pytest.fixture(params=["memory", "directory", "sqlite"])
def store(request, tmp_path):
    """All three backends behind the one OutcomeStore interface."""
    if request.param == "memory":
        return MemoryOutcomeStore()
    if request.param == "sqlite":
        from repro.scenario import SqliteOutcomeStore

        return SqliteOutcomeStore(tmp_path / "store.sqlite")
    return DirectoryOutcomeStore(tmp_path / "store")


class TestStoreBackends:
    def test_put_get_round_trip(self, store):
        record = make_record()
        assert store.get(record.spec_hash) is None
        assert record.spec_hash not in store
        store.put(record)
        loaded = store.get(record.spec_hash)
        assert loaded.spec == record.spec
        assert loaded.summary == record.summary
        assert record.spec_hash in store
        assert len(store) == 1

    def test_put_is_idempotent(self, store):
        record = make_record()
        store.put(record)
        store.put(record)
        assert len(store) == 1

    def test_benign_duplicate_keeps_first(self, store):
        """Same spec + summary with different provenance is not a conflict
        (two shards that both computed a cell differ only in wall times)."""
        record = make_record()
        later = StoredOutcome(
            spec_hash=record.spec_hash,
            spec=record.spec,
            summary=record.summary,
            provenance={"solve_wall_time_s": 99.0},
        )
        store.put(record)
        store.put(later)
        assert (
            store.get(record.spec_hash).provenance["solve_wall_time_s"] == 0.5
        )

    def test_conflicting_summary_rejected(self, store):
        store.put(make_record())
        with pytest.raises(OutcomeStoreError, match="conflicting duplicate"):
            store.put(make_record(peak_c=99.0))

    def test_hash_collision_rejected(self, store):
        """Two different specs under one key must fail loudly."""
        record = make_record(seed=0)
        imposter = StoredOutcome(
            spec_hash=record.spec_hash,  # forged key
            spec=ScenarioSpec(platform=ROW3, seed=1).to_dict(),
            summary=record.summary,
        )
        store.put(record)
        with pytest.raises(OutcomeStoreError, match="collision"):
            store.put(imposter)

    def test_records_iterates_everything(self, store):
        records = [make_record(seed=s) for s in range(3)]
        for record in records:
            store.put(record)
        loaded = {r.spec_hash for r in store.records()}
        assert loaded == {r.spec_hash for r in records}

    @given(
        peak=st.floats(allow_nan=False, allow_infinity=False),
        wait=st.floats(allow_nan=False, allow_infinity=False),
        bands=st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=4,
            max_size=4,
        ),
        done=st.integers(min_value=0, max_value=10**9),
    )
    def test_summary_rows_round_trip_bit_identical(
        self, peak, wait, bands, done
    ):
        """Property: write -> read returns the summary row bit-identically
        (floats survive the JSON-lines encoding exactly)."""
        import tempfile

        record = make_record(
            peak_c=peak,
            mean_wait_s=wait,
            band_fractions=bands,
            completed_tasks=done,
        )
        with tempfile.TemporaryDirectory() as tmp:
            DirectoryOutcomeStore(tmp).put(record)
            loaded = DirectoryOutcomeStore(tmp).get(record.spec_hash)
        assert loaded.summary == record.summary

    def test_corrupt_record_detected_on_read(self, tmp_path):
        store = DirectoryOutcomeStore(tmp_path)
        record = make_record()
        store.put(record)
        path = next(tmp_path.glob("outcome_*.jsonl"))
        payload = json.loads(path.read_text())
        payload["spec"]["seed"] = 12345  # spec no longer hashes to the key
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(OutcomeStoreError, match="corrupt"):
            store.get(record.spec_hash)

    def test_record_pinning_unknown_preset_does_not_parse(self, tmp_path):
        """A row stored under an unknown (e.g. since deleted) sweep preset
        is reported as unparseable, never replayed as if a surviving
        preset built it."""
        store = DirectoryOutcomeStore(tmp_path)
        record = make_record()
        store.put(record)
        path = next(tmp_path.glob("outcome_*.jsonl"))
        payload = json.loads(path.read_text())
        payload["spec"]["policy"]["params"]["strategy"] = "turbo"
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(OutcomeStoreError, match="does not parse"):
            store.get(record.spec_hash)

    def test_unparseable_record_reported_with_path(self, tmp_path):
        store = DirectoryOutcomeStore(tmp_path)
        (tmp_path / "outcome_deadbeefdead.jsonl").write_text("{not json\n")
        with pytest.raises(OutcomeStoreError, match="unreadable"):
            store.get("deadbeefdead")

    def test_open_outcome_store_coercions(self, tmp_path):
        assert open_outcome_store(None) is None
        memory = MemoryOutcomeStore()
        assert open_outcome_store(memory) is memory
        opened = open_outcome_store(tmp_path / "dir")
        assert isinstance(opened, DirectoryOutcomeStore)
        with pytest.raises(OutcomeStoreError):
            open_outcome_store(42)


class TestSharding:
    def test_shards_partition_the_grid(self):
        specs = fast_grid()
        assert len(specs) == 8
        shards = [shard_specs(specs, i, 3) for i in range(3)]
        rejoined = [spec for shard in shards for spec in shard]
        assert sorted(s.spec_hash for s in rejoined) == sorted(
            s.spec_hash for s in specs
        )
        assert sum(len(s) for s in shards) == len(specs)  # disjoint

    def test_shard_assignment_is_deterministic(self):
        for spec in fast_grid():
            assert shard_of(spec, 4) == shard_of(spec, 4)
            assert 0 <= shard_of(spec, 4) < 4

    def test_grid_shard_kwargs(self):
        full = fast_grid()
        shard0 = ScenarioSpec.grid(
            ScenarioSpec(platform=ROW3, t_initial=60.0),
            shard_index=0,
            shard_count=2,
            policy=["no-tc", "basic-dfs"],
            workload=[
                WorkloadSpec("poisson", 1.0, {"offered_load": 0.3}),
                WorkloadSpec("compute", 1.0),
            ],
            seed=range(2),
        )
        assert shard0 == shard_specs(full, 0, 2)

    def test_invalid_shard_requests(self):
        specs = fast_grid()
        with pytest.raises(ScenarioError, match="together"):
            shard_specs(specs, 0, None)
        with pytest.raises(ScenarioError, match="shard_count"):
            shard_specs(specs, 0, 0)
        with pytest.raises(ScenarioError, match="shard_index"):
            shard_specs(specs, 2, 2)
        with pytest.raises(ScenarioError):
            shard_of(specs[0], 0)


class TestRunnerStoreIntegration:
    def test_warm_store_performs_zero_scenario_solves(self, tmp_path):
        """Acceptance: a second full run over a warm store executes nothing
        — zero simulations AND zero table builds (protemp included)."""
        specs = fast_grid() + ScenarioSpec.grid(
            ScenarioSpec(
                platform=ROW3,
                workload=WorkloadSpec("compute", 1.0),
                policy=PROTEMP_SMALL,
                t_initial=60.0,
            ),
            seed=range(2),
        )
        cold = ScenarioRunner(outcome_store=tmp_path / "store")
        first = cold.run_many(specs)
        assert cold.scenarios_executed == len(specs)
        assert cold.tables_built == 1

        warm = ScenarioRunner(outcome_store=tmp_path / "store")
        second = warm.run_many(specs)
        assert warm.scenarios_executed == 0
        assert warm.outcomes_replayed == len(specs)
        assert warm.tables_built == 0
        for a, b in zip(first, second):
            assert a.data_row() == b.data_row()
            assert b.outcome_cache_hit and not a.outcome_cache_hit

    def test_shard_union_equals_unsharded_run(self, tmp_path):
        """Acceptance: 2 shards with separate stores, merged, produce the
        same summary rows as the unsharded run — bit-identical."""
        specs = fast_grid()
        unsharded = ScenarioRunner().run_many(specs)
        stores = []
        for index in range(2):
            store_dir = tmp_path / f"shard{index}"
            runner = ScenarioRunner(outcome_store=store_dir)
            runner.run_many(shard_specs(specs, index, 2))
            stores.append(DirectoryOutcomeStore(store_dir))
        merged = merge_stores(stores)
        expected = sorted(
            (o.data_row() for o in unsharded), key=lambda r: r["spec_hash"]
        )
        assert merged.summary_rows() == expected

    def test_parallel_run_with_shared_store(self, tmp_path):
        """Concurrent-ish usage: parallel workers + one store directory
        match the serial, storeless run bit-identically."""
        specs = fast_grid()
        serial = ScenarioRunner().run_many(specs)
        parallel = ScenarioRunner(
            n_workers=3, outcome_store=tmp_path / "store"
        ).run_many(specs)
        for a, b in zip(serial, parallel):
            assert a.data_row() == b.data_row()

    def test_memory_store_instance_accepted(self):
        store = MemoryOutcomeStore()
        spec = fast_grid()[0]
        ScenarioRunner(outcome_store=store).run(spec)
        replay = ScenarioRunner(outcome_store=store).run(spec)
        assert replay.outcome_cache_hit
        assert len(store) == 1

    def test_collision_in_store_raises_on_lookup(self):
        store = MemoryOutcomeStore()
        spec_a, spec_b = fast_grid()[:2]
        executed = ScenarioRunner(outcome_store=store).run(spec_a)
        # Forge a record for spec_b under spec_a's key.
        store._records[spec_b.spec_hash] = StoredOutcome(
            spec_hash=spec_b.spec_hash,
            spec=spec_a.to_dict(),
            summary=executed.data_row(),
        )
        with pytest.raises(OutcomeStoreError, match="collision"):
            ScenarioRunner(outcome_store=store).run(spec_b)

    def test_outcomes_persist_incrementally(self, tmp_path):
        """Each finished scenario is written back immediately, so an
        interrupted grid run keeps (and can replay) the completed cells."""
        from unittest import mock

        from repro.scenario import runner as runner_mod

        specs = fast_grid()
        runner = ScenarioRunner(outcome_store=tmp_path / "store")
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
        # The two cells that finished before the crash are in the store...
        survivor = ScenarioRunner(outcome_store=tmp_path / "store")
        outcomes = survivor.run_many(specs)
        assert survivor.outcomes_replayed == 2
        assert survivor.scenarios_executed == len(specs) - 2
        assert len(outcomes) == len(specs)

    def test_store_path_clashing_with_file_reports_cleanly(self, tmp_path):
        """--outcome-store pointing at an existing *file* must raise
        OutcomeStoreError (caught by the CLI), not a bare OSError."""
        clash = tmp_path / "notes.txt"
        clash.write_text("not a store\n")
        runner = ScenarioRunner(outcome_store=clash)
        with pytest.raises(OutcomeStoreError, match="writable directory"):
            runner.run(fast_grid()[0])

    def test_partial_store_executes_only_misses(self, tmp_path):
        specs = fast_grid()
        half = shard_specs(specs, 0, 2)
        first = ScenarioRunner(outcome_store=tmp_path / "store")
        first.run_many(half)
        second = ScenarioRunner(outcome_store=tmp_path / "store")
        outcomes = second.run_many(specs)
        assert second.outcomes_replayed == len(half)
        assert second.scenarios_executed == len(specs) - len(half)
        assert [o.spec for o in outcomes] == specs  # order preserved


class TestMerge:
    def test_duplicates_are_dropped_and_counted(self):
        a, b = MemoryOutcomeStore(), MemoryOutcomeStore()
        record = make_record()
        a.put(record)
        b.put(record)
        b.put(make_record(seed=1))
        merged = merge_stores([a, b])
        assert len(merged.records) == 2
        assert merged.duplicates == 1
        assert merged.sources == 3

    def test_merge_detects_conflicting_duplicates(self):
        a, b = MemoryOutcomeStore(), MemoryOutcomeStore()
        a.put(make_record())
        b.put(make_record(peak_c=123.0))
        with pytest.raises(OutcomeStoreError, match="conflicting duplicate"):
            merge_stores([a, b])

    def test_merge_detects_hash_collisions(self):
        a, b = MemoryOutcomeStore(), MemoryOutcomeStore()
        record = make_record(seed=0)
        a.put(record)
        b.put(record)
        # Same key, different spec, in a third store.
        c = MemoryOutcomeStore()
        c._records[record.spec_hash] = StoredOutcome(
            spec_hash=record.spec_hash,
            spec=ScenarioSpec(platform=ROW3, seed=7).to_dict(),
            summary=record.summary,
        )
        with pytest.raises(OutcomeStoreError, match="collision"):
            merge_stores([a, b, c])

    def test_union_records_orders_by_spec_hash(self):
        records = [make_record(seed=s) for s in range(5)]
        merged = union_records(reversed(records))
        hashes = [r.spec_hash for r in merged.records]
        assert hashes == sorted(hashes)

    def test_merged_store_reads_multi_record_jsonl_files(self, tmp_path):
        """A hand-concatenated JSON-lines file (e.g. rsync'd shard dumps)
        is still understood by records()/merge."""
        records = [make_record(seed=s) for s in range(3)]
        blob = "\n".join(r.to_json_line() for r in records) + "\n"
        (tmp_path / "combined.jsonl").write_text(blob)
        merged = merge_stores([DirectoryOutcomeStore(tmp_path)])
        assert len(merged.records) == 3

    def test_concatenated_store_answers_lookups(self, tmp_path):
        """Records in a foreign multi-record file are visible to get()
        and to put()'s conflict check, not just to records()."""
        records = [make_record(seed=s) for s in range(3)]
        blob = "\n".join(r.to_json_line() for r in records) + "\n"
        (tmp_path / "all.jsonl").write_text(blob)
        store = DirectoryOutcomeStore(tmp_path)
        assert store.get(records[0].spec_hash).summary == records[0].summary
        assert records[1].spec_hash in store
        # put of a conflicting record must see the concatenated copy.
        with pytest.raises(OutcomeStoreError, match="conflicting duplicate"):
            store.put(make_record(seed=0, peak_c=999.0))
        # put of a same-content record stays a no-op (no per-hash file).
        store.put(records[0])
        assert not list(tmp_path.glob(f"outcome_{records[0].spec_hash}*"))

    def test_concatenated_store_warm_replays_a_grid(self, tmp_path):
        """The docs/SCALING.md 'collect shards by concatenation' flow:
        a store assembled from one big .jsonl replays every cell."""
        specs = fast_grid()
        producer = ScenarioRunner(outcome_store=tmp_path / "orig")
        producer.run_many(specs)
        blob = "".join(
            r.to_json_line() + "\n"
            for r in DirectoryOutcomeStore(tmp_path / "orig").records()
        )
        (tmp_path / "collected").mkdir()
        (tmp_path / "collected" / "all.jsonl").write_text(blob)
        warm = ScenarioRunner(outcome_store=tmp_path / "collected")
        warm.run_many(specs)
        assert warm.scenarios_executed == 0
        assert warm.outcomes_replayed == len(specs)


class TestExperimentReplay:
    def test_band_comparison_replays_from_store(self, niagara, coarse_table):
        """Figure reducers replay from a store: the second call simulates
        nothing (no puts, only hits) and reproduces the figure exactly."""
        from repro.analysis.experiments import run_band_comparison

        class CountingStore(MemoryOutcomeStore):
            def __init__(self):
                super().__init__()
                self.puts = 0

            def put(self, record):
                self.puts += 1
                super().put(record)

        store = CountingStore()
        live = run_band_comparison(
            "compute",
            duration=2.0,
            platform=niagara,
            table=coarse_table,
            outcome_store=store,
        )
        assert store.puts == 3  # No-TC, Basic-DFS, Pro-Temp
        store.puts = 0
        replayed = run_band_comparison(
            "compute",
            duration=2.0,
            platform=niagara,
            table=coarse_table,
            outcome_store=store,
        )
        assert store.puts == 0  # nothing re-simulated
        assert set(replayed.fractions) == set(live.fractions)
        for name in live.fractions:
            assert list(replayed.fractions[name]) == list(live.fractions[name])
            assert replayed.waiting[name] == live.waiting[name]

    def test_fully_warm_figure_skips_the_table_build(self, niagara, coarse_table):
        """With every cell in the store, a figure reducer in a fresh
        process must not pay the Phase-1 build: a replay never resolves
        a table, so the figure's runner builds none."""
        from unittest import mock

        from repro.analysis import experiments as experiments_mod
        from repro.analysis.experiments import run_waiting_comparison

        store = MemoryOutcomeStore()
        live = run_waiting_comparison(
            duration=2.0,
            platform=niagara,
            table=coarse_table,
            outcome_store=store,
        )
        runners: list[ScenarioRunner] = []

        def recording_runner(**kwargs):
            runners.append(ScenarioRunner(**kwargs))
            return runners[-1]

        # Replay without a table: the runner would have to build one.
        with mock.patch.object(
            experiments_mod, "ScenarioRunner", side_effect=recording_runner
        ):
            replayed = run_waiting_comparison(
                duration=2.0, platform=niagara, outcome_store=store
            )
        assert len(runners) == 1
        assert runners[0].tables_built == 0
        assert runners[0].scenarios_executed == 0
        assert replayed.basic_wait == live.basic_wait
        assert replayed.protemp_wait == live.protemp_wait

    def test_timeseries_figures_refuse_replayed_outcomes(self):
        spec = fast_grid()[0]
        store = MemoryOutcomeStore()
        ScenarioRunner(outcome_store=store).run(spec)
        replay = ScenarioRunner(outcome_store=store).run(spec)
        with pytest.raises(ScenarioError, match="summary rows only"):
            replay.require_result()
