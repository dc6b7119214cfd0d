"""The benchmark's own arithmetic: tail rule, failure counts, spans.

Run from a checkout root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from harness.layers import layer_metrics  # noqa: E402
from harness.stats import (  # noqa: E402
    LatencySummary,
    Tally,
    best_pace,
    failure_kind,
    samples_beyond,
    store_hit_ratio,
    tail_percentile,
)
from harness.tracing import Span, Tracer, self_times  # noqa: E402
from repro.errors import ServiceError  # noqa: E402


class TestTailRule:
    @pytest.mark.parametrize("n, q", [(101, 90.0), (1001, 99.0), (201, 95.0)])
    def test_known_sample_counts(self, n, q):
        assert tail_percentile(n) == pytest.approx(q)

    @pytest.mark.parametrize("n", range(21, 400, 7))
    def test_exactly_ten_beyond_and_highest(self, n):
        q = tail_percentile(n)
        assert samples_beyond(n, q) == 10
        # Any higher percentile leaves fewer than ten beyond it.
        assert samples_beyond(n, q + 1e-6) < 10

    @pytest.mark.parametrize("n", [1, 2, 11, 20])
    def test_too_few_samples_fall_back_to_the_median(self, n):
        assert tail_percentile(n) == 50.0

    def test_summary_reports_value_percentile_and_count(self):
        summary = LatencySummary.of([float(v) for v in range(101, 0, -1)])
        assert summary.samples == 101
        assert summary.tail_percentile == pytest.approx(90.0)
        assert summary.tail == pytest.approx(91.0)
        assert summary.p50 == pytest.approx(51.0)


class TestBestPace:
    def test_one_key_takes_the_fast_end_not_the_slow_spell(self):
        # Ten 2-cell requests of 1 s; a slow spell stretches four of them.
        rounds = [(0, 2, 1.0)] * 6 + [(0, 2, 3.0)] * 4
        assert best_pace(rounds) == pytest.approx(2.0)

    def test_a_single_fast_outlier_does_not_set_the_pace(self):
        rounds = [(0, 1, 0.1)] + [(0, 1, 1.0)] * 19
        # p10 of 20 sorted samples sits at rank 1.9, past the outlier.
        assert best_pace(rounds) == pytest.approx(1.0)

    def test_keys_of_different_cost_add_up(self):
        # Key 0: 1 cell in 1 s; key 1: 3 cells in 2 s; one grid of both
        # takes 3 s for 4 cells, however often each key ran.
        rounds = [(0, 1, 1.0)] * 5 + [(1, 3, 2.0)] * 2
        assert best_pace(rounds) == pytest.approx(4 / 3)


class TestFailureCounting:
    def test_raised_refused_and_wrong_each_count_once(self):
        tally = Tally()
        tally.ok(3)
        tally.fail(failure_kind(RuntimeError("boom")), "boom")
        tally.fail(
            failure_kind(ServiceError("queue full", status=429, retry_after_s=0.1)),
            "queue full",
        )
        tally.reject("row differs")
        assert tally.attempted == 5
        assert tally.failures == {"raised": 1, "refused": 1, "wrong": 1}
        assert tally.failed == 3
        assert tally.failed_fraction == pytest.approx(3 / 5)

    def test_other_http_errors_count_as_raised(self):
        assert failure_kind(ServiceError("bad", status=500)) == "raised"
        assert failure_kind(ServiceError("unreachable")) == "raised"

    def test_reject_needs_a_counted_success(self):
        tally = Tally()
        tally.fail("raised", "x")
        with pytest.raises(ValueError):
            tally.reject("nothing left to reject")

    def test_unknown_kind_is_refused(self):
        with pytest.raises(ValueError):
            Tally().fail("timeout", "x")

    def test_no_attempts_is_no_failure(self):
        assert Tally().failed_fraction == 0.0


def _clock(ticks):
    values = iter(ticks)
    return lambda: next(values)


class TestSelfTime:
    def test_nested_spans(self):
        # root [0,10] > a [1,4] > leaf [2,3]; root > b [5,9]
        tracer = Tracer(clock=_clock([0, 1, 2, 3, 4, 5, 9, 10]))
        with tracer.span("root"):
            with tracer.span("a"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("b"):
                pass
        own = self_times(tracer.spans)
        by_name = {span.name: span for span in tracer.spans}
        assert by_name["a"].parent == by_name["root"].id
        assert by_name["leaf"].parent == by_name["a"].id
        assert own[by_name["root"].id] == pytest.approx(10 - 3 - 4)
        assert own[by_name["a"].id] == pytest.approx(2)
        assert own[by_name["leaf"].id] == pytest.approx(1)
        assert own[by_name["b"].id] == pytest.approx(4)

    def test_overlapping_children_are_not_subtracted_twice(self):
        spans = [
            Span(id=0, name="root", start=0.0, end=10.0),
            Span(id=1, name="c", start=1.0, end=5.0, parent=0),
            Span(id=2, name="c", start=3.0, end=7.0, parent=0),
            Span(id=3, name="c", start=9.0, end=12.0, parent=0),
        ]
        assert self_times(spans)[0] == pytest.approx(10 - 6 - 1)

    def test_parents_are_per_thread(self):
        tracer = Tracer()

        def other_thread() -> None:
            with tracer.span("other"):
                pass

        with tracer.span("main"):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join(timeout=5)
        assert not worker.is_alive()
        other = next(s for s in tracer.spans if s.name == "other")
        assert other.parent is None

    def test_sim_self_time_excludes_decide(self):
        spans = [
            Span(id=0, name="sim.run", start=0.0, end=1.0, attrs={"steps": 1000}),
            Span(
                id=1,
                name="control.decide",
                start=0.1,
                end=0.3,
                parent=0,
                attrs={"policy": "mpc"},
            ),
        ]
        metrics = layer_metrics(spans)
        assert metrics["sim.run_s"] == pytest.approx(1.0)
        assert metrics["sim.self_s"] == pytest.approx(0.8)
        assert metrics["sim.us_per_step"] == pytest.approx(800.0)
        assert metrics["control.decide_calls.mpc"] == 1
        assert metrics["control.decide_us.mpc"] == pytest.approx(2e5)


class TestStoreHitRatio:
    def test_gets_inside_puts_are_not_lookups(self):
        # 3 hits and 2 misses looked up; 2 duplicate checks inside puts.
        entries = [(True, False)] * 3 + [(False, False)] * 2 + [(False, True)] * 2
        assert store_hit_ratio(entries) == pytest.approx(3 / 5)

    def test_no_lookups(self):
        assert store_hit_ratio([]) == 0.0
        assert store_hit_ratio([(False, True)]) == 0.0

    def test_from_spans(self):
        spans = [
            Span(id=0, name="scenario.store_get", start=0, end=1, attrs={"hit": True}),
            Span(id=1, name="scenario.store_get", start=1, end=2, attrs={"hit": False}),
            Span(id=2, name="scenario.store_put", start=2, end=4),
            Span(
                id=3,
                name="scenario.store_get",
                start=2.5,
                end=3,
                parent=2,
                attrs={"hit": False},
            ),
        ]
        metrics = layer_metrics(spans)
        assert metrics["scenario.store_get_calls"] == 3
        assert metrics["scenario.store_put_calls"] == 1
        assert metrics["scenario.store_hit_ratio"] == pytest.approx(0.5)
        assert metrics["scenario.store_put_self_s"] == pytest.approx(1.5)
