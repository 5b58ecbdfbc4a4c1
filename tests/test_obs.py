"""Tests for the observability layer (repro.obs): scheduler-decision
audit trail, per-operator profiling, streaming exporters, run reports,
and the documented JSON schemas."""

import dataclasses
import json
import math
import tracemalloc
from collections import Counter

import pytest

from repro.core.baselines import (
    DefaultScheduler,
    FCFSScheduler,
    HighestRateScheduler,
    RoundRobinScheduler,
    StreamBoxScheduler,
)
from repro.core.classes import ClassBasedScheduler
from repro.core.klink import KlinkScheduler
from repro.core.scheduler import Allocation, Decisions, Plan, Scheduler, SchedulerContext
from repro.obs import (
    AuditLog,
    KNOWN_REASONS,
    OperatorProfiler,
    QueryDecision,
    Trace,
    TraceWriter,
    build_report,
    dumps_line,
    jsonify,
    read_trace,
    render_text,
)
from repro.obs.export import JsonlWriter
from repro.obs.schema import (
    CYCLE_SCHEMA,
    SchemaError,
    validate_cycle,
    validate_operator,
    validate_report,
)
from repro.net.delays import ConstantDelay
from repro.spe.engine import Engine
from repro.spe.memory import GIB, MemoryConfig
from repro.spe.operators import MapOperator, SinkOperator
from repro.spe.query import Query, SourceBinding, SourceSpec, chain
from repro.distributed import DistributedEngine, PhysicalPlan
from repro.workloads import WorkloadParams, build_queries
from repro.spe.engine import NodeCycle
from tests.helpers import cycle_event, make_simple_query


def run_audited(scheduler, *, n_queries=3, duration=6_000.0, seed=1,
                max_rows=50_000, stream=None, profiler=None):
    queries = [
        make_simple_query(f"q{i}", rate_eps=500.0, seed=seed + i)
        for i in range(n_queries)
    ]
    audit = AuditLog(max_rows=max_rows, stream=stream)
    engine = Engine(queries, scheduler, cores=4, cycle_ms=100.0,
                    seed=seed, audit=audit, profiler=profiler)
    metrics = engine.run(duration)
    return audit, metrics, queries


ALL_POLICIES = [
    KlinkScheduler,
    DefaultScheduler,
    FCFSScheduler,
    RoundRobinScheduler,
    HighestRateScheduler,
    StreamBoxScheduler,
]


class TestDecisionExplainers:
    @pytest.mark.parametrize("factory", ALL_POLICIES)
    def test_every_policy_explains_its_plan(self, factory):
        audit, _, _ = run_audited(factory())
        assert len(audit) > 0
        for record in audit.rows:
            ranks = [d.rank for d in record.decisions]
            assert ranks == list(range(len(ranks)))
            for d in record.decisions:
                assert d.reason in KNOWN_REASONS

    @pytest.mark.parametrize("factory", ALL_POLICIES)
    def test_policies_are_schedulers(self, factory):
        """Every shipped policy explains through ``Scheduler.explain_plan``
        (its own override or the base's reason-and-score columns)."""
        assert isinstance(factory(), Scheduler)

    def test_klink_reports_slack_and_delay_moments(self):
        audit, _, _ = run_audited(KlinkScheduler())
        late = audit.rows[-1]  # estimator warmed up by the last cycle
        slacks = [d.slack_ms for d in late.decisions]
        assert any(s is not None for s in slacks)
        assert any(d.swm_delay_mean_ms is not None for d in late.decisions)
        # least-slack order: finite slack values are non-decreasing by rank
        finite = [s for s in slacks if s is not None]
        assert finite == sorted(finite)

    def test_default_reports_processor_share(self):
        audit, _, _ = run_audited(DefaultScheduler())
        assert set(audit.reason_counts()) == {"processor-share"}

    def test_fcfs_score_is_arrival_time(self):
        audit, _, _ = run_audited(FCFSScheduler())
        scored = [
            d.score
            for record in audit.rows
            for d in record.decisions
            if d.score is not None
        ]
        assert scored, "FCFS should expose oldest-arrival scores"
        assert all(s >= 0 for s in scored)

    def test_class_based_reranks_inner_decisions(self):
        inner = FCFSScheduler()
        scheduler = ClassBasedScheduler(inner, {"q0": 1, "q1": 0, "q2": 0})
        audit, _, _ = run_audited(scheduler)
        for record in audit.rows:
            ids = [d.query_id for d in record.decisions]
            if "q0" in ids:
                # class 1 always runs after the class-0 queries
                assert ids.index("q0") == len(ids) - 1
            assert [d.rank for d in record.decisions] == list(range(len(ids)))

    def test_klink_memory_mode_reasons(self):
        q = make_simple_query("q0")
        scheduler = KlinkScheduler()
        scheduler._mm_active = True
        ctx = SchedulerContext(now=0.0, cycle_ms=100.0, cores=2, queries=[q])
        prefix_plan = Plan([Allocation(q, [q.operators[0]])], mode="priority")
        full_plan = Plan([Allocation(q)], mode="priority")
        assert scheduler.explain_plan(ctx, prefix_plan).reasons[0] == "memory-release"
        assert scheduler.explain_plan(ctx, full_plan).reasons[0] == "memory-mode-full"


class TestAuditLog:
    def test_rejects_bad_max_rows(self):
        with pytest.raises(ValueError):
            AuditLog(max_rows=0)

    def test_eviction_keeps_memory_bounded(self):
        audit, _, _ = run_audited(DefaultScheduler(), max_rows=5)
        assert len(audit) == 5
        assert audit.records_seen > 5
        # retained rows are the most recent ones
        cycles = [r.cycle for r in audit.rows]
        assert cycles == sorted(cycles)
        assert cycles[-1] == audit.records_seen - 1

    def test_stream_sees_evicted_records(self):
        collected = []

        class Collector:
            def write(self, row):
                collected.append(row)

        audit, _, _ = run_audited(
            DefaultScheduler(), max_rows=2, stream=Collector()
        )
        assert len(collected) == audit.records_seen > 2

    def test_seeded_reruns_are_byte_identical(self):
        first, _, _ = run_audited(KlinkScheduler(), seed=7)
        second, _, _ = run_audited(KlinkScheduler(), seed=7)
        a, b = first.to_jsonl_str(), second.to_jsonl_str()
        assert a and a == b

    def test_different_configs_differ(self):
        def run(delay_ms):
            q = make_simple_query("q0", rate_eps=500.0, delay_ms=delay_ms)
            audit = AuditLog()
            Engine([q], KlinkScheduler(), cores=4, cycle_ms=100.0,
                   seed=1, audit=audit).run(6_000.0)
            return audit.to_jsonl_str()

        assert run(0.0) != run(200.0)

    def test_jsonl_rows_validate_against_cycle_schema(self, tmp_path):
        audit, _, _ = run_audited(KlinkScheduler())
        path = tmp_path / "audit.jsonl"
        audit.to_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == len(audit)
        for line in lines:
            validate_cycle(json.loads(line))

    def test_head_query_counts_sum_to_rows(self):
        audit, _, _ = run_audited(KlinkScheduler())
        assert sum(audit.head_query_counts().values()) == len(audit)

    @staticmethod
    def _feed_flags(audit, flags, throttles=None):
        """Drive on_cycle with (backpressured, throttled) flag sequences."""

        class Stub:
            name = "stub"

            def plan(self, ctx):  # pragma: no cover
                raise NotImplementedError

        q = make_simple_query("q0")
        ctx = SchedulerContext(now=0.0, cycle_ms=100.0, cores=1, queries=[q])
        throttles = throttles or [False] * len(flags)
        for i, (bp, thr) in enumerate(zip(flags, throttles)):
            plan = Plan([Allocation(q)], throttle_ingestion=thr)
            audit.on_cycle(cycle_event(
                now=float(i * 100), cycle=i, ctx=ctx, backpressured=bp,
                nodes=[NodeCycle(0, Stub(), plan, Decisions(), 0.0, 0.0)],
            ))
        return audit

    def test_mode_episodes_from_flags(self):
        audit = self._feed_flags(
            AuditLog(max_rows=10), [False, True, True, False]
        )
        assert audit.mode_episodes() == [(100.0, 200.0, "backpressure")]

    def test_mode_episode_open_at_end_of_run_is_closed(self):
        """An episode still active at the last retained record must be
        emitted, closed at that record's time (not silently dropped)."""
        audit = self._feed_flags(
            AuditLog(max_rows=10), [False, True, True]
        )
        assert audit.mode_episodes() == [(100.0, 200.0, "backpressure")]
        # degenerate single-cycle episode at the very end
        audit = self._feed_flags(AuditLog(max_rows=10), [False, False, True])
        assert audit.mode_episodes() == [(200.0, 200.0, "backpressure")]

    def test_mode_episodes_overlapping_kinds_are_separate_spans(self):
        audit = self._feed_flags(
            AuditLog(max_rows=10),
            [False, True, True, False],
            throttles=[False, False, True, True],
        )
        assert audit.mode_episodes() == [
            (100.0, 200.0, "backpressure"),
            (200.0, 300.0, "throttle"),
        ]

    def test_mode_episodes_after_max_rows_eviction(self):
        """With max_rows smaller than the run, episodes are computed over
        the retained window only: an episode whose start was evicted is
        reported from the earliest retained record, and a disk stream
        attached to the log still sees every record."""
        rows = []

        class ListStream:
            def write(self, row):
                rows.append(row)

        flags = [True, True, False, False, True, True]
        audit = self._feed_flags(
            AuditLog(max_rows=3, stream=ListStream()), flags
        )
        assert len(audit) == 3  # memory stays bounded
        assert audit.records_seen == len(flags)
        assert len(rows) == len(flags)  # stream kept the evicted records
        # retained window is cycles 3..5 -> only the trailing episode,
        # closed at the final retained record
        assert audit.mode_episodes() == [(400.0, 500.0, "backpressure")]
        # a full-history log over the same flags sees the evicted episode
        full = self._feed_flags(AuditLog(max_rows=50), flags)
        assert full.mode_episodes() == [
            (0.0, 100.0, "backpressure"),
            (400.0, 500.0, "backpressure"),
        ]


def audited_run(duration=5_000.0, audit=None, **engine_kw):
    """One simple query under Klink on a 100 ms cycle, audited."""
    # NB: `audit or AuditLog()` would discard an empty log, whose
    # __len__ makes it falsy.
    audit = audit if audit is not None else AuditLog()
    Engine([make_simple_query()], KlinkScheduler(), cores=4, cycle_ms=100.0,
           audit=audit, **engine_kw).run(duration)
    return audit


class TestAuditRows:
    """The audit row is the per-cycle record: one row per cycle on one
    node, bounded oldest-first, exported as JSON lines."""

    def test_one_row_per_cycle(self):
        assert len(audited_run(duration=5_000.0)) == 50

    def test_rows_carry_clock_and_plan(self):
        row = audited_run().last()
        assert row.time == pytest.approx(5_000.0)
        assert row.mode == "priority"
        assert row.head().query_id == "q0"

    def test_empty_log_last_is_none(self):
        assert AuditLog().last() is None

    def test_eviction_is_oldest_first(self):
        audit = audited_run(audit=AuditLog(max_rows=7))  # 50 cycles offered
        assert len(audit) == 7
        times = [row.time for row in audit.rows]
        # exactly the newest 7 cycles, still in chronological order
        assert times == [4_400.0 + 100.0 * i for i in range(7)]

    def test_single_row_buffer_keeps_newest(self):
        audit = audited_run(duration=3_000.0, audit=AuditLog(max_rows=1))
        assert len(audit) == 1
        assert audit.last().time == pytest.approx(3_000.0)

    def test_to_jsonl_round_trip(self, tmp_path):
        audit = audited_run(duration=3_000.0, audit=AuditLog(max_rows=5))
        path = tmp_path / "audit.jsonl"
        audit.to_jsonl(str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows == [json.loads(dumps_line(r.to_dict())) for r in audit.rows]
        for parsed, kept in zip(rows, audit.rows):
            assert parsed["time"] == kept.time
            assert parsed["mode"] == kept.mode
            assert parsed["decisions"][0]["query_id"] == kept.head().query_id
        assert list(rows[0]) == list(CYCLE_SCHEMA)


def make_stateless_query(query_id, *, seed=0):
    """source -> map -> sink: no window operator, hence no deadline."""
    spec = SourceSpec(
        name=f"{query_id}.src",
        rate_eps=500.0,
        watermark_period_ms=500.0,
        lateness_ms=0.0,
        delay_model=ConstantDelay(0.0),
    )
    parse = MapOperator(f"{query_id}.map", 0.01)
    sink = SinkOperator(f"{query_id}.sink")
    binding = SourceBinding(spec, parse, seed=seed)
    return Query(query_id, [binding], chain(parse, sink), sink)


def mixed_queries():
    """Windowed queries behind unequal network delays, contended enough to
    leave ingested SWMs queued, beside a window-free query."""
    return [
        make_simple_query(
            f"q{i}", rate_eps=6_000.0, cost_ms=0.05,
            delay_ms=100.0 * i, seed=i,
        )
        for i in range(3)
    ] + [make_stateless_query("s0", seed=9)]


#: small enough for the mixed workload to push Klink into memory mode
MIXED_MEMORY = MemoryConfig(capacity_bytes=1_000_000.0)


def klink_with_mm():
    """Klink that enters memory management on the mixed workload."""
    return KlinkScheduler(memory_threshold=0.05, mm_max_ms=500.0)


def run_explained(scheduler, *, max_rows=50_000, duration=8_000.0):
    """Audited run of :func:`mixed_queries`: the log, every
    :class:`Decisions` the policy's ``explain_plan`` returned, and every
    line the log streamed."""
    explained = []
    explain = scheduler.explain_plan

    def recording(ctx, plan):
        decisions = explain(ctx, plan)
        explained.append(decisions)
        return decisions

    scheduler.explain_plan = recording
    lines = []

    class Lines:
        def write(self, row):
            lines.append(dumps_line(row))

    audit = AuditLog(max_rows=max_rows, stream=Lines())
    Engine(mixed_queries(), scheduler, cores=2, cycle_ms=100.0, seed=3,
           memory=MIXED_MEMORY, audit=audit).run(duration)
    return audit, explained, lines


def rows_of(decisions):
    """The :class:`QueryDecision` rows a :class:`Decisions` stands for:
    one per position, with the position as the rank."""
    ids, reasons, *columns = decisions
    assert all(len(c) == len(ids) for c in (reasons, *columns))
    return [
        QueryDecision(query_id, rank, reason, *values)
        for rank, (query_id, reason, *values) in enumerate(zip(ids, reasons, *columns))
    ]


def assert_same_decisions(actual, expected):
    """Field by field, types included: ``None`` stays ``None``, an int
    stays an int, and ``-0.0`` keeps its sign."""
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert type(a) is QueryDecision
        for f in dataclasses.fields(QueryDecision):
            x, y = getattr(a, f.name), getattr(e, f.name)
            assert type(x) is type(y), (f.name, x, y)
            if isinstance(y, float) and math.isnan(y):
                assert math.isnan(x), (f.name, x)
            else:
                assert x == y, (f.name, x, y)
                if isinstance(y, float):
                    assert math.copysign(1.0, x) == math.copysign(1.0, y)


def decisions_line(record):
    return dumps_line({"decisions": record.to_dict()["decisions"]})


def decisions_line_of(decisions):
    return dumps_line({"decisions": [d.to_dict() for d in rows_of(decisions)]})


PACKED_POLICIES = {
    "Klink": klink_with_mm,
    "Default": DefaultScheduler,
    "FCFS": FCFSScheduler,
    "HR": HighestRateScheduler,
    "SBox": StreamBoxScheduler,
    "ClassBased": lambda: ClassBasedScheduler(
        klink_with_mm(), {"q0": 1, "s0": 0, "q1": 0, "q2": 2}
    ),
}


class TestPackedDecisionRecords:
    """The audit log keeps each cycle's decisions as packed columns; every
    record must still read and serialize exactly as the columns the
    policy explained."""

    @pytest.mark.parametrize("name", sorted(PACKED_POLICIES))
    def test_records_match_explainer_and_stream(self, name):
        audit, explained, lines = run_explained(PACKED_POLICIES[name]())
        assert len(audit) == audit.records_seen == len(explained) == len(lines)
        for record, decisions, line in zip(audit.rows, explained, lines):
            # the record packs floats: an int would read back as a float
            for column in decisions[2:]:
                assert {type(v) for v in column} <= {float, type(None)}
            assert dumps_line(record.to_dict()) == line
            assert decisions_line(record) == decisions_line_of(decisions)
            assert_same_decisions(record.decisions, rows_of(decisions))
            head = record.head()
            assert_same_decisions([] if head is None else [head], rows_of(decisions)[:1])

    def test_klink_run_covers_every_klink_reason(self):
        audit, _, _ = run_explained(klink_with_mm())
        assert {
            "slack-order", "overdue-swm", "no-deadline",
            "memory-release", "memory-mode-full",
        } <= set(audit.reason_counts())

    def test_decisions_are_rebuilt_on_each_access(self):
        audit, explained, _ = run_explained(DefaultScheduler(), duration=1_000.0)
        record = audit.last()
        first, second = record.decisions, record.decisions
        assert first is not second and first == second
        assert isinstance(first, tuple)  # read-only
        assert list(first) == rows_of(explained[-1])

    def test_awkward_values_are_exact(self):
        """``-0.0``, NaN, infinities and ``None`` survive packing
        unchanged, in every value column."""
        q = make_simple_query("q0")
        ctx = SchedulerContext(now=0.0, cycle_ms=100.0, cores=1, queries=[q])
        plan = Plan([Allocation(q)])
        awkward = Decisions(
            ids=("a", "b", "c"),
            reasons=("slack-order", "overdue-swm", "no-deadline"),
            slack_ms=(-0.0, None, math.inf),
            swm_delay_mean_ms=(1.5, math.nan, None),
            swm_delay_std_ms=(None, -math.inf, 0.25),
            score=(3.0, -1.5, None),
            memory_bytes=(math.nan, 0.0, -0.0),
            queued_events=(2.0, math.inf, -0.0),
        )

        def take(positions):
            return Decisions(*(column[positions] for column in awkward))

        lines = []

        class Lines:
            def write(self, row):
                lines.append(dumps_line(row))

        audit = AuditLog(stream=Lines())
        cases = (awkward, Decisions(), take(slice(1)), take(slice(1, None)))
        for i, decisions in enumerate(cases):
            node = NodeCycle(0, DefaultScheduler(), plan, decisions, 0.0, 0.0)
            audit.on_cycle(
                cycle_event(now=float(i), cycle=i, ctx=ctx, nodes=[node])
            )
            record = audit.last()
            assert_same_decisions(record.decisions, rows_of(decisions))
            assert decisions_line(record) == decisions_line_of(decisions)
        assert '"score":3.0,' in lines[0] and '"slack_ms":-0.0,' in lines[0]
        assert '"queued_events":-0.0}' in lines[0] and '"rank":1,' in lines[0]
        assert audit.reason_counts() == {
            "no-deadline": 2, "overdue-swm": 2, "slack-order": 2,
        }
        assert audit.reason_counts(head_only=True) == {
            "overdue-swm": 1, "slack-order": 2,
        }
        assert audit.head_query_counts() == {"a": 2, "b": 1}

    def test_eviction_keeps_the_latest_records_exact(self):
        audit, explained, lines = run_explained(klink_with_mm(), max_rows=5)
        seen = audit.records_seen
        assert len(audit) == 5 and seen == len(explained) == len(lines) > 5
        assert [r.cycle for r in audit.rows] == list(range(seen - 5, seen))
        for record, decisions, line in zip(audit.rows, explained[-5:], lines[-5:]):
            assert dumps_line(record.to_dict()) == line
            assert_same_decisions(record.decisions, rows_of(decisions))
        kept = explained[-5:]
        assert audit.reason_counts() == dict(
            sorted(Counter(r for ds in kept for r in ds.reasons).items())
        )
        assert audit.head_query_counts() == dict(
            sorted(Counter(ds.ids[0] for ds in kept if ds.ids).items())
        )

    def test_retains_at_most_100_bytes_per_decision(self):
        """A 40-query x 300-cycle run must keep its records packed (one
        object per decision costs about 270 B). Allocation tracing covers
        the last 100 cycles, whose records are the ones measured."""
        audit = AuditLog()
        engine = Engine(
            build_queries("ysb", 40, WorkloadParams(rate_scale=0.05)),
            KlinkScheduler(), cycle_ms=100.0, seed=11, audit=audit,
        )
        for _ in range(200):
            engine.step_cycle()
        tracemalloc.start()
        try:
            for _ in range(100):
                engine.step_cycle()
            traced = sum(len(r.decisions) for r in audit.rows[200:])
            retained = tracemalloc.get_traced_memory()[0]
            audit._rows.clear()  # drop the records, nothing else
            retained -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert audit.records_seen == 300 and traced == 100 * 40
        assert retained / traced <= 100


class TestBaselineScores:
    """A baseline's audited ``score`` is the key its plan ranked on, read
    before execution drained the queues: FCFS arrivals and SBox
    deadlines ascend by rank with ``None`` (no queued record, no pending
    deadline) as +inf, and HR productivities descend with ``None``
    (infinite productivity) first. Under class-based scheduling the
    order holds within each class."""

    CLASSES = {"q0": 1, "s0": 0, "q1": 0, "q2": 2}

    @staticmethod
    def sort_key(policy, score):
        if policy == "HR":
            return -math.inf if score is None else -score
        return math.inf if score is None else score

    @pytest.mark.parametrize("classed", [False, True])
    @pytest.mark.parametrize("policy", ["FCFS", "HR", "SBox"])
    def test_scores_follow_the_ranking(self, policy, classed):
        scheduler = PACKED_POLICIES[policy]()
        if classed:
            scheduler = ClassBasedScheduler(scheduler, self.CLASSES)
        audit, _, _ = run_explained(scheduler)
        scored = 0
        for record in audit.rows:
            by_class = {}
            for d in record.decisions:
                group = self.CLASSES[d.query_id] if classed else 0
                by_class.setdefault(group, []).append(self.sort_key(policy, d.score))
                scored += d.score is not None
            for keys in by_class.values():
                assert keys == sorted(keys), (record.cycle, keys)
        assert scored > 0


class TestKlinkExplainOracle:
    """``explain_plan`` reads the plan loop's record of the overdue-SWM
    branch; the reference below re-derives reasons and SWM delay moments
    from live state, as the explainer once did, every cycle."""

    @staticmethod
    def reference(scheduler, ctx, plan):
        rows = []
        for alloc in plan.allocations:
            query = alloc.query
            slack = scheduler.last_slacks.get(query.query_id)
            if scheduler._mm_active:
                reason = (
                    "memory-release" if alloc.operators is not None
                    else "memory-mode-full"
                )
            elif slack is not None and math.isinf(slack):
                reason = "no-deadline"
            elif KlinkScheduler._pending_swm_slack(query, ctx.now) is not None:
                reason = "overdue-swm"
            else:
                reason = "slack-order"
            estimator = scheduler.estimator
            means, stds = [], []
            for binding in query.bindings:
                if binding.progress is None:
                    continue
                means.append(estimator.delay_moments(binding.progress)[0])
                stds.append(estimator.delay_std(binding.progress))
            mean = sum(means) / len(means) if means else None
            std = sum(stds) / len(stds) if stds else None
            rows.append((query.query_id, reason, mean, std))
        return rows

    def test_every_cycle_matches_the_reference(self):
        scheduler = klink_with_mm()
        explain = scheduler.explain_plan
        cycles = []

        def checked(ctx, plan):
            expected = self.reference(scheduler, ctx, plan)
            decisions = explain(ctx, plan)
            actual = list(zip(
                decisions.ids, decisions.reasons,
                decisions.swm_delay_mean_ms, decisions.swm_delay_std_ms,
            ))
            cycles.append((repr(actual), repr(expected), expected))
            return decisions

        scheduler.explain_plan = checked
        Engine(mixed_queries(), scheduler, cores=2, cycle_ms=100.0, seed=3,
               memory=MIXED_MEMORY, audit=AuditLog()).run(8_000.0)
        assert cycles
        for actual, expected, _ in cycles:
            assert actual == expected
        reasons = {row[1] for _, _, rows in cycles for row in rows}
        assert {"slack-order", "overdue-swm", "no-deadline"} <= reasons


class TestOperatorProfiler:
    def test_profiles_published_through_run_metrics(self):
        profiler = OperatorProfiler()
        _, metrics, queries = run_audited(
            KlinkScheduler(), profiler=profiler
        )
        profiles = metrics.operator_profiles
        assert len(profiles) == sum(len(q.operators) for q in queries)
        assert any(p.cpu_ms > 0 for p in profiles)
        assert any(p.events_in > 0 for p in profiles)
        for p in profiles:
            validate_operator(jsonify(p.to_dict()))

    def test_chain_profiles_aggregate_members(self):
        profiler = OperatorProfiler()
        _, metrics, queries = run_audited(
            DefaultScheduler(), profiler=profiler
        )
        chains = profiler.chain_profiles(queries)
        assert [c.query_id for c in chains] == [q.query_id for q in queries]
        by_query = {}
        for p in metrics.operator_profiles:
            by_query[p.query_id] = by_query.get(p.query_id, 0.0) + p.cpu_ms
        for chain in chains:
            assert chain.cpu_ms == pytest.approx(by_query[chain.query_id])
            assert chain.hottest_cpu_ms <= chain.cpu_ms + 1e-9

    def test_high_water_marks_are_maxima(self):
        profiler = OperatorProfiler()
        _, metrics, _ = run_audited(DefaultScheduler(), profiler=profiler)
        assert profiler.cycles_sampled > 0
        assert all(p.queued_events_hwm >= 0 for p in metrics.operator_profiles)
        assert any(
            p.queued_events_hwm > 0 or p.state_bytes_hwm > 0
            for p in metrics.operator_profiles
        )


class TestExportPrimitives:
    def test_jsonify_maps_non_finite_to_null(self):
        out = jsonify({"a": math.nan, "b": [math.inf, 1.0], "c": {"d": -math.inf}})
        assert out == {"a": None, "b": [None, 1.0], "c": {"d": None}}

    def test_dumps_line_is_compact_and_ordered(self):
        line = dumps_line({"b": 1, "a": math.nan})
        assert line == '{"b":1,"a":null}'

    def test_jsonl_writer_bounded_and_reopenable(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        with JsonlWriter(str(path), flush_every=2) as writer:
            for i in range(5):
                writer.write({"i": i})
        assert writer.rows_written == 5
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        assert rows == [{"i": i} for i in range(5)]
        with pytest.raises(ValueError):
            writer.write({"i": 99})

    def test_jsonl_writer_rejects_bad_flush(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlWriter(str(tmp_path / "x.jsonl"), flush_every=0)


class TestTraceContainer:
    def test_round_trip_through_disk(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = TraceWriter(str(path), meta={"workload": "ysb"})
        writer.write({"time": 100.0, "cycle": 0, "decisions": []})
        writer.finalize(
            operators=[{"query_id": "q0", "name": "q0.map"}],
            chains=[{"query_id": "q0"}],
            summary={"mean_latency_ms": 1.5, "latency_cdf": [[50, 1.0]]},
        )
        trace = read_trace(str(path))
        assert trace.meta["workload"] == "ysb"
        assert trace.meta["schema_version"] == 4
        assert len(trace.cycles) == 1 and trace.cycles[0]["cycle"] == 0
        assert trace.operators[0]["name"] == "q0.map"
        assert trace.chains[0]["query_id"] == "q0"
        assert trace.summary["mean_latency_ms"] == 1.5

    def test_finalize_is_idempotent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = TraceWriter(str(path), meta={})
        writer.finalize(summary={"x": 1})
        writer.finalize(summary={"x": 2})  # ignored
        trace = read_trace(str(path))
        assert trace.summary == {"x": 1}

    def test_read_trace_rejects_unknown_type(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type":"mystery"}\n')
        with pytest.raises(ValueError, match="unknown record type"):
            read_trace(str(path))

    def test_read_trace_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="invalid JSON"):
            read_trace(str(path))

    def test_audit_streams_into_trace_writer(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = TraceWriter(str(path), meta={"scheduler": "Klink"})
        profiler = OperatorProfiler()
        _, metrics, queries = run_audited(
            KlinkScheduler(), stream=writer, profiler=profiler, max_rows=3
        )
        writer.finalize(
            operators=[p.to_dict() for p in metrics.operator_profiles],
            chains=[c.to_dict() for c in profiler.chain_profiles(queries)],
            summary={"cycles": metrics.cycles},
        )
        trace = read_trace(str(path))
        # the stream received every cycle even though the deque kept 3
        assert len(trace.cycles) == metrics.cycles > 3
        assert len(trace.operators) == len(metrics.operator_profiles)
        for row in trace.cycles:
            validate_cycle(row)


def synthetic_trace():
    def cycle(i, *, bp=False, reason="slack-order"):
        return {
            "time": 100.0 * (i + 1),
            "cycle": i,
            "node": 0,
            "policy": "Klink",
            "mode": "priority",
            "backpressured": bp,
            "throttled": False,
            "memory_utilization": 0.1,
            "cpu_used_ms": 10.0,
            "overhead_ms": 0.5,
            "decisions": [
                {
                    "query_id": "q0",
                    "rank": 0,
                    "reason": reason,
                    "slack_ms": 5.0,
                    "swm_delay_mean_ms": 100.0,
                    "swm_delay_std_ms": 1.0,
                    "score": 5.0,
                    "memory_bytes": 10.0,
                    "queued_events": 2.0,
                }
            ],
        }

    cycles = [
        cycle(0),
        cycle(1, bp=True),
        cycle(2, bp=True, reason="memory-release"),
        cycle(3),
    ]
    operator = {
        "query_id": "q0", "name": "q0.map", "kind": "MapOperator",
        "cpu_ms": 12.0, "events_in": 100.0, "events_out": 50.0,
        "watermarks_seen": 3, "panes_fired": 1, "late_events_dropped": 0.0,
        "queued_events_hwm": 4.0, "queued_bytes_hwm": 256.0,
        "state_bytes_hwm": 0.0,
    }
    chain = {
        "query_id": "q0", "n_operators": 1, "cpu_ms": 12.0,
        "events_in": 100.0, "events_delivered": 50.0,
        "late_events_dropped": 0.0, "queued_events_hwm": 4.0,
        "memory_bytes_hwm": 256.0, "hottest_operator": "q0.map",
        "hottest_cpu_ms": 12.0,
    }
    summary = {"mean_latency_ms": 123.0, "latency_cdf": [[50.0, 100.0], [99.0, 200.0]]}
    return Trace(
        meta={"workload": "ysb", "scheduler": "Klink"},
        cycles=cycles,
        operators=[operator],
        chains=[chain],
        summary=summary,
    )


class TestRunReport:
    def test_timeline_counts(self):
        report = build_report(synthetic_trace())
        tl = report.decision_timeline
        assert tl["cycles"] == 4
        assert tl["backpressure_cycles"] == 2
        assert tl["reason_counts"] == {"memory-release": 1, "slack-order": 3}
        assert tl["head_query_counts"] == {"q0": 4}

    def test_episode_detection(self):
        report = build_report(synthetic_trace())
        kinds = {(e.kind, e.start, e.end, e.cycles) for e in report.episodes}
        assert ("backpressure", 200.0, 300.0, 2) in kinds
        assert ("memory-mode", 300.0, 300.0, 1) in kinds

    def test_latency_cdf_extracted_from_summary(self):
        report = build_report(synthetic_trace())
        assert report.latency_cdf == [(50.0, 100.0), (99.0, 200.0)]
        assert "latency_cdf" not in report.summary

    def test_top_k_limits_operators(self):
        trace = synthetic_trace()
        second = dict(trace.operators[0], name="q0.hot", cpu_ms=99.0)
        trace.operators.append(second)
        report = build_report(trace, top_k=1)
        assert [op["name"] for op in report.hottest_operators] == ["q0.hot"]

    def test_rejects_bad_top_k(self):
        with pytest.raises(ValueError):
            build_report(synthetic_trace(), top_k=0)

    def test_json_output_validates(self):
        report = build_report(synthetic_trace())
        validate_report(json.loads(report.to_json()))

    def test_render_text_sections(self):
        text = render_text(build_report(synthetic_trace()))
        assert "run report: ysb/Klink" in text
        assert "decision timeline" in text
        assert "hottest operators" in text
        assert "q0.map" in text

    def test_report_from_real_run(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = TraceWriter(str(path), meta={"workload": "test", "scheduler": "Klink"})
        profiler = OperatorProfiler()
        _, metrics, queries = run_audited(
            KlinkScheduler(), stream=writer, profiler=profiler
        )
        writer.finalize(
            operators=[p.to_dict() for p in metrics.operator_profiles],
            chains=[c.to_dict() for c in profiler.chain_profiles(queries)],
            summary={"latency_cdf": [list(p) for p in metrics.latency_cdf()]},
        )
        report = build_report(read_trace(str(path)))
        validate_report(json.loads(report.to_json()))
        assert report.decision_timeline["cycles"] == metrics.cycles

    @staticmethod
    def _audited_report(**engine_kw):
        audit = AuditLog()
        q = make_simple_query(rate_eps=50_000.0, cost_ms=1.0)
        metrics = Engine([q], KlinkScheduler(), cores=4, cycle_ms=100.0,
                         audit=audit, **engine_kw).run(10_000.0)
        trace = Trace(cycles=[record.to_dict() for record in audit.rows])
        return build_report(trace), metrics

    def test_no_episodes_without_pressure(self):
        report, _ = self._audited_report()
        assert report.episodes == []

    def test_backpressure_run_reports_episodes(self):
        report, metrics = self._audited_report(
            memory=MemoryConfig(capacity_bytes=50_000.0,
                                backpressure_threshold=0.5),
        )
        spans = [e for e in report.episodes if e.kind == "backpressure"]
        assert spans
        for episode in spans:
            assert episode.start <= episode.end
        assert sum(e.cycles for e in spans) == metrics.backpressure_cycles

    def test_node_rows_of_one_cycle_fold_into_one(self):
        """Two planning nodes write one row each per cycle; the cycle
        throttles if either node's plan did."""
        rows = [
            dict(synthetic_trace().cycles[0], cycle=c, node=n, time=100.0 * (c + 1),
                 backpressured=c == 1, throttled=(c, n) == (2, 1))
            for c in range(4)
            for n in range(2)
        ]
        report = build_report(Trace(cycles=rows))
        tl = report.decision_timeline
        assert tl["cycles"] == 4
        assert (tl["time_start"], tl["time_end"]) == (100.0, 400.0)
        assert tl["backpressure_cycles"] == 1 and tl["throttle_cycles"] == 1
        assert [(e.kind, e.start, e.end, e.cycles) for e in report.episodes] == [
            ("backpressure", 200.0, 200.0, 1),
            ("throttle", 300.0, 300.0, 1),
        ]
        # reason and head counts stay per node plan
        assert tl["head_query_counts"] == {"q0": 8}

    def test_distributed_trace_counts_each_cycle_once(self, tmp_path):
        """Fig. 6e's split deployment on four nodes writes one cycle row
        per planning node; the report counts each cycle once."""
        queries = build_queries("ysb", 16, WorkloadParams(seed=11, rate_scale=1.25))
        path = tmp_path / "trace.jsonl"
        writer = TraceWriter(str(path), meta={"run": "dist4"})
        engine = DistributedEngine.with_klink(
            queries,
            PhysicalPlan.split(queries, 4, segments=2),
            cores_per_node=1,
            memory=MemoryConfig(capacity_bytes=0.5 * GIB),
            rpc_latency_ms=100.0,
            seed=11,
            audit=AuditLog(stream=writer),
        )
        metrics = engine.run(20_000.0)
        writer.finalize(summary={"cycles": metrics.cycles})
        trace = read_trace(str(path))
        assert len(trace.cycles) == 4 * metrics.cycles
        tl = build_report(trace).decision_timeline
        assert tl["cycles"] == metrics.cycles
        assert tl["time_end"] == engine.clock.now
        assert 0 < tl["backpressure_cycles"] == metrics.backpressure_cycles
        by_cycle = {}
        for row in trace.cycles:
            by_cycle[row["cycle"]] = by_cycle.get(row["cycle"], False) or row["throttled"]
        assert tl["throttle_cycles"] == sum(by_cycle.values())
        episodes = build_report(trace).episodes
        assert sum(
            e.cycles for e in episodes if e.kind == "backpressure"
        ) == metrics.backpressure_cycles
        assert sum(tl["mode_counts"].values()) == len(trace.cycles)


class TestSchemaValidator:
    def test_missing_key_reports_path(self):
        row = synthetic_trace().cycles[0]
        del row["policy"]
        with pytest.raises(SchemaError, match=r"\$\.policy"):
            validate_cycle(row)

    def test_bool_is_not_a_number(self):
        op = dict(synthetic_trace().operators[0], cpu_ms=True)
        with pytest.raises(SchemaError, match="bool"):
            validate_operator(op)

    def test_nested_decision_mismatch(self):
        row = synthetic_trace().cycles[0]
        row["decisions"][0]["rank"] = "first"
        with pytest.raises(SchemaError, match=r"decisions\[0\]\.rank"):
            validate_cycle(row)

    def test_decision_dict_matches_schema_keys(self):
        from repro.obs.schema import DECISION_SCHEMA

        d = QueryDecision(query_id="q", rank=0, reason="slack-order")
        assert list(d.to_dict()) == list(DECISION_SCHEMA)
