"""An independent oracle for the operator drain.

:class:`DrainModel` restates the per-row budget accounting of
``Operator.step`` on plain lists: every queued row is a ``[count,
t_start, t_end]`` list, a row the grant covers is consumed whole, a row
it only partly covers has the affordable fraction handled and the rest
left at the head, and a multi-input operator takes one row per input per
round-robin turn on an even split of what is left of the budget. The
operator's own columnar batches, hoisted accumulators and per-kind row
handlers must agree with it after random row sequences, row caps and
budgets: the budget charged per step, ``events_in``, ``busy_ms``, each
channel's popped/returned counters and queue totals, and what the rows
became (emitted rows for a stateless operator, pane masses for windows
and a join).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spe.events import RecordBatch
from repro.spe.operators import (
    FilterOperator,
    SinkOperator,
    WindowedAggregate,
    WindowedJoin,
)
from repro.spe.windows import SlidingEventTimeWindows, TumblingEventTimeWindows

#: the step loop stops once less than this much budget is left
MIN_BUDGET_MS = 1e-6
BPE = 100


def close(a, b):
    return a == pytest.approx(b, rel=1e-9, abs=1e-9)


class DrainModel:
    """Per-row budget accounting of one operator over plain lists."""

    def __init__(self, n_inputs: int, cost_per_event_ms: float) -> None:
        self.cpe = cost_per_event_ms
        self.queues = [[] for _ in range(n_inputs)]
        self.events_in = 0.0
        self.busy_ms = 0.0
        self.popped = [0.0] * n_inputs
        self.returned = [0.0] * n_inputs
        #: (count, t_start, t_end) handed to the operator's row handler
        self.handled = []

    def push(self, i, count, t_start, t_end):
        self.queues[i].append([count, t_start, t_end])

    def _take(self, i, grant):
        count, t_start, t_end = self.queues[i][0]
        cost = count * self.cpe
        self.popped[i] += count
        if cost <= grant or self.cpe == 0.0:
            self.queues[i].pop(0)
            done, charged = count, cost
        else:
            done, charged = count * grant / cost, grant
            self.queues[i][0][0] = count - done
            self.returned[i] += count - done
        self.events_in += done
        self.busy_ms += charged
        self.handled.append((done, t_start, t_end))
        return charged

    def step(self, budget):
        used = 0.0
        while budget - used > MIN_BUDGET_MS:
            active = [i for i, queue in enumerate(self.queues) if queue]
            if not active:
                break
            if len(active) == 1:
                (i,) = active
                while budget - used > MIN_BUDGET_MS and self.queues[i]:
                    used += self._take(i, budget - used)
                break
            share = (budget - used) / len(active)
            for i in active:
                grant = min(share, budget - used)
                if grant <= MIN_BUDGET_MS:
                    return used
                used += self._take(i, grant)
        return used

    def queued(self, i):
        return sum(row[0] for row in self.queues[i])


def pane_masses(handled, size, slide):
    """Uniform mass of each handled row spread over every pane
    ``[k * slide, k * slide + size)`` it overlaps."""
    masses = {}
    for count, t_start, t_end in handled:
        k = int((t_start - size) // slide)
        while k * slide <= t_end:
            start = k * slide
            overlap = min(t_end, start + size) - max(t_start, start)
            if overlap > 0 and count > 0:
                masses[start] = masses.get(start, 0.0) + count * overlap / (t_end - t_start)
            k += 1
    return masses


def rows_of(channel):
    out = []
    for entry in channel:
        rb = entry.record
        assert type(rb) is RecordBatch
        for j in range(rb.head, len(rb.counts)):
            out.append((rb.counts[j], rb.t_starts[j], rb.t_ends[j]))
    return out


def row_strategy():
    return st.tuples(
        st.floats(0.5, 300.0),
        st.integers(0, 2_000),
        st.integers(1, 250),
    ).map(lambda r: (r[0], float(r[1]), float(r[1] + r[2])))


def script_strategy(n_inputs):
    push = st.tuples(st.just("push"), st.integers(0, n_inputs - 1), row_strategy())
    step = st.tuples(st.just("step"), st.floats(1e-4, 20.0))
    return st.lists(st.one_of(push, push, step), min_size=1, max_size=60)


def drive(op, model, script, batch_size):
    """Run ``script`` on the operator and the model side by side and
    compare the budget and channel accounting after every operation."""
    for channel in op.inputs:
        channel.batch_size = batch_size
    now = 0.0
    for action in script:
        now += 1.0
        if action[0] == "push":
            _, i, (count, t_start, t_end) = action
            op.inputs[i].push_row(count, t_start, t_end, 0.0, BPE, now)
            model.push(i, count, t_start, t_end)
        else:
            assert close(op.step(action[1], now), model.step(action[1]))
        assert close(op.stats.events_in, model.events_in)
        assert close(op.stats.busy_ms, model.busy_ms)
        for i, channel in enumerate(op.inputs):
            assert close(channel.events_popped, model.popped[i])
            assert close(channel.events_returned, model.returned[i])
            assert channel.queued_events == pytest.approx(model.queued(i), abs=1e-6)
            assert channel.queued_bytes == pytest.approx(
                model.queued(i) * BPE, abs=1e-4
            )
            assert sum(len(rb.record.counts) - rb.record.head for rb in channel) == len(
                model.queues[i]
            )


CPE = st.sampled_from([0.0, 0.01, 0.1])
CAP = st.integers(1, 64)


class TestDrainOracle:
    @settings(max_examples=60, deadline=None)
    @given(script=script_strategy(1), cpe=CPE, cap=CAP)
    def test_stateless_operator(self, script, cpe, cap):
        op = FilterOperator("f", cpe, selectivity=0.5)
        sink = SinkOperator("s")
        op.connect(sink)
        sink.inputs[0].batch_size = cap
        model = DrainModel(1, cpe)
        drive(op, model, script, cap)
        expected = [(c * 0.5, a, b) for c, a, b in model.handled if c * 0.5 > 0]
        emitted = rows_of(sink.inputs[0])
        assert len(emitted) == len(expected)
        for got, want in zip(emitted, expected):
            assert close(got[0], want[0]) and got[1:] == want[1:]
        assert close(op.stats.events_out, sum(c for c, _, _ in expected))

    @settings(max_examples=60, deadline=None)
    @given(
        script=script_strategy(1),
        cpe=CPE,
        cap=CAP,
        window=st.sampled_from([(100.0, 100.0), (100.0, 25.0)]),
    )
    def test_tumbling_and_sliding_windows(self, script, cpe, cap, window):
        size, slide = window
        op = WindowedAggregate("w", SlidingEventTimeWindows(size, slide), cpe)
        op.connect(SinkOperator("s"))
        model = DrainModel(1, cpe)
        drive(op, model, script, cap)
        self._assert_panes(op, pane_masses(model.handled, size, slide))

    @settings(max_examples=60, deadline=None)
    @given(script=script_strategy(2), cpe=CPE, cap=CAP)
    def test_two_input_join_turn_by_turn(self, script, cpe, cap):
        op = WindowedJoin("j", TumblingEventTimeWindows(100.0), cpe, n_inputs=2)
        op.connect(SinkOperator("s"))
        model = DrainModel(2, cpe)
        drive(op, model, script, cap)
        self._assert_panes(op, pane_masses(model.handled, 100.0, 100.0))

    @staticmethod
    def _assert_panes(op, expected):
        panes = {start: mass for start, mass in op._panes.items() if mass > 1e-9}
        expected = {start: mass for start, mass in expected.items() if mass > 1e-9}
        assert set(panes) == set(expected)
        for start, mass in expected.items():
            assert panes[start] == pytest.approx(mass, rel=1e-9, abs=1e-9)
        assert op.stats.late_events_dropped == 0.0
