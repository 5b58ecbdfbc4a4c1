"""Column ledgers: the float ledgers that grow with run length.

A :class:`~repro.spe.metrics.ColumnLedger` must read exactly like the
list of tuples (or ``deque(maxlen=...)``) it replaces — same length, same
rows, same column values from any cursor, same snapshot bytes — while
holding each value in 8 bytes. The memory guards pin that second half on
a real engine run.
"""

import gc
import pickle
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.klink import KlinkScheduler
from repro.resilience.checkpoint import LedgerView, serialize
from repro.spe.engine import Engine
from repro.spe.metrics import ColumnLedger
from repro.workloads import WorkloadParams, build_queries

NAMES = ("at", "latency")
values = st.floats(allow_nan=False, allow_infinity=False, width=64)
rows = st.lists(st.tuples(values, values), max_size=60)


class TestColumnLedgerModel:
    @given(rows, st.none() | st.integers(min_value=0, max_value=20), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_list_model(self, appended, maxlen, data):
        ledger = ColumnLedger(NAMES, maxlen=maxlen)
        model = [] if maxlen is None else deque(maxlen=maxlen)
        views = []
        for row in appended:
            if maxlen is None and data.draw(st.booleans()):
                views.append((LedgerView(ledger), serialize(list(model))))
            ledger.append(*row)
            model.append(row)
        assert len(ledger) == len(model)
        assert list(ledger) == list(model)
        cursor = data.draw(st.integers(min_value=0, max_value=len(model)))
        for i, name in enumerate(NAMES):
            column = getattr(ledger, name)
            assert list(column[cursor:]) == [row[i] for row in list(model)[cursor:]]
        assert serialize({"l": LedgerView(ledger)}) == serialize({"l": list(model)})
        for view, text in views:  # later appends leave earlier views alone
            assert serialize(view) == text

    @given(rows, st.none() | st.integers(min_value=1, max_value=20))
    @settings(max_examples=50, deadline=None)
    def test_pickle_round_trip(self, appended, maxlen):
        ledger = ColumnLedger(NAMES, appended, maxlen=maxlen)
        clone = pickle.loads(pickle.dumps(ledger))
        assert list(clone) == list(ledger) and clone.maxlen == maxlen
        clone.append(1.0, 2.0)  # columns stay the ledger's own after unpickling
        assert len(clone.at) == len(clone) == len(clone.latency)

    def test_constructor_rows_follow_maxlen(self):
        ledger = ColumnLedger(NAMES, [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)], maxlen=2)
        assert list(ledger) == [(3.0, 4.0), (5.0, 6.0)]
        assert list(ledger.at) == [3.0, 5.0]

    @pytest.mark.parametrize("bad", [[(1.0,)], [(1.0, 2.0, 3.0)], [(1.0, 2.0), (3.0,)]])
    def test_rows_of_the_wrong_width_are_refused(self, bad):
        with pytest.raises(ValueError):
            ColumnLedger(NAMES, bad)
        with pytest.raises(ValueError):
            ColumnLedger(NAMES).append(*bad[-1])


@pytest.fixture(scope="module")
def freed_bytes():
    """A short YSB run traced from the start; the bytes freed by dropping
    the latency-marker ledgers and the epoch histories, with their row
    counts."""
    gc.collect()
    tracemalloc.start()
    try:
        queries = build_queries("ysb", 4, WorkloadParams(seed=3))
        engine = Engine(queries, KlinkScheduler(), cores=4, cycle_ms=100.0, seed=3)
        engine.run(90_000.0)

        def freed(drop) -> int:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            drop()
            gc.collect()
            return before - tracemalloc.get_traced_memory()[0]

        markers = len(engine.metrics.marker_latencies)
        assert markers == sum(len(q.sink.marker_latencies) for q in engine.queries)

        def drop_markers() -> None:
            for query in engine.queries:
                query.sink.marker_latencies = None
            engine.metrics.marker_latencies = None

        progress = [b.progress for q in engine.queries for b in q.bindings if b.progress]
        epochs = [len(p.epochs) for p in progress]

        def drop_epochs() -> None:
            for p in progress:
                p.epochs = None

        return {
            "markers": (markers, freed(drop_markers)),
            "epochs": (epochs, freed(drop_epochs)),
        }
    finally:
        tracemalloc.stop()


class TestLedgerMemory:
    def test_bytes_per_latency_marker(self, freed_bytes):
        """One marker is one row in its sink's ledger (two doubles) and
        one double in RunMetrics: 24 B plus array over-allocation. A
        tuple per row with a float object per value costs about 96 B."""
        markers, freed = freed_bytes["markers"]
        assert markers > 1_000
        assert freed / markers <= 32.0, freed / markers

    def test_bytes_per_epoch_row(self, freed_bytes):
        """An epoch row is four doubles; each stream's history adds a
        fixed ledger header of under 1 KiB."""
        epochs, freed = freed_bytes["epochs"]
        assert min(epochs) >= 10
        assert freed <= sum(40 * n + 1024 for n in epochs), (freed, epochs)
