"""Streaming trace exporters with bounded memory.

The in-memory side of observability (``AuditLog``) keeps a bounded
``deque`` of recent rows; these writers are the unbounded-duration
counterpart: rows are serialized to disk as they are produced, so a
multi-hour simulated run can be traced without the trace ever living in
memory.

A low-level :class:`JsonlWriter` plus the *run trace* container format
used by ``repro-bench report``: one JSONL file, one record per line,
discriminated by a ``type`` field::

    {"type": "meta", "schema_version": 4, "workload": "ysb", ...}
    {"type": "cycle", "time": 120.0, "decisions": [...], ...}   # repeated
    {"type": "operator", "query_id": "ysb-0", "name": ..., ...} # repeated
    {"type": "chain", "query_id": "ysb-0", ...}                 # repeated
    {"type": "series", "name": "queue_depth", "points": [...]}  # repeated, v2+
    {"type": "lineage", "rid": ..., "components": ..., ...}     # repeated, v3+
    {"type": "swm_forecast", "query_id": ..., ...}              # repeated, v3+
    {"type": "lineage_summary", "rows_sampled": ..., ...}       # v3+
    {"type": "summary", "mean_latency_ms": ..., "latency_cdf": [...]}

The ``cycle`` records are the audit's rows: one per planning node per
scheduling cycle, so a distributed run writes several rows with the same
``cycle`` index. Schema version 2 added the telemetry ``series`` and
``alert`` sections; version 3 the event-lineage sections (``lineage``,
``swm_forecast``, ``lineage_summary``), written only when lineage
tracing is enabled; version 4 (this layout) removed the ``alert``
section and the summary's ``alerts_fired`` key. Older traces still parse
through :func:`read_trace`: the sections they lack stay empty, and the
``alert`` lines of v2 and v3 traces are skipped.

Serialization is deterministic: dictionaries are written in insertion
order with fixed separators, and non-finite floats are mapped to
``null`` (JSON has no NaN/Infinity), so two runs with the same seed
produce byte-identical traces.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Mapping, Optional, Sequence

#: version of the trace/report container format (bump on breaking change);
#: v2 added the telemetry ``series``/``alert`` record types; v3 the
#: lineage ``lineage``/``swm_forecast``/``lineage_summary`` record types;
#: v4 removed the ``alert`` record type
SCHEMA_VERSION = 4


def jsonify(value: Any) -> Any:
    """Recursively convert a value into strictly-JSON-serializable form.

    Non-finite floats become ``None`` (strict JSON has no ``NaN`` or
    ``Infinity``); mappings and sequences are converted recursively with
    key order preserved.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return value


def dumps_line(row: Mapping[str, Any]) -> str:
    """One deterministic JSONL line (no trailing newline)."""
    return json.dumps(jsonify(dict(row)), separators=(",", ":"), allow_nan=False)


class JsonlWriter:
    """Appends JSON objects to a file, one per line, as they arrive.

    Memory is bounded by the serialization of a single row; ``flush_every``
    trades write syscalls against loss-on-crash.
    """

    def __init__(self, path: str, flush_every: int = 256) -> None:
        if flush_every < 1:
            raise ValueError(f"flush interval must be >= 1: {flush_every}")
        self.path = path
        self.flush_every = flush_every
        self.rows_written = 0
        self._fh: Optional[IO[str]] = open(path, "w", encoding="utf-8")

    def write(self, row: Mapping[str, Any]) -> None:
        if self._fh is None:
            raise ValueError(f"writer already closed: {self.path}")
        self._fh.write(dumps_line(row))
        self._fh.write("\n")
        self.rows_written += 1
        if self.rows_written % self.flush_every == 0:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


@dataclass
class Trace:
    """A parsed (or in-memory) run trace: the input of report building."""

    meta: Dict[str, Any] = field(default_factory=dict)
    cycles: List[Dict[str, Any]] = field(default_factory=list)
    operators: List[Dict[str, Any]] = field(default_factory=list)
    chains: List[Dict[str, Any]] = field(default_factory=list)
    #: telemetry sections (schema v2+; empty for v1 traces)
    series: List[Dict[str, Any]] = field(default_factory=list)
    #: event-lineage sections (schema v3+; empty unless tracing was on)
    lineage: List[Dict[str, Any]] = field(default_factory=list)
    swm_forecast: List[Dict[str, Any]] = field(default_factory=list)
    lineage_summary: Dict[str, Any] = field(default_factory=dict)
    summary: Dict[str, Any] = field(default_factory=dict)

    @property
    def schema_version(self) -> int:
        return int(self.meta.get("schema_version", 1))


class TraceWriter:
    """Streams a run trace to disk while the engine runs.

    Pass an instance as the ``stream`` of an
    :class:`~repro.obs.audit.AuditLog`: every cycle's decision record goes
    straight to disk tagged ``type=cycle``. Call :meth:`finalize` after
    the run with the per-operator profiles and the metrics summary.
    """

    def __init__(self, path: str, meta: Mapping[str, Any]) -> None:
        self._writer = JsonlWriter(path)
        head: Dict[str, Any] = {"type": "meta", "schema_version": SCHEMA_VERSION}
        head.update(meta)
        self._writer.write(head)
        self._finalized = False

    def write(self, row: Mapping[str, Any]) -> None:
        """Stream hook for AuditLog: one scheduling-cycle record."""
        tagged: Dict[str, Any] = {"type": "cycle"}
        tagged.update(row)
        self._writer.write(tagged)

    def finalize(
        self,
        *,
        operators: Sequence[Mapping[str, Any]] = (),
        chains: Sequence[Mapping[str, Any]] = (),
        series: Sequence[Mapping[str, Any]] = (),
        lineage: Sequence[Mapping[str, Any]] = (),
        swm_forecast: Sequence[Mapping[str, Any]] = (),
        lineage_summary: Optional[Mapping[str, Any]] = None,
        summary: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Append the end-of-run records and close the file.

        The ``lineage_summary`` record's ``trace_bytes`` field is filled
        here with the on-disk bytes of the ``lineage`` and
        ``swm_forecast`` lines just written — the trace-size overhead
        attributable to tracing.
        """
        if self._finalized:
            return
        for row in operators:
            tagged: Dict[str, Any] = {"type": "operator"}
            tagged.update(row)
            self._writer.write(tagged)
        for row in chains:
            tagged = {"type": "chain"}
            tagged.update(row)
            self._writer.write(tagged)
        for row in series:
            tagged = {"type": "series"}
            tagged.update(row)
            self._writer.write(tagged)
        lineage_bytes = 0
        for row in lineage:
            tagged = {"type": "lineage"}
            tagged.update(row)
            lineage_bytes += len(dumps_line(tagged).encode("utf-8")) + 1
            self._writer.write(tagged)
        for row in swm_forecast:
            tagged = {"type": "swm_forecast"}
            tagged.update(row)
            lineage_bytes += len(dumps_line(tagged).encode("utf-8")) + 1
            self._writer.write(tagged)
        if lineage_summary is not None:
            tagged = {"type": "lineage_summary"}
            tagged.update(lineage_summary)
            tagged["trace_bytes"] = lineage_bytes
            self._writer.write(tagged)
        if summary is not None:
            tagged = {"type": "summary"}
            tagged.update(summary)
            self._writer.write(tagged)
        self._writer.close()
        self._finalized = True

    def close(self) -> None:
        self.finalize()


def read_trace(path: str) -> Trace:
    """Parse a run-trace JSONL file back into a :class:`Trace`."""
    trace = Trace()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise ValueError(f"{path}:{lineno}: not a JSON object")
            kind = row.pop("type", None)
            if kind == "meta":
                trace.meta = row
            elif kind == "cycle":
                trace.cycles.append(row)
            elif kind == "operator":
                trace.operators.append(row)
            elif kind == "chain":
                trace.chains.append(row)
            elif kind == "series":
                trace.series.append(row)
            elif kind == "alert" and trace.schema_version < 4:
                continue  # the alert section was removed in v4
            elif kind == "lineage":
                for key in ("rid", "status", "components", "spans"):
                    if key not in row:
                        raise ValueError(
                            f"{path}:{lineno}: corrupt lineage record: "
                            f"missing field {key!r}"
                        )
                trace.lineage.append(row)
            elif kind == "swm_forecast":
                trace.swm_forecast.append(row)
            elif kind == "lineage_summary":
                trace.lineage_summary = row
            elif kind == "summary":
                trace.summary = row
            else:
                raise ValueError(f"{path}:{lineno}: unknown record type {kind!r}")
    return trace
