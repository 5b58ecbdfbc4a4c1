"""Declared checkpoint state: field codecs and the one capture/restore walk.

Every checkpointed class declares its state once, as a class attribute
of ``(snapshot key, attribute, codec)`` entries::

    class Channel:
        CHECKPOINT = (
            ("entries", "_entries", ENTRIES),
            ("pushed", "events_pushed", FLOAT),
            ...
        )

A subclass extends the declaration by declaring its own ``CHECKPOINT``;
:func:`capture_state` and :func:`restore_state` join the declarations
along the MRO, base first, once per type. A key ``"group.key"`` files the
value under ``state["group"]["key"]``. A declaration whose keys are all
``None`` captures as a list in declaration order, or as the bare value
when it has a single entry. After a restore the walk calls the object's
``after_restore()`` hook, if it has one, to drop memos and rebuild the
indexes derived from the restored fields.

A codec turns a live value into JSON-safe state and back. ``restore``
gets the state, the live value and the restore mode, and returns the
value to bind: scalars are converted, nested declared objects and RNGs
are restored in place, and append-only ledgers are rebound to fresh
ones, so the :class:`LedgerView` prefixes older snapshots hold stay
frozen. A ``resume_only`` codec marks processing-time accounting, which
``mode="rollback"`` keeps as it is.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sized
from itertools import islice
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.spe.events import EventBatch, LatencyMarker, RecordBatch, Watermark


class CheckpointError(ValueError):
    """A snapshot cannot be taken, parsed, or applied to this engine."""


#: what a codec's ``capture`` returns for a value the snapshot omits
ABSENT: Any = object()


class Codec(NamedTuple):
    """How one declared attribute enters and leaves a snapshot."""

    #: live value -> JSON-safe state (``ABSENT`` to omit the key)
    capture: Callable[[Any], Any]
    #: (state, live value, mode) -> the value to bind
    restore: Callable[[Any, Any, str], Any]
    #: a missing key leaves the attribute as it is
    optional: bool = False
    #: processing-time accounting: restored on resume, kept on rollback
    resume_only: bool = False


def _same(value: Any) -> Any:
    return value


def _scalar(convert: Callable[[Any], Any]) -> Codec:
    return Codec(_same, lambda state, live, mode: convert(state))


def resume_only(codec: Codec) -> Codec:
    """``codec`` for a field that a rollback does not rewind."""
    return codec._replace(resume_only=True)


class LedgerView:
    """Read-only view of the first ``len(items)`` rows of an append-only
    ledger at capture (a list, an ``array('d')``, a column ledger or a
    lineage completion log). A column ledger's view yields plain tuples.
    A ledger only grows at its end (KS224) and restore rebinds it to a
    new one, so the prefix a view names stays frozen: it iterates,
    ``len()``s and compares like a copy taken at capture, without the
    copy."""

    __slots__ = ("_items", "_length")

    def __init__(self, items: Any) -> None:
        self._items, self._length = items, len(items)

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Any]:
        tuples = getattr(self._items, "tuples", None)
        return islice(self._items if tuples is None else tuples(), self._length)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sized) or not isinstance(other, Iterable):
            return NotImplemented
        return list(self) == list(other)


def _view(ledger: Any) -> LedgerView:
    # a maxlen ledger drops rows, so the view names a copy of it
    return LedgerView(ledger.copy() if getattr(ledger, "maxlen", None) else ledger)


def _fresh(live: Any, rows: Iterable[Any]) -> Any:
    """A new ledger of ``live``'s kind holding ``rows``."""
    if isinstance(live, array):
        return array(live.typecode, rows)
    return live.with_rows(rows)


def ledgers(make: Callable[[Any], Any]) -> Codec:
    """A ``{str: ledger}`` dict, as an object of views; ``make`` builds a
    ledger from rows on restore."""
    return Codec(
        lambda by_key: {key: LedgerView(by_key[key]) for key in by_key},
        lambda state, live, mode: {key: make(rows) for key, rows in state.items()},
    )


def keyed_ledgers(make: Callable[[Any], Any]) -> Codec:
    """A ``{(query_id, source_id): ledger}`` dict, as ``[query_id,
    source_id, view]`` rows in insertion order."""
    return Codec(
        lambda by_key: [[*key, LedgerView(by_key[key])] for key in by_key],
        lambda state, live, mode: {
            (str(qid), int(sid)): make(rows) for qid, sid, rows in state
        },
    )


def _check_tag(state: Any, live: Any, mode: str) -> Any:
    if state != live:
        raise CheckpointError(f"snapshot holds {state!r} state where this engine has {live!r}")
    return live


def _restore_rng(state: Dict[str, Any], rng: Any, mode: str) -> Any:
    rng.bit_generator.state = state
    return rng


def _capture_nested(obj: Any) -> Any:
    return ABSENT if obj is None else capture_state(obj)


def _restore_nested(state: Any, live: Any, mode: str) -> Any:
    if live is not None:
        restore_state(live, state, mode)
    return live


def _restore_each(state: List[Any], live: List[Any], mode: str) -> List[Any]:
    for obj, obj_state in zip(live, state):
        restore_state(obj, obj_state, mode)
    return live


RAW = Codec(_same, lambda state, live, mode: state)
#: a class constant naming the kind of state, checked on restore
TAG = Codec(_same, _check_tag)
FLOAT = _scalar(float)
INT = _scalar(int)
BOOL = _scalar(bool)
#: a list of floats
FLOATS = Codec(list, lambda state, live, mode: [float(v) for v in state])
#: a dict copied both ways
MAP = Codec(dict, lambda state, live, mode: dict(state))
#: ``{str: int}`` and ``{str: float}`` dicts
INT_MAP = Codec(dict, lambda state, live, mode: {str(k): int(v) for k, v in state.items()})
FLOAT_MAP = Codec(dict, lambda state, live, mode: {str(k): float(v) for k, v in state.items()})
#: a ``{float: float}`` dict as its items sorted by key
SORTED_PAIRS = Codec(
    lambda pairs: sorted(pairs.items()),
    lambda state, live, mode: {float(k): float(v) for k, v in state},
)
#: a heap of float pairs, verbatim (it is already a valid heap, and its
#: order decides which of two equal keys pops first)
HEAP = Codec(list, lambda state, live, mode: [(float(a), float(b)) for a, b in state])
#: a numpy Generator's bit-generator state (plain ints, JSON-exact)
RNG = Codec(lambda rng: rng.bit_generator.state, _restore_rng)
#: a nested declared object (``None`` is omitted and left alone)
STATE = Codec(_capture_nested, _restore_nested, optional=True)
#: a list of declared objects, restored in place pairwise
STATES = Codec(lambda objs: [capture_state(obj) for obj in objs], _restore_each)
#: an append-only ledger: a view on capture, a fresh ledger on restore
LEDGER = Codec(_view, lambda state, live, mode: _fresh(live, state))


# -- records ----------------------------------------------------------------


def encode_record(record: object) -> Dict[str, Any]:
    if isinstance(record, EventBatch):
        return {
            "t": "b",
            "count": record.count,
            "t_start": record.t_start,
            "t_end": record.t_end,
            "delay": record.delay,
            "bpe": record.bytes_per_event,
        }
    if isinstance(record, Watermark):
        return {"t": "w", "ts": record.timestamp, "src": record.source_id, "swm": record.is_swm}
    if isinstance(record, LatencyMarker):
        return {"t": "m", "at": record.created_at, "id": record.marker_id}
    if isinstance(record, RecordBatch):
        # Unconsumed rows only (the consumed prefix before ``head`` is
        # dead state); restore rebases head to 0 with identical columns.
        h = record.head
        return {
            "t": "rb",
            "counts": record.counts[h:],
            "t_starts": record.t_starts[h:],
            "t_ends": record.t_ends[h:],
            "delays": record.delays[h:],
            "enq": record.enqueued_ats[h:],
            "bpe": record.bytes_per_event,
        }
    raise CheckpointError(f"unknown record type: {type(record)!r}")


def decode_record(state: Dict[str, Any]) -> object:
    kind = state.get("t")
    if kind == "b":
        return EventBatch(
            count=state["count"],
            t_start=state["t_start"],
            t_end=state["t_end"],
            delay=state["delay"],
            bytes_per_event=state["bpe"],
        )
    if kind == "w":
        return Watermark(state["ts"], source_id=state["src"], is_swm=state["swm"])
    if kind == "m":
        return LatencyMarker(created_at=state["at"], marker_id=state["id"])
    if kind == "rb":
        columns = [
            [float(v) for v in state[key]]
            for key in ("counts", "t_starts", "t_ends", "delays", "enq")
        ]
        rb = RecordBatch(state["bpe"], *(column[0] for column in columns))
        rb.counts, rb.t_starts, rb.t_ends, rb.delays, rb.enqueued_ats = columns
        return rb
    raise CheckpointError(f"unknown record tag: {kind!r}")


# -- the walk ----------------------------------------------------------------


class _Field(NamedTuple):
    group: Optional[str]
    key: Optional[str]
    attr: str
    codec: Codec


class _Layout(NamedTuple):
    """A type's joined declaration, resolved once for the walk."""

    fields: Tuple[_Field, ...]
    #: restored from a list (or a bare value) instead of a dict
    positional: bool
    #: builds the captured state of one object
    capture: Callable[[Any], Any]


_LAYOUTS: Dict[type, _Layout] = {}


def _compile_capture(fields: Sequence[_Field], positional: bool) -> Callable[[Any], Any]:
    """One function that builds an object's state in a single literal,
    compiled from the declaration the way ``dataclasses`` compiles an
    ``__init__``: capture runs once per object per checkpoint, and a
    loop over the fields would cost more than the state it copies."""
    env: Dict[str, Any] = {"ABSENT": ABSENT}

    def value(i: int, f: _Field) -> str:
        if f.codec.capture is _same:
            return f"obj.{f.attr}"
        env[f"c{i}"] = f.codec.capture
        return f"c{i}(obj.{f.attr})"

    values = [value(i, f) for i, f in enumerate(fields)]
    if positional:
        body = values[0] if len(values) == 1 else f"[{', '.join(values)}]"
    else:
        groups: Dict[Optional[str], List[str]] = {}
        for f, v in zip(fields, values):
            groups.setdefault(f.group, []).append(f"{f.key!r}: {v}")
        items = groups.pop(None, []) + [f"{g!r}: {{{', '.join(groups[g])}}}" for g in groups]
        body = f"{{{', '.join(items)}}}"
    lines = ["def capture(obj):", f"    state = {body}"]
    for f in fields:
        if f.codec.optional and not positional:
            part = "state" if f.group is None else f"state[{f.group!r}]"
            lines.append(f"    if {part}[{f.key!r}] is ABSENT: del {part}[{f.key!r}]")
    exec("\n".join([*lines, "    return state"]), env)
    capture: Callable[[Any], Any] = env["capture"]
    return capture


def _layout(cls: type) -> _Layout:
    layout = _LAYOUTS.get(cls)
    if layout is not None:
        return layout
    declarations = [vars(k)["CHECKPOINT"] for k in reversed(cls.__mro__) if "CHECKPOINT" in vars(k)]
    if not declarations:
        raise CheckpointError(f"{cls.__name__} declares no checkpoint state")
    fields: List[_Field] = []
    for key, attr, codec in (entry for declared in declarations for entry in declared):
        group, _, name = (key or "").rpartition(".")
        fields.append(_Field(group or None, name or None, attr, codec))
    positional = bool(fields) and all(f.key is None for f in fields)
    if not positional and any(f.key is None for f in fields):
        raise TypeError(f"{cls.__name__} mixes named and unnamed checkpoint fields")
    layout = _Layout(tuple(fields), positional, _compile_capture(fields, positional))
    _LAYOUTS[cls] = layout
    return layout


def capture_state(obj: Any) -> Any:
    """The declared state of ``obj``, JSON-safe except for ledger views.
    Pure: reads the declared attributes and mutates nothing."""
    layout = _LAYOUTS.get(type(obj)) or _layout(type(obj))
    return layout.capture(obj)


def restore_state(obj: Any, state: Any, mode: str = "resume") -> None:
    """Apply a state captured by :func:`capture_state` to ``obj``, then
    run its ``after_restore()`` hook. ``mode="rollback"`` skips the
    ``resume_only`` fields."""
    fields, positional, _ = _layout(type(obj))
    if positional:
        values = [state] if len(fields) == 1 else state
    else:
        values = [
            (state if f.group is None else state.get(f.group, {})).get(f.key, ABSENT)
            for f in fields
        ]
    for f, value in zip(fields, values):
        if mode == "rollback" and f.codec.resume_only:
            continue
        if value is ABSENT:
            if f.codec.optional:
                continue
            raise CheckpointError(f"{type(obj).__name__} state lacks {f.key!r}")
        live = getattr(obj, f.attr)
        restored = f.codec.restore(value, live, mode)
        if restored is not live:
            setattr(obj, f.attr, restored)
    hook = getattr(obj, "after_restore", None)
    if hook is not None:
        hook()
