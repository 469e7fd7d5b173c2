"""Dependency-free distributed tracing for the matching pipeline.

Metrics (:mod:`repro.obs.metrics`) answer *how much*; traces answer
*which one*: which batch was slow, on which shard, in which stage.  A
:class:`Tracer` mints 63-bit trace/span ids and records completed
:class:`Span` objects; pipeline components open a **root span per
batch** (``service_batch``, ``cluster_ingest``) with child spans for
their stages (route/ship/exchange/merge, per-shard engine work).

The cluster propagates context *across the process boundary* without
new IPC verbs: the coordinator piggybacks ``(trace_id, parent_span_id)``
— two ints — on the existing binary ``array('q')`` request frames (a
flag bit on the mode byte; see :mod:`repro.cluster.wire`), and workers
ship their completed spans back packed as integers appended to the
``Reply.metrics`` tuple (:func:`pack_spans` / :func:`unpack_spans`).
With tracing off, every frame is byte-identical to the untraced wire.

Spans carry a wall-clock start (``time.time_ns``, so spans from
coordinator and worker processes on the same host align on one
timeline) and a monotonic duration (``perf_counter_ns``).  The one
export is :meth:`Tracer.chrome_trace` — Chrome ``trace_event`` JSON,
loadable in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``;
shard spans render as separate tracks via their ``tid``, and every
event's ``args`` carry its trace, span and parent ids.

Everything is stdlib-only and costs nothing when absent: components
take ``tracer=None`` and guard with ``is None`` (or go through
:func:`maybe_span`, which returns a no-op span when the tracer is
``None``).
"""

from __future__ import annotations

import itertools
import os
import random
import time
from collections import deque
from typing import (
    Deque, Dict, List, Optional, Sequence, Tuple,
)

#: Span names a worker may ship over the binary reply path.  The wire
#: carries the *index* into this table, so coordinator and worker must
#: agree on it — append only.
WIRE_SPAN_NAMES: Tuple[str, ...] = (
    "shard_ingest", "shard_advance", "shard_drain",
    "migrate_out", "migrate_in",
)
_WIRE_CODES: Dict[str, int] = {
    name: code for code, name in enumerate(WIRE_SPAN_NAMES)}

#: Ints per packed span record (see :func:`pack_spans`).
WIRE_SPAN_WIDTH = 6


class Span:
    """One timed operation; usable as a context manager.

    ``parent_id == 0`` marks a root span (a trace's entry point).
    ``start_us`` is wall-clock microseconds since the epoch;
    ``duration_ns`` is monotonic.  ``tid`` is a display track: 0 for
    the coordinating process, ``shard + 1`` for spans adopted from
    shard workers.
    """

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start_us",
                 "duration_ns", "tid", "args", "_tracer", "_t0")

    def __init__(self, name: str, trace_id: int, span_id: int,
                 parent_id: int = 0, start_us: int = 0,
                 duration_ns: int = 0, tid: int = 0,
                 args: Optional[Dict[str, object]] = None,
                 tracer: "Optional[Tracer]" = None) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_us = start_us
        self.duration_ns = duration_ns
        self.tid = tid
        self.args = args
        self._tracer = tracer
        self._t0 = 0

    @property
    def is_root(self) -> bool:
        return self.parent_id == 0

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6

    def __enter__(self) -> "Span":
        self.start_us = time.time_ns() // 1000
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.duration_ns = time.perf_counter_ns() - self._t0
        tracer, self._tracer = self._tracer, None
        if tracer is not None:
            tracer.adopt(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span({self.name!r}, trace={self.trace_id:x}, "
                f"span={self.span_id:x}, parent={self.parent_id:x}, "
                f"{self.duration_ms:.3f}ms)")


class _NullSpan:
    """The no-op span :func:`maybe_span` hands out when tracing is off;
    a process-wide singleton, so the tracing-off cost of a ``with``
    block is two attribute calls on a constant."""

    __slots__ = ()
    name = ""
    trace_id = 0
    span_id = 0
    parent_id = 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NULL_SPAN = _NullSpan()


def maybe_span(tracer: "Optional[Tracer]", name: str, parent=None,
               remote: Optional[Tuple[int, int]] = None,
               **args) -> object:
    """``tracer.span(...)`` when tracing is on, :data:`NULL_SPAN` when
    ``tracer`` is ``None`` — callers write one unconditional ``with``."""
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, parent=parent, remote=remote, **args)


class Tracer:
    """Mints span ids and collects finished spans (bounded).

    Ids are ``salt | counter``: a per-tracer random 22-bit salt shifted
    past a 40-bit counter, so ids minted by different processes of one
    cluster collide with negligible probability while staying inside a
    signed 64-bit wire slot.  Finished spans land in a bounded deque —
    the oldest spans of a long run are dropped (counted in
    :attr:`dropped`), never the process's memory.
    """

    def __init__(self, max_finished: int = 4096) -> None:
        self.finished: Deque[Span] = deque(maxlen=max_finished)
        self.pid = os.getpid()
        self.dropped = 0
        self._salt = (random.getrandbits(22) | 1) << 40
        self._ids = itertools.count(1)

    def _new_id(self) -> int:
        return self._salt | next(self._ids)

    def span(self, name: str, parent=None,
             remote: Optional[Tuple[int, int]] = None, **args) -> Span:
        """A new span, not yet started (enter it / use ``with``).

        ``parent`` links under a local span; ``remote`` is a
        ``(trace_id, parent_span_id)`` pair carried over the wire; with
        neither the span is a root that starts a fresh trace.
        """
        if parent is not None and parent.span_id:
            trace_id, parent_id = parent.trace_id, parent.span_id
        elif remote is not None:
            trace_id, parent_id = remote
        else:
            trace_id, parent_id = self._new_id(), 0
        return Span(name, trace_id, self._new_id(), parent_id,
                    args=args or None, tracer=self)

    def adopt(self, span: Span) -> None:
        """Record a finished span: one this tracer timed, or one
        completed elsewhere (unpacked from a worker reply)."""
        if len(self.finished) == self.finished.maxlen:
            self.dropped += 1
        self.finished.append(span)

    def take_finished(self) -> List[Span]:
        """Drain and return every finished span (the worker reply path
        calls this once per request)."""
        out = list(self.finished)
        self.finished.clear()
        return out

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def chrome_trace(self, spans: Optional[Sequence[Span]] = None
                     ) -> Dict[str, object]:
        """The recorded spans as Chrome ``trace_event`` JSON.

        Complete ("X") events in microseconds, one track per ``tid``
        (0 = the coordinating process, N = shard N-1), plus metadata
        ("M") events naming the tracks.  Load the dumped dict at
        https://ui.perfetto.dev or ``chrome://tracing``.
        """
        if spans is None:
            spans = list(self.finished)
        events: List[Dict[str, object]] = []
        tids = set()
        for span in spans:
            tids.add(span.tid)
            args: Dict[str, object] = {
                "trace_id": f"{span.trace_id:x}",
                "span_id": f"{span.span_id:x}",
                "parent_id": f"{span.parent_id:x}",
            }
            if span.args:
                args.update(span.args)
            events.append({
                "ph": "X", "cat": "repro", "name": span.name,
                "pid": self.pid, "tid": span.tid,
                "ts": span.start_us,
                "dur": round(span.duration_ns / 1000.0, 3),
                "args": args,
            })
        meta: List[Dict[str, object]] = [{
            "ph": "M", "name": "process_name", "pid": self.pid, "tid": 0,
            "args": {"name": "repro pipeline"}}]
        for tid in sorted(tids):
            name = "coordinator" if tid == 0 else f"shard {tid - 1}"
            meta.append({"ph": "M", "name": "thread_name",
                         "pid": self.pid, "tid": tid,
                         "args": {"name": name}})
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# Wire packing (worker -> coordinator, inside Reply.metrics)
# ----------------------------------------------------------------------
def pack_spans(spans: Sequence[Span]) -> Tuple[int, ...]:
    """Pack spans as ints for the ``Reply.metrics`` piggyback channel.

    Layout: ``(count, then per span: name code, trace id, span id,
    parent id, start microseconds, duration nanoseconds)``.  Spans with
    names outside :data:`WIRE_SPAN_NAMES` are skipped (the reply path
    must never fail on an unpackable span); returns ``()`` when nothing
    is packable, so an untraced reply's metrics tuple is unchanged.
    """
    packable = [s for s in spans if s.name in _WIRE_CODES]
    if not packable:
        return ()
    values: List[int] = [len(packable)]
    for span in packable:
        values.extend((_WIRE_CODES[span.name], span.trace_id,
                       span.span_id, span.parent_id, span.start_us,
                       span.duration_ns))
    return tuple(values)


def unpack_spans(values: Sequence[int], offset: int = 0) -> List[Span]:
    """Inverse of :func:`pack_spans`, reading from ``values[offset:]``."""
    count = values[offset]
    out: List[Span] = []
    base = offset + 1
    for index in range(count):
        (code, trace_id, span_id, parent_id, start_us, duration_ns
         ) = values[base + index * WIRE_SPAN_WIDTH:
                    base + (index + 1) * WIRE_SPAN_WIDTH]
        name = (WIRE_SPAN_NAMES[code] if 0 <= code < len(WIRE_SPAN_NAMES)
                else f"span_{code}")
        out.append(Span(name, trace_id, span_id, parent_id,
                        start_us=start_us, duration_ns=duration_ns))
    return out


__all__ = [
    "NULL_SPAN", "Span", "Tracer", "WIRE_SPAN_NAMES", "WIRE_SPAN_WIDTH",
    "maybe_span", "pack_spans", "unpack_spans",
]
