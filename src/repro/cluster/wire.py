"""Packed binary framing for the cluster's ingest hot path.

The coordinator/worker pipe normally carries pickled ``(verb, payload)``
tuples.  Pickle is the right tool for the control plane (queries,
engine factories, checkpoints), but on the ingest hot path it spends
most of its time serializing thousands of tiny ``Edge`` NamedTuples and
``MatchNotification`` objects one attribute at a time.  Everything on
that path is integers — edges are ``(u, v, t)`` triples, matches map
query indices to vertices and edges, event kinds are one bit — so both
directions are packed into flat ``array('q')`` frames instead:

* **requests** (:func:`encode_routed`) carry one shard's interest-routed
  share of a batch: edges paired with global sequence numbers, plus the
  batch's closing cursor; :func:`encode_migrate_in` packs the window
  and tail of the ticket every query reaches a worker by;
* **replies** (:func:`encode_reply`) carry the notification stream,
  each fact once: the distinct edges in a table, query ids as interned
  integer codes, and one header per run of embeddings that one event
  reported for one query (layout below).

Packed frames are the only way edges reach a worker, so the
coordinator calls :func:`require_packable` on every batch before it
routes anything: an edge with a non-int64 field raises
:class:`UnpackableEdgeError` while the service is still untouched.

Distributed tracing rides the same frames: a traced request sets a
flag bit on the mode byte and prepends the ``(trace id, parent span
id)`` context as two more ints, and workers return their completed
spans packed inside the reply's generic metrics tuple — no new frame
kinds, and untraced frames are byte-identical to the pre-tracing wire.

The only strings of the exchange — query ids — are interned: the
coordinator assigns each id a code at registration time, and the code
rides the query's ticket to whichever worker hosts it, so every reply
can refer to queries by code.

Reply layout.  One event reports many embeddings that differ in a
single image (the paper's pruning rules exist because parallel edges do
exactly that), so a reply mentions few distinct edges many times.  After
the magic, as int64 values::

    head        routed, skipped, m, metric * m
    edge table  n, (u, v, t) * n          distinct edges, first use first
    runs        r, then r times:
      header    query code, kind (1 arrival / 0 expiration),
                table index of the event's edge, event time, seq,
                num_vertices, num_edges, count
      rows      count * (num_vertices vertex images,
                         num_edges table indices)

A run is a maximal stretch of consecutive notifications with the same
event object, query, seq and map sizes; the encoder opens a new one
whenever any of those changes, so every notification order round-trips
and only the frame's size depends on the event-major order
``MatchService`` emits.  The decoder builds each table edge once and
one ``Event`` per run, so a decoded reply's notifications share those
objects (the in-process service's share one ``Event`` per event too):
about three objects tracked by the cyclic collector per notification
instead of ten.  Request layouts are in the encoders' docstrings.

Decoders trust nothing they can check: a frame whose length is not
whole values, whose declared counts do not end exactly at its last
value, or that names an edge index or query code out of range raises
:class:`FrameError` instead of decoding to something else.

Frames are sniffed by a 4-byte magic prefix that cannot collide with a
pickle stream (protocol 2+ pickles start with ``\\x80``), so binary and
pickled messages interleave freely on one connection: checkpoints and
control verbs stay pickled, and a reply that cannot be packed (request
failures, piggybacked error lists, payloads that are not notification
lists) silently falls back to pickle.  Frames use machine-native
``array('q')`` byte order — both ends of a ``multiprocessing.Pipe``
live on the same host.
"""

from __future__ import annotations

import pickle
from array import array
from dataclasses import replace
from functools import partial
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cluster import protocol
from repro.cluster.protocol import Reply, RoutedBatch
from repro.graph.temporal_graph import Edge
from repro.service.service import MatchNotification
from repro.streaming.events import Event, EventKind
from repro.streaming.match import Match

#: Magic prefixes (first byte deliberately outside pickle's opcodes).
MAGIC_REQUEST = b"RWQ1"
MAGIC_REPLY = b"RWR2"

#: Request frame modes.  0 and 2 were the per-event forms of 1 and 3;
#: they are retired and decode as unknown, never as a live mode.
_MODE_INGEST_BATCH = 1
_MODE_ROUTED_BATCH = 3
_MODE_MIGRATE_IN = 4

#: Mode-byte flag: the frame carries a trace context — two extra ints
#: ``(trace id, parent span id)`` prepended to the value array (see
#: :mod:`repro.obs.trace`).  Untraced frames never set the flag, so
#: with tracing off every frame is byte-identical to the pre-tracing
#: wire.
_FLAG_TRACED = 0x80


class FrameError(ValueError):
    """A binary frame is not one this module's encoders could have
    written: its length is not whole values, a declared count disagrees
    with that length, or an edge index or query code is out of range.
    """


class UnpackableEdgeError(TypeError):
    """An edge field is not a signed 64-bit integer.

    The in-process :class:`~repro.service.MatchService` accepts any
    hashable vertex id; the cluster packs edges into ``array('q')``
    frames and therefore does not.
    """


def require_packable(edges: Sequence[Edge]) -> None:
    """Raise :class:`UnpackableEdgeError` unless every ``(u, v, t)`` of
    ``edges`` fits an ``array('q')`` slot."""
    try:
        array("q", chain.from_iterable(edges))
    except (TypeError, OverflowError):
        for index, edge in enumerate(edges):
            try:
                array("q", edge)
            except (TypeError, OverflowError):
                raise UnpackableEdgeError(
                    f"edge {index} of the batch, {edge!r}, cannot "
                    f"be shipped to a shard: vertex ids and timestamps "
                    f"must be signed 64-bit integers") from None
        raise


def is_request_frame(data: bytes) -> bool:
    """True when ``data`` is a binary request frame (else: pickle)."""
    return data[:4] == MAGIC_REQUEST


def is_reply_frame(data: bytes) -> bool:
    """True when ``data`` is a binary reply frame (else: pickle)."""
    return data[:4] == MAGIC_REPLY


# ----------------------------------------------------------------------
# Requests (coordinator -> worker)
# ----------------------------------------------------------------------
def encode_ingest(edges: Sequence[Edge], *,
                  trace: Optional[Tuple[int, int]] = None) -> bytes:
    """A whole-batch ingest frame: ``[n, u, v, t, ...]``.

    Nothing under ``src/`` sends this frame any more.  It, its decode
    branch and the worker's ``INGEST_BATCH`` dispatch survive only
    because ``ledger/trace.py`` patches ``wire.encode_ingest`` by name
    and ``ledger/`` is frozen in the PR that removed the broadcast
    mode; the next benchmark PR should delete all three.

    ``trace`` optionally prepends a ``(trace id, parent span id)``
    context (flagged on the mode byte); ``None`` produces the exact
    pre-tracing frame bytes.
    """
    mode = _MODE_INGEST_BATCH
    head: Tuple[int, ...] = (len(edges),)
    if trace is not None:
        mode |= _FLAG_TRACED
        head = trace + head
    values = array("q", chain(head, chain.from_iterable(edges)))
    return MAGIC_REQUEST + bytes((mode,)) + values.tobytes()


def encode_routed(pairs: Sequence[Tuple[Edge, int]], final_now: int,
                  final_seq: int, *,
                  trace: Optional[Tuple[int, int]] = None) -> bytes:
    """A routed sub-batch frame: the closing cursor, then
    ``[n, u, v, t, seq, ...]`` (``n`` may be zero for a pure
    clock-advance frame that only flushes due expirations).  ``trace``
    as in :func:`encode_ingest`."""
    mode = _MODE_ROUTED_BATCH
    head: Tuple[int, ...] = (final_now, final_seq, len(pairs))
    if trace is not None:
        mode |= _FLAG_TRACED
        head = trace + head
    values = array("q", head)
    for edge, seq in pairs:
        values.extend(edge)
        values.append(seq)
    return MAGIC_REQUEST + bytes((mode,)) + values.tobytes()


def encode_migrate_in(ticket, *,
                      trace: Optional[Tuple[int, int]] = None) -> bytes:
    """The frame a query reaches a worker by (registration, restore,
    recovery, migration: see :class:`~repro.cluster.protocol.
    MigrationTicket`).

    The bulk of a migrating query's ticket is its window/tail —
    thousands of all-integer ``(edge, seq)`` pairs — so those travel
    packed exactly like routed sub-batches (both empty for a fresh
    join), while the control remainder of the ticket (spec, code, join
    cursor, counters, collected results) rides as an embedded pickle
    blob after the value array.
    """
    mode = _MODE_MIGRATE_IN
    head: Tuple[int, ...] = ()
    if trace is not None:
        mode |= _FLAG_TRACED
        head = trace
    values = array("q", head)
    values.append(len(ticket.window))
    for edge, seq in ticket.window:
        values.extend(edge)
        values.append(seq)
    values.append(len(ticket.tail))
    for edge, seq in ticket.tail:
        values.extend(edge)
        values.append(seq)
    body = values.tobytes()
    blob = pickle.dumps(replace(ticket, window=(), tail=()))
    return (MAGIC_REQUEST + bytes((mode,))
            + len(body).to_bytes(8, "little") + body + blob)


def _frame_values(data: bytes, offset: int) -> List[int]:
    """The int64 values of ``data[offset:]`` as a list."""
    if (len(data) - offset) % 8:
        raise FrameError(
            f"{len(data) - offset} value bytes: not a multiple of 8")
    values = array("q")
    values.frombytes(memoryview(data)[offset:])
    return values.tolist()


def _span_end(values: List[int], start: int, count: int,
              width: int) -> int:
    """Where ``count`` records of ``width`` values starting at
    ``start`` end.  Slices truncate silently, so every declared count
    is checked against the frame here before anything is sliced."""
    end = start + count * width
    if count < 0 or end > len(values):
        raise FrameError(
            f"{count} records of {width} values declared at {start}, "
            f"frame holds {len(values)} values")
    return end


def _require_end(values: List[int], pos: int) -> None:
    if pos != len(values):
        raise FrameError(
            f"{len(values) - pos} values after the frame's last record")


_edge_of = partial(tuple.__new__, Edge)


def _edges(values: List[int], start: int, end: int,
           width: int = 3) -> Iterator[Edge]:
    """One :class:`Edge` per ``width``-value record of
    ``values[start:end]``, from the ``(u, v, t)`` each record opens
    with."""
    return map(_edge_of, zip(values[start:end:width],
                             values[start + 1:end:width],
                             values[start + 2:end:width]))


def _pairs(values: List[int], at: int
           ) -> Tuple[Tuple[Tuple[Edge, int], ...], int]:
    """The ``(edge, seq)`` pairs of ``[n, u, v, t, seq, ...]`` at
    ``values[at]``, and where they end."""
    start = at + 1
    end = _span_end(values, start, values[at], 4)
    return tuple(zip(_edges(values, start, end, 4),
                     values[start + 3:end:4])), end


def decode_request(data: bytes) -> Tuple[str, object,
                                         Optional[Tuple[int, int]]]:
    """Decode a request frame to ``(verb, payload, trace_ctx)`` with
    the exact payload shapes the pickled protocol uses; ``trace_ctx``
    is the ``(trace id, parent span id)`` pair of a traced frame, else
    ``None``.  A frame none of the encoders above could have written
    raises :class:`FrameError`."""
    try:
        return _decode_request(data)
    except FrameError:
        raise
    except (IndexError, ValueError) as exc:   # a read past a short frame
        raise FrameError(f"malformed request frame: {exc!r}") from exc


def _decode_request(data: bytes):
    mode = data[4]
    traced = bool(mode & _FLAG_TRACED)
    mode &= ~_FLAG_TRACED
    blob = b""
    if mode == _MODE_MIGRATE_IN:
        body_end = 13 + int.from_bytes(data[5:13], "little")
        if body_end > len(data):
            raise FrameError(f"migrate-in body declared to end at byte "
                             f"{body_end} of {len(data)}")
        values = _frame_values(data[13:body_end], 0)
        blob = data[body_end:]
    else:
        values = _frame_values(data, 5)
    trace: Optional[Tuple[int, int]] = None
    base = 0
    if traced:
        trace = (values[0], values[1])
        base = 2
    if mode == _MODE_INGEST_BATCH:
        end = _span_end(values, base + 1, values[base], 3)
        edges = list(_edges(values, base + 1, end))
        _require_end(values, end)
        return protocol.INGEST_BATCH, edges, trace
    if mode == _MODE_ROUTED_BATCH:
        final_now, final_seq = values[base:base + 2]
        pairs, end = _pairs(values, base + 2)
        _require_end(values, end)
        return protocol.INGEST_ROUTED, RoutedBatch(
            pairs=pairs, final_now=final_now, final_seq=final_seq), trace
    if mode == _MODE_MIGRATE_IN:
        window, end = _pairs(values, base)
        tail, end = _pairs(values, end)
        _require_end(values, end)
        ticket = replace(pickle.loads(blob), window=window, tail=tail)
        return protocol.MIGRATE_IN, ticket, trace
    raise FrameError(f"unknown request frame mode {mode}")


# ----------------------------------------------------------------------
# Replies (worker -> coordinator)
# ----------------------------------------------------------------------
def encode_reply(reply: Reply,
                 codes: Dict[str, int]) -> Optional[bytes]:
    """Pack a reply, or return None when it must stay pickled.

    Encodable replies — to whatever request — have no failure, no
    piggybacked error list, and a payload that is a list of
    integer-valued :class:`MatchNotification` objects with non-empty
    maps whose query ids are all interned in ``codes``.

    Every distinct edge is written once, in first-use order, and every
    other mention of it is its index in that table.  A run is opened
    whenever the event object, the query, the seq or a map size
    differs from the previous notification's, so any notification order
    round-trips; the frame is compact when a reply is event-major, as
    :class:`~repro.service.MatchService` emits it.
    """
    if reply.failure is not None or reply.errors:
        return None
    notes = reply.payload
    if type(notes) is not list:
        return None
    table: Dict[Edge, int] = {}
    index_of = table.setdefault
    runs = array("q")
    num_runs = 0
    count_at = 0    # slot of the open run's count
    run_event = run_query = run_seq = None
    num_vertices = num_edges = -1
    try:
        for query_id, event, (vertex_map, edge_map), seq in notes:
            if not (event is run_event and query_id == run_query
                    and seq == run_seq
                    and len(vertex_map) == num_vertices
                    and len(edge_map) == num_edges):
                run_event, run_query, run_seq = event, query_id, seq
                num_vertices, num_edges = len(vertex_map), len(edge_map)
                if not (num_vertices and num_edges):
                    return None
                edge, time, kind = event
                runs.extend((codes[query_id],
                             1 if kind is EventKind.ARRIVAL else 0,
                             index_of(edge, len(table)), time, seq,
                             num_vertices, num_edges, 0))
                count_at = len(runs) - 1
                num_runs += 1
            runs.extend(vertex_map)
            runs.extend([index_of(image, len(table))
                         for image in edge_map])
            runs[count_at] += 1
        values = array("q", (reply.routed, reply.skipped,
                             len(reply.metrics)))
        values.extend(reply.metrics)
        values.append(len(table))
        values.extend(chain.from_iterable(table))
    except (KeyError, TypeError, ValueError, AttributeError,
            OverflowError):
        return None
    values.append(num_runs)
    values.extend(runs)
    return MAGIC_REPLY + values.tobytes()


def decode_reply(data: bytes, names: List[str]) -> Reply:
    """Unpack a binary reply frame (``names`` maps codes to ids).

    The notifications of one run share their :class:`Event`, and every
    mention of an edge anywhere in the reply is the same :class:`Edge`
    object.  A frame :func:`encode_reply` could not have written raises
    :class:`FrameError`.
    """
    values = _frame_values(data, 4)
    try:
        return _decode_reply(values, names)
    except FrameError:
        raise
    except (IndexError, KeyError, ValueError) as exc:
        # A read past a short frame, or an edge index off the table.
        raise FrameError(f"malformed reply frame: {exc!r}") from exc


def _decode_reply(values: List[int], names: List[str]) -> Reply:
    routed, skipped, num_metrics = values[:3]
    pos = _span_end(values, 3, num_metrics, 1)
    metrics = tuple(values[3:pos])
    end = _span_end(values, pos + 1, values[pos], 3)
    # Looked up through a dict, not the list: an index outside the
    # table has to fail, and a negative one would count from the end.
    edge_at = dict(enumerate(_edges(values, pos + 1, end))).__getitem__
    num_runs = values[end]
    pos = end + 1
    new = tuple.__new__
    notes: List[MatchNotification] = []
    for _ in range(num_runs):
        (code, arrival, event_edge, time, seq,
         num_vertices, num_edges, count) = values[pos:pos + 8]
        if not 0 <= code < len(names):
            raise FrameError(f"query code {code} is not interned")
        if min(num_vertices, num_edges, count) < 1:
            # No encoder writes such a run, and only a positive count
            # ties the map sizes to the frame's length below.
            raise FrameError(f"a run of {count} embeddings of "
                             f"{num_vertices} vertices, {num_edges} edges")
        query_id = names[code]
        event = Event(edge_at(event_edge), time,
                      EventKind.ARRIVAL if arrival
                      else EventKind.EXPIRATION)
        width = num_vertices + num_edges
        start = pos + 8
        pos = _span_end(values, start, count, width)
        rows = values[start:pos]
        # Column slices zipped back into rows: each map is assembled
        # in C, the edge maps by table lookups.
        vertex_maps = zip(*[rows[j::width] for j in range(num_vertices)])
        edge_maps = zip(*[map(edge_at, rows[j::width])
                          for j in range(num_vertices, width)])
        notes.extend([
            new(MatchNotification, (query_id, event, new(Match, maps), seq))
            for maps in zip(vertex_maps, edge_maps)])
    _require_end(values, pos)
    return Reply(payload=notes, routed=routed, skipped=skipped,
                 metrics=metrics)


__all__ = [
    "FrameError", "MAGIC_REPLY", "MAGIC_REQUEST", "UnpackableEdgeError",
    "decode_reply", "decode_request", "encode_ingest",
    "encode_migrate_in", "encode_reply", "encode_routed",
    "is_reply_frame", "is_request_frame", "require_packable",
]
