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
* **replies** (:func:`encode_reply`) carry the runs of a
  :class:`~repro.service.Notifications` as the engines reported them:
  vertex-map groups of timestamp rows (layout below).

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

Reply layout.  A run is what one engine reported for one event: the
paper's rule 1 clones embeddings across parallel edges, so it is a few
vertex maps, each with many rows of timestamps (a
:class:`~repro.streaming.match.MatchBlock`).  An image is its query
edge's ends under the vertex map plus the row's timestamp, so no match
edge travels.  After the magic, as int64 values::

    head        routed, skipped, m, metric * m
    edge table  n, (u, v, t) * n    the runs' event edges, first use first
    shapes      s, then s times:    one per query code present
                query code, directed (1 / 0), num_vertices, k,
                (u, v) * k          the ends of each query edge
    runs        r, then r times, in the sequence's order:
      header    query code, kind (1 arrival / 0 expiration),
                table index of the event's edge, event time, seq, g
      groups    g times: num_vertices vertex images, c, c * k timestamps

The decoder builds one ``Event`` and one ``MatchBlock`` per run and no
``Match``: a decoded reply is read, or not, like a local result.  A
baseline engine's list of matches goes through one converter into a
block; a list with an image its vertex map and timestamp do not
rebuild cannot, and its reply is pickled.  Request layouts are in the
encoders' docstrings.

Decoders trust nothing they can check: a frame whose length is not
whole values, whose declared counts do not end exactly at its last
value, or that holds a code, index or flag out of range raises
:class:`FrameError` instead of decoding to something else.

Frames are sniffed by a 4-byte magic prefix that cannot collide with a
pickle stream (protocol 2+ pickles start with ``\\x80``), so binary and
pickled messages interleave freely on one connection: checkpoints and
control verbs stay pickled, and a reply that cannot be packed (request
failures, piggybacked error lists, payloads that are not
``Notifications``) silently falls back to pickle.  Frames use machine-native
``array('q')`` byte order — both ends of a ``multiprocessing.Pipe``
live on the same host.
"""

from __future__ import annotations

import pickle
from array import array
from dataclasses import replace
from functools import partial
from itertools import chain, groupby
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cluster import protocol
from repro.cluster.protocol import Reply, RoutedBatch
from repro.graph.temporal_graph import Edge
from repro.service.service import Notifications, Run
from repro.streaming.events import Event, EventKind
from repro.streaming.match import MatchBlock

#: Magic prefixes (first byte deliberately outside pickle's opcodes).
MAGIC_REQUEST = b"RWQ1"
MAGIC_REPLY = b"RWR3"

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
#: A run header's kind value, both ways.
_KIND_VALUE = {EventKind.ARRIVAL: 1, EventKind.EXPIRATION: 0}
_KIND_OF = {1: EventKind.ARRIVAL, 0: EventKind.EXPIRATION}


def reply_shape(code: int, query) -> tuple:
    """What :func:`encode_reply` needs of a hosted query: the shape of
    its blocks (``MatchBlock.ends``, ``.undirected``), its vertex count,
    and its shape record on the wire, which opens with ``code``."""
    ends = tuple((qe.u, qe.v) for qe in query.edges)
    return (ends, not query.directed, query.num_vertices,
            (code, int(query.directed), query.num_vertices, len(ends),
             *chain.from_iterable(ends)))


def _as_block(matches, ends, undirected: bool) -> Optional[MatchBlock]:
    """``matches`` as a block of the query's shape: a block as it is, a
    baseline's list grouped by consecutive vertex maps, kept only if it
    reads back as the list (each image is its query edge's ends under
    the vertex map, at its timestamp)."""
    if type(matches) is MatchBlock:
        same = matches.ends == ends and matches.undirected == undirected
        return matches if same else None
    block = MatchBlock(ends, undirected, [
        (vertex_map, [tuple(image[2] for image in match[1])
                      for match in group])
        for vertex_map, group in groupby(matches, key=itemgetter(0))],
        len(matches))
    return block if block == matches else None


def encode_reply(reply: Reply, shapes: Dict[str, tuple]) -> Optional[bytes]:
    """Pack a reply, or return None when it must stay pickled.

    Encodable replies — to whatever request — have no failure, no
    piggybacked error list, and a :class:`~repro.service.Notifications`
    payload of int64 values whose every run's query has a
    :func:`reply_shape` in ``shapes`` and matches that convert to a
    block of that shape.
    """
    if reply.failure is not None or reply.errors:
        return None
    notes = reply.payload
    if type(notes) is not Notifications:
        return None
    table: Dict[Edge, int] = {}
    index_of = table.setdefault
    described: Dict[int, tuple] = {}
    runs = array("q")
    num_runs = 0
    try:
        for query_id, event, seq, matches in notes.runs:
            if not matches:
                continue
            ends, undirected, num_vertices, record = shapes[query_id]
            block = _as_block(matches, ends, undirected)
            if block is None:
                return None
            described[record[0]] = record
            edge, time, kind = event
            runs.extend((record[0], _KIND_VALUE[kind],
                         index_of(edge, len(table)), time, seq,
                         len(block.groups)))
            for vertex_map, rows in block.groups:
                if len(vertex_map) != num_vertices or not rows:
                    return None
                runs.extend(vertex_map)
                runs.append(len(rows))
                mark = len(runs)
                runs.extend(chain.from_iterable(rows))
                if len(runs) - mark != len(rows) * len(ends):
                    return None
            num_runs += 1
        values = array("q", (reply.routed, reply.skipped,
                             len(reply.metrics)))
        values.extend(reply.metrics)
        values.append(len(table))
        values.extend(chain.from_iterable(table))
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            OverflowError):
        return None
    values.append(len(described))
    values.extend(chain.from_iterable(described.values()))
    values.append(num_runs)
    values.extend(runs)
    return MAGIC_REPLY + values.tobytes()


def decode_reply(data: bytes, names: List[str]) -> Reply:
    """Unpack a binary reply frame (``names`` maps codes to ids) into
    :class:`~repro.service.Notifications` of one ``MatchBlock`` per run,
    building no ``Match``.  A frame :func:`encode_reply` could not have
    written raises :class:`FrameError`."""
    values = _frame_values(data, 4)
    try:
        return _decode_reply(values, names)
    except FrameError:
        raise
    except (IndexError, KeyError, ValueError) as exc:
        # A read past a short frame, or a code or index off its table.
        raise FrameError(f"malformed reply frame: {exc!r}") from exc


def _count(values: List[int], at: int, least: int = 0) -> int:
    if values[at] < least:
        raise FrameError(f"count {values[at]} at value {at}, below {least}")
    return values[at]


def _decode_reply(values: List[int], names: List[str]) -> Reply:
    routed, skipped, num_metrics = values[:3]
    pos = _span_end(values, 3, num_metrics, 1)
    metrics = tuple(values[3:pos])
    end = _span_end(values, pos + 1, values[pos], 3)
    # Looked up through a dict, not the list: an index outside the
    # table has to fail, and a negative one would count from the end.
    edge_at = dict(enumerate(_edges(values, pos + 1, end))).__getitem__
    shapes: Dict[int, tuple] = {}
    pos = end + 1
    for _ in range(_count(values, end)):
        code, directed, num_vertices, width = values[pos:pos + 4]
        start = pos + 4
        pos = _span_end(values, start, width, 2)
        ends = values[start:pos]
        if not (0 <= code < len(names) and code not in shapes
                and directed in (0, 1) and num_vertices > 0 and width > 0
                and 0 <= min(ends) and max(ends) < num_vertices):
            raise FrameError(f"query shape at value {start - 4} is out "
                             f"of range")
        shapes[code] = (names[code], tuple(zip(ends[::2], ends[1::2])),
                        not directed, num_vertices)
    runs = []
    num_runs = _count(values, pos)
    pos += 1
    for _ in range(num_runs):
        code, arrival, event_edge, time, seq = values[pos:pos + 5]
        query_id, ends, undirected, num_vertices = shapes[code]
        event = Event(edge_at(event_edge), time, _KIND_OF[arrival])
        groups = []
        num_groups = _count(values, pos + 5, 1)
        pos += 6
        for _ in range(num_groups):
            at = pos + num_vertices     # the group's row count
            pos = _span_end(values, at + 1, _count(values, at, 1), len(ends))
            stamps = iter(values[at + 1:pos])   # zipped k ways: rows
            groups.append((tuple(values[at - num_vertices:at]),
                           list(zip(*[stamps] * len(ends)))))
        runs.append(Run(query_id, event, seq, MatchBlock(
            ends, undirected, groups, sum(len(g[1]) for g in groups))))
    _require_end(values, pos)
    return Reply(payload=Notifications(runs), routed=routed,
                 skipped=skipped, metrics=metrics)


__all__ = [
    "FrameError", "MAGIC_REPLY", "MAGIC_REQUEST", "UnpackableEdgeError",
    "decode_reply", "decode_request", "encode_ingest",
    "encode_migrate_in", "encode_reply", "encode_routed",
    "is_reply_frame", "is_request_frame", "reply_shape",
    "require_packable",
]
