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
  batch's closing cursor; :func:`encode_migrate_in` packs a migration
  ticket's window and tail the same way;
* **replies** (:func:`encode_reply`) carry the notification stream with
  query ids replaced by interned integer codes.

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
coordinator assigns each id a code at registration time and syncs it to
the owning worker via the :data:`~repro.cluster.protocol.INTERN` verb
*before* the query's ``REGISTER``, so every later reply can refer to
queries by code.

Frames are sniffed by a 4-byte magic prefix that cannot collide with a
pickle stream (protocol 2+ pickles start with ``\\x80``), so binary and
pickled messages interleave freely on one connection: checkpoints and
control verbs stay pickled, and a reply that cannot be packed (request
failures, piggybacked error lists, interest summaries, non-integer
payloads) silently falls back to pickle.  Frames use machine-native
``array('q')`` byte order — both ends of a ``multiprocessing.Pipe``
live on the same host.
"""

from __future__ import annotations

import pickle
from array import array
from dataclasses import replace
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster import protocol
from repro.cluster.protocol import Reply, RoutedBatch
from repro.graph.temporal_graph import Edge
from repro.service.service import MatchNotification
from repro.streaming.events import Event, EventKind
from repro.streaming.match import Match

#: Magic prefixes (first byte deliberately outside pickle's opcodes).
MAGIC_REQUEST = b"RWQ1"
MAGIC_REPLY = b"RWR1"

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
    """A live-migration restore frame.

    The bulk of a :class:`~repro.cluster.protocol.MigrationTicket` is
    its window/tail — thousands of all-integer ``(edge, seq)`` pairs —
    so those travel packed exactly like routed sub-batches, while the
    control remainder of the ticket (spec, counters, collected results)
    rides as an embedded pickle blob after the value array.  Existing
    frame modes are untouched, so every pre-migration frame stays
    byte-identical.
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


def _decode_migrate_in(data: bytes, traced: bool
                       ) -> Tuple[str, object, Optional[Tuple[int, int]]]:
    body_len = int.from_bytes(data[5:13], "little")
    values = array("q")
    values.frombytes(data[13:13 + body_len])
    blob = data[13 + body_len:]
    trace: Optional[Tuple[int, int]] = None
    base = 0
    if traced:
        trace = (values[0], values[1])
        base = 2

    def pairs_at(start: int):
        n = values[start]
        pairs = tuple(
            (Edge(values[i], values[i + 1], values[i + 2]), values[i + 3])
            for i in range(start + 1, start + 1 + 4 * n, 4))
        return pairs, start + 1 + 4 * n

    window, base = pairs_at(base)
    tail, base = pairs_at(base)
    ticket = replace(pickle.loads(blob), window=window, tail=tail)
    return protocol.MIGRATE_IN, ticket, trace


def decode_request(data: bytes) -> Tuple[str, object,
                                         Optional[Tuple[int, int]]]:
    """Decode a request frame to ``(verb, payload, trace_ctx)`` with
    the exact payload shapes the pickled protocol uses; ``trace_ctx``
    is the ``(trace id, parent span id)`` pair of a traced frame, else
    ``None``."""
    mode = data[4]
    if mode & ~_FLAG_TRACED == _MODE_MIGRATE_IN:
        return _decode_migrate_in(data, bool(mode & _FLAG_TRACED))
    values = array("q")
    values.frombytes(data[5:])
    trace: Optional[Tuple[int, int]] = None
    base = 0
    if mode & _FLAG_TRACED:
        mode &= ~_FLAG_TRACED
        trace = (values[0], values[1])
        base = 2
    if mode == _MODE_INGEST_BATCH:
        n = values[base]
        edges = [Edge(values[i], values[i + 1], values[i + 2])
                 for i in range(base + 1, base + 1 + 3 * n, 3)]
        return protocol.INGEST_BATCH, edges, trace
    if mode == _MODE_ROUTED_BATCH:
        final_now, final_seq, n = (values[base], values[base + 1],
                                   values[base + 2])
        pairs = [(Edge(values[i], values[i + 1], values[i + 2]),
                  values[i + 3])
                 for i in range(base + 3, base + 3 + 4 * n, 4)]
        return protocol.INGEST_ROUTED, RoutedBatch(
            pairs=tuple(pairs), final_now=final_now,
            final_seq=final_seq), trace
    raise ValueError(f"unknown request frame mode {mode}")


# ----------------------------------------------------------------------
# Replies (worker -> coordinator)
# ----------------------------------------------------------------------
def encode_reply(reply: Reply,
                 codes: Dict[str, int]) -> Optional[bytes]:
    """Pack an ingest reply, or return None when it must stay pickled.

    Encodable replies have no failure, no piggybacked error list, no
    interest summary, and a payload that is a list of integer-valued
    :class:`MatchNotification` objects whose query ids are all interned
    in ``codes``.
    """
    if (reply.failure is not None or reply.errors
            or reply.interest is not None):
        return None
    notes = reply.payload
    if type(notes) is not list:
        return None
    try:
        values = array("q", (reply.routed, reply.skipped,
                             len(reply.metrics)))
        values.extend(reply.metrics)
        values.append(len(notes))
        for note in notes:
            event = note.event
            edge = event.edge
            match = note.match
            vertex_map = match.vertex_map
            edge_map = match.edge_map
            values.extend((codes[note.query_id],
                           1 if event.kind is EventKind.ARRIVAL else 0,
                           edge.u, edge.v, edge.t, event.time, note.seq,
                           len(vertex_map), len(edge_map)))
            values.extend(vertex_map)
            for image in edge_map:
                values.extend(image)
    except (KeyError, TypeError, AttributeError, OverflowError):
        return None
    return MAGIC_REPLY + values.tobytes()


def decode_reply(data: bytes, names: List[str]) -> Reply:
    """Unpack a binary reply frame (``names`` maps codes to ids)."""
    values = array("q")
    values.frombytes(data[4:])
    routed, skipped, n_metrics = values[0], values[1], values[2]
    metrics = tuple(values[3:3 + n_metrics])
    count = values[3 + n_metrics]
    notes: List[MatchNotification] = []
    i = 4 + n_metrics
    for _ in range(count):
        (code, arrival, u, v, t, time, seq,
         num_vertices, num_edges) = values[i:i + 9]
        i += 9
        vertex_map = tuple(values[i:i + num_vertices])
        i += num_vertices
        edge_map = tuple(Edge(values[j], values[j + 1], values[j + 2])
                         for j in range(i, i + 3 * num_edges, 3))
        i += 3 * num_edges
        notes.append(MatchNotification(
            names[code],
            Event(Edge(u, v, t), time,
                  EventKind.ARRIVAL if arrival else EventKind.EXPIRATION),
            Match(vertex_map=vertex_map, edge_map=edge_map),
            seq))
    return Reply(payload=notes, routed=routed, skipped=skipped,
                 metrics=metrics)


__all__ = [
    "MAGIC_REPLY", "MAGIC_REQUEST", "UnpackableEdgeError", "decode_reply",
    "decode_request", "encode_ingest", "encode_migrate_in",
    "encode_reply", "encode_routed", "is_reply_frame",
    "is_request_frame", "require_packable",
]
