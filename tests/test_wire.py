"""Tests for the binary wire codec (repro.cluster.wire)."""

import gc
import pickle
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import protocol, wire
from repro.cluster.protocol import Reply, RoutedBatch
from repro.graph.temporal_graph import Edge
from repro.obs.trace import Span, pack_spans
from repro.service.service import MatchNotification
from repro.streaming.events import Event, EventKind
from repro.streaming.match import Match


def sample_edges(n=5, start=1):
    return [Edge.make(i % 3, i % 3 + 1, start + i) for i in range(n)]


def sample_note(query_id="q0", seq=7, arrival=True):
    edge = Edge.make(1, 2, 40)
    kind = EventKind.ARRIVAL if arrival else EventKind.EXPIRATION
    return MatchNotification(
        query_id,
        Event(edge, 40 if arrival else 90, kind),
        Match(vertex_map=(1, 2, 5),
              edge_map=(edge, Edge.make(2, 5, 39))),
        seq)


class TestRequestFrames:
    def test_ingest_round_trip(self):
        edges = sample_edges()
        frame = wire.encode_ingest(edges)
        assert wire.is_request_frame(frame)
        verb, payload, ctx = wire.decode_request(frame)
        assert verb == protocol.INGEST_BATCH
        assert payload == edges
        assert ctx is None

    def test_routed_round_trip(self):
        pairs = [(edge, 100 + i) for i, edge in enumerate(sample_edges())]
        frame = wire.encode_routed(pairs, 55, 105)
        verb, payload, ctx = wire.decode_request(frame)
        assert verb == protocol.INGEST_ROUTED
        assert isinstance(payload, RoutedBatch)
        assert list(payload.pairs) == pairs
        assert payload.final_now == 55
        assert payload.final_seq == 105
        assert ctx is None

    def test_empty_routed_frame_is_clock_advance(self):
        frame = wire.encode_routed([], 99, 42)
        verb, payload, ctx = wire.decode_request(frame)
        assert verb == protocol.INGEST_ROUTED
        assert payload.pairs == ()
        assert (payload.final_now, payload.final_seq) == (99, 42)
        assert ctx is None

    def test_pickle_streams_are_not_frames(self):
        data = pickle.dumps((protocol.QUERY_STATS, "q7"))
        assert not wire.is_request_frame(data)
        assert not wire.is_reply_frame(data)

    @pytest.mark.parametrize("mode", [0, 2, 0x80, 0x82, 5])
    def test_retired_and_unknown_modes_are_rejected(self, mode):
        """Modes 0 and 2 were the per-event ingest frames.  A stale
        frame must fail to decode exactly like any unknown mode, traced
        or not — never be taken for the batch form it sat next to."""
        from array import array
        body = array("q", [1, 2, 3, 8, 1, 1, 2, 3, 7]).tobytes()
        frame = wire.MAGIC_REQUEST + bytes((mode,)) + body
        with pytest.raises(ValueError, match="unknown request frame mode"):
            wire.decode_request(frame)

    def test_frames_no_encoder_wrote_raise_frame_error(self):
        """Counts that disagree with the length, trailing values and a
        length that is not whole values are refused, not truncated."""
        assert issubclass(wire.FrameError, ValueError)
        pairs = [(edge, 100 + i) for i, edge in enumerate(sample_edges())]
        for frame in (wire.encode_routed(pairs, 55, 105),
                      wire.encode_routed(pairs, 55, 105, trace=(7, 9)),
                      wire.encode_ingest(sample_edges())):
            wire.decode_request(frame)
            for cut in range(5, len(frame), 8):
                with pytest.raises(wire.FrameError):
                    wire.decode_request(frame[:cut])
            with pytest.raises(wire.FrameError):
                wire.decode_request(frame + bytes(8))
            with pytest.raises(wire.FrameError):
                wire.decode_request(frame[:-3])
        negative = (wire.MAGIC_REQUEST + b"\x03"
                    + array("q", [3, 8, -1]).tobytes())
        with pytest.raises(wire.FrameError):
            wire.decode_request(negative)

    def test_require_packable(self):
        wire.require_packable(sample_edges())
        wire.require_packable([])
        for bad in (Edge("a", 2, 3), Edge(1, 2.0, 3), Edge(1, 2, 1 << 63),
                    Edge(1, None, 3)):
            with pytest.raises(wire.UnpackableEdgeError, match="edge 2 "):
                wire.require_packable([*sample_edges(2), bad])
        assert issubclass(wire.UnpackableEdgeError, TypeError)


class TestTracedRequestFrames:
    CTX = (0x123456789ab, 0xcafe42)

    def test_traced_ingest_round_trip(self):
        edges = sample_edges()
        frame = wire.encode_ingest(edges, trace=self.CTX)
        assert wire.is_request_frame(frame)
        verb, payload, ctx = wire.decode_request(frame)
        assert verb == protocol.INGEST_BATCH
        assert payload == edges
        assert ctx == self.CTX

    @pytest.mark.parametrize("pairs", [[], None])
    def test_traced_routed_round_trip(self, pairs):
        if pairs is None:
            pairs = [(edge, 100 + i)
                     for i, edge in enumerate(sample_edges())]
        frame = wire.encode_routed(pairs, 55, 105, trace=self.CTX)
        verb, payload, ctx = wire.decode_request(frame)
        assert verb == protocol.INGEST_ROUTED
        assert list(payload.pairs) == pairs
        assert ctx == self.CTX

    def test_untraced_frames_are_byte_identical_to_trace_none(self):
        """``trace=None`` must leave the wire format untouched — the
        tracing-off frames are pinned to the pre-tracing layout."""
        edges = sample_edges()
        assert (wire.encode_ingest(edges)
                == wire.encode_ingest(edges, trace=None))
        pairs = [(edge, 100 + i) for i, edge in enumerate(edges)]
        assert (wire.encode_routed(pairs, 55, 105)
                == wire.encode_routed(pairs, 55, 105, trace=None))

    def test_untraced_layout_is_pinned(self):
        """Golden frames: the untraced wire layout must never change
        (a coordinator and worker from different builds share a pipe
        only while these bytes stay stable)."""
        from array import array
        frame = wire.encode_ingest([Edge.make(1, 2, 3)])
        assert frame == (wire.MAGIC_REQUEST + b"\x01"
                         + array("q", [1, 1, 2, 3]).tobytes())
        frame = wire.encode_routed([(Edge.make(1, 2, 3), 7)], 3, 8)
        assert frame == (wire.MAGIC_REQUEST + b"\x03"
                         + array("q", [3, 8, 1, 1, 2, 3, 7]).tobytes())

    def test_traced_layout_is_pinned(self):
        """Golden traced frames: the flag bit on the mode byte, then
        the context ahead of the untraced values."""
        from array import array
        frame = wire.encode_ingest([Edge.make(1, 2, 3)], trace=self.CTX)
        assert frame == (wire.MAGIC_REQUEST + b"\x81"
                         + array("q", [*self.CTX, 1, 1, 2, 3]).tobytes())
        frame = wire.encode_routed([(Edge.make(1, 2, 3), 7)], 3, 8,
                                   trace=self.CTX)
        assert frame == (wire.MAGIC_REQUEST + b"\x83" + array(
            "q", [*self.CTX, 3, 8, 1, 1, 2, 3, 7]).tobytes())

    def test_traced_frame_differs_only_by_flag_and_prefix(self):
        edges = sample_edges()
        plain = wire.encode_ingest(edges)
        traced = wire.encode_ingest(edges, trace=self.CTX)
        assert len(traced) == len(plain) + 16  # two extra int64 slots
        assert plain != traced


# ----------------------------------------------------------------------
# Reply frames: generated replies and a walker over the documented layout
# ----------------------------------------------------------------------
NAMES = ["q0", "alerts"]
CODES = {"q0": 0, "alerts": 1}
INT64 = st.integers(-(1 << 63), (1 << 63) - 1)
#: Small values collide (repeated edges, vertices); the extremes and
#: negatives must survive the int64 slots.
FIELD = st.one_of(st.integers(-3, 3), INT64)
EDGE = st.builds(Edge, FIELD, FIELD, FIELD)
KIND = st.sampled_from(list(EventKind))


@st.composite
def replies(draw):
    """Replies whose notifications repeat events (the same object and
    equal copies), edges and queries, in any order."""
    edges = draw(st.lists(EDGE, min_size=1, max_size=5))
    edge = st.sampled_from(edges)
    events = draw(st.lists(st.builds(Event, edge, FIELD, KIND),
                           min_size=1, max_size=4))
    note = st.builds(
        MatchNotification, st.sampled_from(NAMES), st.sampled_from(events),
        st.builds(Match,
                  st.lists(FIELD, min_size=1, max_size=4).map(tuple),
                  st.lists(edge, min_size=1, max_size=4).map(tuple)),
        FIELD)
    spans = draw(st.lists(st.builds(
        Span, st.sampled_from(["shard_ingest", "shard_drain"]),
        st.integers(1, 1 << 62), st.integers(1, 1 << 62),
        st.integers(0, 1 << 62), start_us=st.integers(0, 1 << 50),
        duration_ns=st.integers(0, 1 << 40)), max_size=2))
    metrics = draw(st.sampled_from([(), (123456789, 42)]))
    if spans:
        metrics = (123456789, 42) + pack_spans(spans)
    return Reply(payload=draw(st.lists(note, max_size=8)),
                 routed=draw(FIELD), skipped=draw(FIELD), metrics=metrics)


def frame_values(frame):
    values = array("q")
    values.frombytes(frame[4:])
    return values.tolist()


def with_value(frame, slot, value):
    values = frame_values(frame)
    values[slot] = value
    return frame[:4] + array("q", values).tobytes()


def index_slots(frame):
    """``(slot, bound)`` of every value of a reply frame that indexes
    something: run headers' query code and event edge, rows' images."""
    values = frame_values(frame)
    pos = 3 + values[2]
    table = values[pos]
    pos += 1 + 3 * table
    slots = []
    runs = values[pos]
    pos += 1
    for _ in range(runs):
        num_vertices, num_edges, count = values[pos + 5:pos + 8]
        slots += [(pos, len(NAMES)), (pos + 2, table)]
        pos += 8
        for _ in range(count):
            slots += [(pos + num_vertices + j, table)
                      for j in range(num_edges)]
            pos += num_vertices + num_edges
    assert pos == len(values)
    return slots


def tuples_under(notes):
    """Every distinct tuple object reachable from ``notes``."""
    seen = {}
    stack = list(notes)
    while stack:
        item = stack.pop()
        if isinstance(item, tuple) and id(item) not in seen:
            seen[id(item)] = item
            stack.extend(item)
    return list(seen.values())


class TestReplyFrames:
    def test_layout_is_pinned(self):
        """Golden reply: two events, two queries, a repeated edge and a
        metrics tuple.  Head, edge table, then one header per (event,
        query) run followed by its rows."""
        e0, e1, e2 = Edge(1, 2, 40), Edge(2, 5, 39), Edge(2, 6, 38)
        arrival = Event(e0, 40, EventKind.ARRIVAL)
        expiry = Event(e1, 90, EventKind.EXPIRATION)
        reply = Reply(routed=11, skipped=4, metrics=(123, 2), payload=[
            MatchNotification("q0", arrival, Match((1, 2, 5), (e0, e1)), 7),
            MatchNotification("q0", arrival, Match((1, 2, 6), (e0, e2)), 7),
            MatchNotification("alerts", arrival, Match((2, 1), (e0,)), 7),
            MatchNotification("q0", expiry, Match((1, 2, 5), (e0, e1)), 3),
        ])
        assert wire.MAGIC_REPLY == b"RWR2"
        assert wire.encode_reply(reply, CODES) == (
            wire.MAGIC_REPLY + array("q", [
                11, 4, 2, 123, 2,
                3, 1, 2, 40, 2, 5, 39, 2, 6, 38,
                3,
                0, 1, 0, 40, 7, 3, 2, 2, 1, 2, 5, 0, 1, 1, 2, 6, 0, 2,
                1, 1, 0, 40, 7, 2, 1, 1, 2, 1, 0,
                0, 0, 1, 90, 3, 3, 2, 1, 1, 2, 5, 0, 1,
            ]).tobytes())

    @settings(max_examples=150, deadline=None)
    @given(replies())
    def test_round_trip(self, reply):
        frame = wire.encode_reply(reply, CODES)
        assert wire.is_reply_frame(frame)
        assert wire.decode_reply(frame, NAMES) == reply

    @settings(max_examples=60, deadline=None)
    @given(replies())
    def test_damaged_frames_raise_frame_error(self, reply):
        """Every proper prefix at a value boundary, a cut inside a
        value, a trailing value, and every index one step outside its
        range on either side: refused, never decoded to something."""
        frame = wire.encode_reply(reply, CODES)
        damaged = [frame[:cut] for cut in range(4, len(frame), 8)]
        damaged += [frame[:-1], frame + bytes(8)]
        for slot, bound in index_slots(frame):
            damaged += [with_value(frame, slot, -1),
                        with_value(frame, slot, bound)]
        for bad in damaged:
            with pytest.raises(wire.FrameError):
                wire.decode_reply(bad, NAMES)

    def test_impossible_counts_raise_frame_error(self):
        """Negative counts, and the one header a length check alone
        would let through: no embeddings, of any declared size."""
        frame = wire.encode_reply(
            Reply(payload=[sample_note()], metrics=(5, 1)), CODES)
        values = frame_values(frame)
        table_at = 3 + values[2]
        runs_at = table_at + 1 + 3 * values[table_at]
        num_vertices, num_edges, count = (runs_at + 6, runs_at + 7,
                                          runs_at + 8)
        for slot in (2, table_at, runs_at, num_vertices, num_edges, count):
            with pytest.raises(wire.FrameError):
                wire.decode_reply(with_value(frame, slot, -1), NAMES)
        empty_run = with_value(with_value(frame, count, 0),
                               num_vertices, 1 << 62)
        with pytest.raises(wire.FrameError):
            wire.decode_reply(empty_run[:8 * (count + 1) + 4], NAMES)

    def test_empty_maps_fall_back_to_pickle(self):
        note = sample_note()
        for match in (Match((), note.match.edge_map),
                      Match(note.match.vertex_map, ())):
            reply = Reply(payload=[note._replace(match=match)])
            assert wire.encode_reply(reply, CODES) is None

    def test_decoded_notifications_share_events_and_edges(self):
        """What one event reported is one ``Event``, and an edge is
        one ``Edge`` wherever the reply mentions it."""
        shared, other = Edge(1, 2, 40), Edge(2, 5, 39)
        event = Event(shared, 40, EventKind.ARRIVAL)
        notes = [
            MatchNotification("q0", event,
                              Match((1, 2, 5), (shared, other)), 7),
            MatchNotification("q0", event,
                              Match((1, 2, 6), (shared, Edge(2, 6, 38))), 7),
            MatchNotification("alerts", event, Match((2, 1), (shared,)), 7),
        ]
        decoded = wire.decode_reply(
            wire.encode_reply(Reply(payload=notes), CODES),
            NAMES).payload
        assert decoded == notes
        a, b, c = decoded
        assert a.event is b.event
        assert a.match.edge_map[0] is b.match.edge_map[0]
        assert a.match.edge_map[0] is c.match.edge_map[0]
        assert a.match.edge_map[0] is a.event.edge is c.event.edge
        assert type(a) is MatchNotification and type(a.match) is Match
        assert type(a.event) is Event and type(a.event.edge) is Edge

    def test_tracked_objects_per_decoded_notification(self):
        """The cyclic collector's work grows with the tracked objects a
        reply leaves behind.  1 000 notifications — 50 events, 20
        five-edge embeddings each, over 60 distinct edges — decode to a
        notification, a match and an edge map apiece plus the shared
        events and edges; rebuilding everything per notification (the
        ``RWR1`` decoder) left 9-10."""
        pool = [Edge(i, i + 1, 100 + i) for i in range(60)]
        notes = []
        for number in range(50):
            event = Event(pool[number], 100 + number, EventKind.ARRIVAL)
            for k in range(20):
                images = tuple(pool[(number + k * j) % 60]
                               for j in range(5))
                notes.append(MatchNotification(
                    "q0", event, Match((number, k, 3, 4), images), number))
        decoded = wire.decode_reply(
            wire.encode_reply(Reply(payload=notes), CODES),
            NAMES).payload
        assert decoded == notes
        gc.collect()    # untracks the all-int vertex maps
        tracked = sum(map(gc.is_tracked, tuples_under(decoded)))
        assert tracked <= 4 * len(decoded)
        assert tracked == 3 * len(decoded) + 50 + 60

    def test_notification_round_trip(self):
        reply = Reply(payload=[sample_note("q0", 7, arrival=True),
                               sample_note("alerts", 3, arrival=False)],
                      routed=11, skipped=4)
        frame = wire.encode_reply(reply, CODES)
        assert frame is not None and wire.is_reply_frame(frame)
        decoded = wire.decode_reply(frame, NAMES)
        assert decoded.payload == reply.payload
        assert decoded.routed == 11
        assert decoded.skipped == 4
        assert decoded.errors == ()
        assert decoded.failure is None

    def test_empty_notification_list(self):
        frame = wire.encode_reply(Reply(payload=[], routed=2, skipped=9),
                                  CODES)
        decoded = wire.decode_reply(frame, NAMES)
        assert decoded.payload == []
        assert (decoded.routed, decoded.skipped) == (2, 9)

    def test_failure_falls_back_to_pickle(self):
        reply = Reply(failure=("ValueError", "boom"))
        assert wire.encode_reply(reply, CODES) is None

    def test_piggybacked_errors_fall_back_to_pickle(self):
        reply = Reply(payload=[], errors=(("q0", "engine blew up"),))
        assert wire.encode_reply(reply, CODES) is None

    def test_unknown_query_id_falls_back_to_pickle(self):
        reply = Reply(payload=[sample_note("ghost")])
        assert wire.encode_reply(reply, CODES) is None

    def test_non_list_payload_falls_back_to_pickle(self):
        assert wire.encode_reply(Reply(payload={"a": 1}),
                                 CODES) is None
