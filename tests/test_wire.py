"""Tests for the binary wire codec (repro.cluster.wire)."""

import pickle

import pytest

from repro.cluster import protocol, wire
from repro.cluster.protocol import Reply, RoutedBatch
from repro.graph.temporal_graph import Edge
from repro.service.interest import InterestSummary
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
        data = pickle.dumps((protocol.ADVANCE, 7))
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


class TestReplyFrames:
    CODES = {"q0": 0, "alerts": 1}
    NAMES = ["q0", "alerts"]

    def test_notification_round_trip(self):
        reply = Reply(payload=[sample_note("q0", 7, arrival=True),
                               sample_note("alerts", 3, arrival=False)],
                      routed=11, skipped=4)
        frame = wire.encode_reply(reply, self.CODES)
        assert frame is not None and wire.is_reply_frame(frame)
        decoded = wire.decode_reply(frame, self.NAMES)
        assert decoded.payload == reply.payload
        assert decoded.routed == 11
        assert decoded.skipped == 4
        assert decoded.errors == ()
        assert decoded.failure is None

    def test_empty_notification_list(self):
        frame = wire.encode_reply(Reply(payload=[], routed=2, skipped=9),
                                  self.CODES)
        decoded = wire.decode_reply(frame, self.NAMES)
        assert decoded.payload == []
        assert (decoded.routed, decoded.skipped) == (2, 9)

    def test_failure_falls_back_to_pickle(self):
        reply = Reply(failure=("ValueError", "boom"))
        assert wire.encode_reply(reply, self.CODES) is None

    def test_piggybacked_errors_fall_back_to_pickle(self):
        reply = Reply(payload=[], errors=(("q0", "engine blew up"),))
        assert wire.encode_reply(reply, self.CODES) is None

    def test_interest_summary_falls_back_to_pickle(self):
        reply = Reply(payload="q0", interest=InterestSummary())
        assert wire.encode_reply(reply, self.CODES) is None

    def test_unknown_query_id_falls_back_to_pickle(self):
        reply = Reply(payload=[sample_note("ghost")])
        assert wire.encode_reply(reply, self.CODES) is None

    def test_non_list_payload_falls_back_to_pickle(self):
        assert wire.encode_reply(Reply(payload={"a": 1}),
                                 self.CODES) is None
