"""Tests for the binary wire codec (repro.cluster.wire)."""

import gc
import pickle
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.runner import make_engine
from repro.cluster import ShardedMatchService, protocol, wire
from repro.cluster.protocol import Reply, RoutedBatch
from repro.graph.temporal_graph import Edge
from repro.obs.trace import Span, pack_spans
from repro.query import TemporalQuery
from repro.service import MatchService
from repro.service.service import MatchNotification, Notifications, Run
from repro.streaming import StreamDriver, build_event_list
from repro.streaming.engine import MatchEngine
from repro.streaming.events import Event, EventKind
from repro.streaming.match import Match, MatchBlock
from tests.test_backtrack import GOLDEN, multigraph_stream


def sample_edges(n=5, start=1):
    return [Edge.make(i % 3, i % 3 + 1, start + i) for i in range(n)]


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
# Reply frames: generated runs and a walker over the documented layout
# ----------------------------------------------------------------------
#: Undirected and directed queries of different sizes, coded in order.
QUERIES = {
    "q0": TemporalQuery(["A", "B", "C"], [(0, 1), (1, 2)]),
    "alerts": TemporalQuery(["A", "B"], [(0, 1)]),
    "flow": TemporalQuery(["A", "B", "C"], [(0, 1), (2, 1), (0, 2)],
                          directed=True),
}
NAMES = list(QUERIES)
SHAPES = {query_id: wire.reply_shape(code, query)
          for code, (query_id, query) in enumerate(QUERIES.items())}
INT64 = st.integers(-(1 << 63), (1 << 63) - 1)
#: Small values collide (repeated edges, vertices, tied timestamps); the
#: extremes and negatives must survive the int64 slots.
FIELD = st.one_of(st.integers(-3, 3), INT64)
EDGE = st.builds(Edge, FIELD, FIELD, FIELD)
KIND = st.sampled_from(list(EventKind))


def block(query_id, groups):
    """A block of ``query_id``'s shape over ``(vertex map, rows)``."""
    ends, undirected, _, _ = SHAPES[query_id]
    return MatchBlock(ends, undirected, groups,
                      sum(len(rows) for _, rows in groups))


def sample_run(seq=7, arrival=True):
    """One ``q0`` run: one vertex map, one row."""
    kind = EventKind.ARRIVAL if arrival else EventKind.EXPIRATION
    return Run("q0", Event(Edge(1, 2, 40), 40 if arrival else 90, kind),
               seq, block("q0", [((1, 2, 5), [(40, 39)])]))


@st.composite
def runs(draw):
    """Runs of every query shape in any order, several groups each,
    repeating events (the same object and equal copies) and edges.  A
    run is a block, or the list a baseline engine reports for it."""
    edges = draw(st.lists(EDGE, min_size=1, max_size=5))
    events = draw(st.lists(st.builds(Event, st.sampled_from(edges), FIELD,
                                     KIND), min_size=1, max_size=4))
    out = []
    for query_id in draw(st.lists(st.sampled_from(NAMES), max_size=6)):
        ends, _, num_vertices, _ = SHAPES[query_id]
        row = st.tuples(*[FIELD] * len(ends))
        group = st.tuples(st.tuples(*[FIELD] * num_vertices),
                          st.lists(row, min_size=1, max_size=4))
        matches = block(query_id, draw(st.lists(group, min_size=1,
                                                max_size=3)))
        if draw(st.booleans()):
            matches = list(matches)
        out.append(Run(query_id, draw(st.sampled_from(events)),
                       draw(FIELD), matches))
    return Notifications(out)


@st.composite
def replies(draw):
    spans = draw(st.lists(st.builds(
        Span, st.sampled_from(["shard_ingest", "shard_drain"]),
        st.integers(1, 1 << 62), st.integers(1, 1 << 62),
        st.integers(0, 1 << 62), start_us=st.integers(0, 1 << 50),
        duration_ns=st.integers(0, 1 << 40)), max_size=2))
    metrics = draw(st.sampled_from([(), (123456789, 42)]))
    if spans:
        metrics = (123456789, 42) + pack_spans(spans)
    return Reply(payload=draw(runs()), routed=draw(FIELD),
                 skipped=draw(FIELD), metrics=metrics)


def frame_values(frame):
    values = array("q")
    values.frombytes(frame[4:])
    return values.tolist()


def with_value(frame, slot, value):
    values = frame_values(frame)
    values[slot] = value
    return frame[:4] + array("q", values).tobytes()


def bounded_slots(frame):
    """``(slot, least, most)`` of every value of a reply frame that is a
    code, index, flag or count, walking the documented layout; ``most``
    is None for a count (the frame states no upper bound)."""
    values = frame_values(frame)
    slots = [(2, 0, None)]
    pos = 3 + values[2]
    table = values[pos]
    slots.append((pos, 0, None))
    pos += 1 + 3 * table
    slots.append((pos, 0, None))
    shapes = {}
    for _ in range(values[pos]):
        pos += 1
        code, _, num_vertices, width = values[pos:pos + 4]
        shapes[code] = num_vertices, width
        slots += [(pos, 0, len(NAMES) - 1), (pos + 1, 0, 1),
                  (pos + 2, 1, None), (pos + 3, 1, None)]
        slots += [(pos + 4 + j, 0, num_vertices - 1)
                  for j in range(2 * width)]
        pos += 3 + 2 * width
    pos += 1
    slots.append((pos, 0, None))
    for _ in range(values[pos]):
        pos += 1
        num_vertices, width = shapes[values[pos]]
        slots += [(pos, 0, len(NAMES) - 1), (pos + 1, 0, 1),
                  (pos + 2, 0, table - 1), (pos + 5, 1, None)]
        groups = values[pos + 5]
        pos += 5
        for _ in range(groups):
            pos += 1 + num_vertices
            slots.append((pos, 1, None))
            pos += values[pos] * width
    assert pos + 1 == len(values)
    return slots


def tracked_under(root):
    """How many distinct objects reachable from ``root`` through tuples,
    lists, blocks and runs the cyclic collector tracks."""
    seen = {}
    stack = [root]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen[id(item)] = item
        if isinstance(item, (tuple, list)):
            stack.extend(item)
        elif isinstance(item, MatchBlock):
            stack += [item.ends, item.groups]
        elif isinstance(item, Notifications):
            stack.append(item.runs)
    return sum(map(gc.is_tracked, seen.values()))


class _OffMapEngine(MatchEngine):
    """Reports each event as a match whose image is not the edge its
    vertex map and timestamp name: only pickle can carry it."""

    name = "off-map"

    def on_edge_insert(self, edge):
        image = Edge(edge.u + 100, edge.v, edge.t)
        return [Match((edge.u, edge.v), (image,))]

    on_edge_expire = on_edge_insert


def off_map_factory(query, labels, edge_label_fn=None):
    """Module-level so it pickles by reference across the worker pipe."""
    return _OffMapEngine(query, labels, edge_label_fn)


class TestReplyFrames:
    def test_layout_is_pinned(self):
        """Golden reply: two events, three query shapes (one directed),
        a baseline's list run and a metrics tuple.  Head, event-edge
        table, one shape per query, then each run's header and groups."""
        e0, e1 = Edge(1, 2, 40), Edge(2, 5, 39)
        arrival = Event(e0, 40, EventKind.ARRIVAL)
        expiry = Event(e1, 90, EventKind.EXPIRATION)
        reply = Reply(routed=11, skipped=4, metrics=(123, 2),
                      payload=Notifications([
                          Run("q0", arrival, 7, block("q0", [
                              ((1, 2, 5), [(40, 39), (40, 41)]),
                              ((1, 2, 6), [(40, 38)])])),
                          Run("alerts", arrival, 7, [Match((2, 1), (e0,))]),
                          Run("q0", expiry, 3, block("q0", [
                              ((1, 2, 5), [(40, 39)])])),
                          Run("flow", expiry, 3, block("flow", [
                              ((7, 8, 9), [(5, 6, 6)])])),
                      ]))
        assert wire.MAGIC_REPLY == b"RWR3"
        assert wire.encode_reply(reply, SHAPES) == (
            wire.MAGIC_REPLY + array("q", [
                11, 4, 2, 123, 2,
                2, 1, 2, 40, 2, 5, 39,
                3, 0, 0, 3, 2, 0, 1, 1, 2,
                1, 0, 2, 1, 0, 1,
                2, 1, 3, 3, 0, 1, 2, 1, 0, 2,
                4,
                0, 1, 0, 40, 7, 2,
                1, 2, 5, 2, 40, 39, 40, 41,
                1, 2, 6, 1, 40, 38,
                1, 1, 0, 40, 7, 1, 2, 1, 1, 40,
                0, 0, 1, 90, 3, 1, 1, 2, 5, 1, 40, 39,
                2, 0, 1, 90, 3, 1, 7, 8, 9, 1, 5, 6, 6,
            ]).tobytes())

    @settings(max_examples=150, deadline=None)
    @given(replies())
    def test_round_trip(self, reply):
        frame = wire.encode_reply(reply, SHAPES)
        assert wire.is_reply_frame(frame)
        decoded = wire.decode_reply(frame, NAMES)
        assert decoded == reply
        assert all(type(run.matches) is MatchBlock
                   for run in decoded.payload.runs)

    @settings(max_examples=60, deadline=None)
    @given(replies())
    def test_damaged_frames_raise_frame_error(self, reply):
        """Every proper prefix at a value boundary, a cut inside a
        value, a trailing value, and every code, index, flag or count
        one step outside its range: refused, never decoded to
        something."""
        frame = wire.encode_reply(reply, SHAPES)
        damaged = [frame[:cut] for cut in range(4, len(frame), 8)]
        damaged += [frame[:-1], frame + bytes(8)]
        for slot, least, most in bounded_slots(frame):
            damaged.append(with_value(frame, slot, least - 1))
            if most is not None:
                damaged.append(with_value(frame, slot, most + 1))
        for bad in damaged:
            with pytest.raises(wire.FrameError):
                wire.decode_reply(bad, NAMES)

    def test_impossible_counts_raise_frame_error(self):
        """Counts below their range, and the headers a length check
        alone would let through: a run of no groups, a group of no rows,
        each ending the frame."""
        frame = wire.encode_reply(
            Reply(payload=Notifications([sample_run()]), metrics=(5, 1)),
            SHAPES)
        counts = [(slot, least) for slot, least, most
                  in bounded_slots(frame) if most is None]
        assert len(counts) == 8
        for slot, least in counts:
            with pytest.raises(wire.FrameError):
                wire.decode_reply(with_value(frame, slot, least - 1), NAMES)
        groups_at, rows_at = counts[-2][0], counts[-1][0]
        for slot in (groups_at, rows_at):
            empty = with_value(frame, slot, 0)[:4 + 8 * (slot + 1)]
            with pytest.raises(wire.FrameError):
                wire.decode_reply(empty, NAMES)

    def test_empty_maps_fall_back_to_pickle(self):
        """A list match whose maps do not fit its query's shape."""
        _, event, seq, matches = sample_run()
        match = list(matches)[0]
        for bad in (Match((), match.edge_map), Match(match.vertex_map, ())):
            reply = Reply(payload=Notifications([Run("q0", event, seq,
                                                     [bad])]))
            assert wire.encode_reply(reply, SHAPES) is None

    def test_decoded_notifications_share_events_and_edges(self):
        """A run decodes to one ``Event`` and one unread ``MatchBlock``;
        the event's edge is one ``Edge`` wherever the reply names it,
        and a group's notifications share its vertex map and one
        ``Edge`` per (query edge, timestamp)."""
        runs = [Run("q0", Event(Edge(1, 2, 40), 40, EventKind.ARRIVAL), 7,
                    block("q0", [((1, 2, 5), [(40, 39), (40, 41)])])),
                Run("alerts", Event(Edge(1, 2, 40), 40, EventKind.ARRIVAL),
                    7, block("alerts", [((2, 1), [(40,)])]))]
        frame = wire.encode_reply(Reply(payload=Notifications(runs)), SHAPES)
        with mock.patch.object(MatchBlock, "_matches",
                               side_effect=AssertionError("read")):
            decoded = wire.decode_reply(frame, NAMES).payload
            assert len(decoded) == 3
        assert decoded == Notifications(runs)
        a, b, c = decoded
        assert a.event is b.event
        assert a.event.edge is c.event.edge
        assert a.match.vertex_map is b.match.vertex_map
        assert a.match.edge_map[0] is b.match.edge_map[0]
        assert type(a) is MatchNotification and type(a.match) is Match
        assert type(a.event) is Event and type(a.event.edge) is Edge

    def test_tracked_objects_per_decoded_notification(self):
        """The cyclic collector's work grows with the tracked objects a
        reply leaves behind.  1 000 notifications — 50 events, 4
        vertex maps of 5 rows each — decode to the runs' events, blocks
        and groups: well under one tracked object per notification while
        unread.  Reading and keeping them adds a notification, a match
        and an edge map apiece, plus one ``Edge`` per (group, query
        edge, timestamp)."""
        runs = []
        for number in range(50):
            event = Event(Edge(number, number + 1, 100 + number),
                          100 + number, EventKind.ARRIVAL)
            groups = [((number, k, 7), [(100 + number, 90 + j)
                                        for j in range(5)])
                      for k in range(4)]
            runs.append(Run("q0", event, number, block("q0", groups)))
        decoded = wire.decode_reply(
            wire.encode_reply(Reply(payload=Notifications(runs)), SHAPES),
            NAMES).payload
        gc.collect()    # untracks the all-int vertex maps and rows
        # The sequence and its run list; per run its tuple, event,
        # block and group list; per group its tuple and row list; the
        # event edges; the event kind.
        tracked = tracked_under(decoded)
        assert tracked == 2 + 50 * 4 + 200 * 2 + 50 + 1
        assert tracked < len(decoded)
        kept = list(decoded)
        assert kept == Notifications(runs)
        gc.collect()
        assert tracked_under(kept) == (1 + 3 * len(kept) + 200 * (1 + 5)
                                       + 50 * 2 + 1)

    def test_notification_round_trip(self):
        reply = Reply(payload=Notifications([
            sample_run(7, arrival=True),
            Run("alerts", Event(Edge(1, 2, 40), 90, EventKind.EXPIRATION),
                3, block("alerts", [((2, 1), [(40,)])]))]),
            routed=11, skipped=4)
        frame = wire.encode_reply(reply, SHAPES)
        assert frame is not None and wire.is_reply_frame(frame)
        decoded = wire.decode_reply(frame, NAMES)
        assert decoded.payload == reply.payload
        assert decoded.routed == 11
        assert decoded.skipped == 4
        assert decoded.errors == ()
        assert decoded.failure is None

    def test_empty_notification_list(self):
        frame = wire.encode_reply(
            Reply(payload=Notifications(), routed=2, skipped=9), SHAPES)
        decoded = wire.decode_reply(frame, NAMES)
        assert decoded.payload == []
        assert (decoded.routed, decoded.skipped) == (2, 9)

    def test_a_baseline_engines_run_round_trips(self):
        """SymBi reports lists: one converter makes each a block, and
        the decoded block reads back as the same matches."""
        case, _, _ = GOLDEN["rule 1, no order"]
        query = case["query"]
        labels, edges, _ = multigraph_stream(**case["stream"])
        reports = StreamDriver(make_engine("symbi", query, labels)).run_events(
            build_event_list(edges, case["delta"])).reports
        assert all(type(matches) is list for _, matches in reports)
        payload = Notifications([Run("q", event, seq, matches)
                                 for seq, (event, matches)
                                 in enumerate(reports)])
        frame = wire.encode_reply(Reply(payload=payload),
                                  {"q": wire.reply_shape(0, query)})
        decoded = wire.decode_reply(frame, ["q"]).payload
        assert decoded == payload and len(decoded) > len(reports)

    def test_an_image_off_its_vertex_map_is_pickled(self, monkeypatch):
        """A custom engine's match whose image its vertex map and
        timestamp do not rebuild: the codec refuses the run, the worker
        pickles the reply, and it still arrives equal."""
        query = QUERIES["alerts"]
        labels = {0: "A", 1: "B"}
        _, event, seq, _ = sample_run()
        off_map = Match((1, 2), (Edge(101, 2, 40),))
        assert wire.encode_reply(Reply(payload=Notifications(
            [Run("alerts", event, seq, [off_map])])), SHAPES) is None
        edges = [Edge.make(0, 1, t) for t in range(1, 6)]
        single = MatchService(10)
        frames = []
        with ShardedMatchService(10, workers=1) as service:
            for target in (single, service):
                target.register(query, labels, off_map_factory, query_id="q")
            decode = wire.decode_reply

            def recorded(data, names):
                frames.append(data)
                return decode(data, names)
            monkeypatch.setattr(wire, "decode_reply", recorded)
            got = service.ingest(edges) + service.drain()
        assert got == single.ingest(edges) + single.drain()
        assert len(got) == 10 and frames == []

    def test_failure_falls_back_to_pickle(self):
        reply = Reply(failure=("ValueError", "boom"))
        assert wire.encode_reply(reply, SHAPES) is None

    def test_piggybacked_errors_fall_back_to_pickle(self):
        reply = Reply(payload=Notifications(),
                      errors=(("q0", "engine blew up"),))
        assert wire.encode_reply(reply, SHAPES) is None

    def test_unknown_query_id_falls_back_to_pickle(self):
        reply = Reply(payload=Notifications(
            [sample_run()._replace(query_id="ghost")]))
        assert wire.encode_reply(reply, SHAPES) is None

    def test_non_list_payload_falls_back_to_pickle(self):
        """Only ``Notifications`` travel packed: not a dict, and not a
        list of notifications either."""
        assert wire.encode_reply(Reply(payload={"a": 1}), SHAPES) is None
        notes = list(Notifications([sample_run()]))
        assert wire.encode_reply(Reply(payload=notes), SHAPES) is None
