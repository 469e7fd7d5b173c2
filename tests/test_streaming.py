"""Tests for events, the stream driver, and the Match representation."""

import pickle
from dataclasses import replace
from unittest import mock

import pytest

from repro.bench.runner import make_engine
from repro.core.tcm import TCMEngine
from repro.graph.temporal_graph import Edge, TemporalGraph
from repro.oracle import OracleEngine
from repro.service import MatchService
from repro.streaming import (
    Event, EventKind, Match, MatchBlock, StreamDriver, build_event_list,
)
from tests.paper_example import DATA_LABELS, SIGMA, all_edges, make_query
from tests.test_backtrack import GOLDEN, multigraph_stream


class TestEventList:
    def test_every_edge_gets_two_events(self):
        events = build_event_list(all_edges(14), delta=10)
        assert len(events) == 28
        arrivals = [e for e in events if e.is_arrival]
        expirations = [e for e in events if not e.is_arrival]
        assert len(arrivals) == len(expirations) == 14

    def test_expiration_time_is_t_plus_delta(self):
        events = build_event_list([Edge.make(1, 2, 5)], delta=10)
        assert events[0] == Event(Edge.make(1, 2, 5), 5, EventKind.ARRIVAL)
        assert events[1] == Event(Edge.make(1, 2, 5), 15,
                                  EventKind.EXPIRATION)

    def test_expirations_before_arrivals_at_same_time(self):
        """sigma_4 (t=4, delta=10) must expire before sigma_14 arrives:
        the window (t - delta, t] excludes timestamp t - delta."""
        events = build_event_list(all_edges(14), delta=10)
        at_14 = [e for e in events if e.time == 14]
        assert at_14[0].kind is EventKind.EXPIRATION
        assert at_14[0].edge == SIGMA[4]
        assert at_14[-1].kind is EventKind.ARRIVAL
        assert at_14[-1].edge == SIGMA[14]
        # Example II.2: so when sigma_14 arrives the edges stamped 1-4
        # have expired and ten remain, in the list and in a service.
        earlier = events[:events.index(at_14[-1])]
        assert [e.edge.t for e in earlier if not e.is_arrival] == [1, 2, 3, 4]
        service = MatchService(10)
        service.ingest(all_edges(14))
        assert service.health()["live_edges"] == 10

    def test_chronological(self):
        events = build_event_list(all_edges(14), delta=3)
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            build_event_list(all_edges(3), delta=0)


class TestStreamDriver:
    def test_time_limit_marks_timeout(self):
        query = make_query()
        engine = OracleEngine(query, DATA_LABELS)
        driver = StreamDriver(engine, time_limit=0.0)
        result = driver.run_edges(all_edges(14), delta=10)
        assert result.timed_out
        assert result.events_processed < 28

    def test_no_limit_processes_everything(self):
        query = make_query()
        engine = OracleEngine(query, DATA_LABELS)
        result = StreamDriver(engine).run_edges(all_edges(14), delta=10)
        assert not result.timed_out
        assert result.events_processed == 28

    def test_occurrences_equal_expirations_when_drained(self):
        """Every embedding that occurs also expires (the event list
        contains the expiration of every edge)."""
        query = make_query()
        engine = OracleEngine(query, DATA_LABELS)
        result = StreamDriver(engine).run_edges(all_edges(14), delta=7)
        assert (result.occurrence_multiset()
                == result.expiration_multiset())


class TestResultsKeepWhatTheEngineReturned:
    """``StreamResult`` files one ``(event, sequence)`` per reporting
    event: TCM's blocks stay unread until somebody reads them, and a
    baseline's plain lists file as equal results."""

    #: A parallel-edge stream (about 50 embeddings per reporting event).
    CASE, _, (_, _, EMITTED) = GOLDEN["rule 1, no order"]

    def stream(self):
        labels, edges, _ = multigraph_stream(**self.CASE["stream"])
        return labels, edges, build_event_list(edges, self.CASE["delta"])

    @pytest.mark.parametrize("batch_size", [None, 16])
    def test_counting_never_builds_a_match(self, batch_size):
        labels, _, events = self.stream()
        engine = TCMEngine(self.CASE["query"], labels)
        with mock.patch.object(MatchBlock, "_matches",
                               side_effect=AssertionError("read")):
            result = StreamDriver(
                engine, batch_size=batch_size).run_events(events)
            # Drained: everything that occurred has expired.
            assert result.num_occurred == result.num_expired \
                == self.EMITTED // 2
            assert result.events_processed == len(events)
            assert engine.stats.matches_emitted == self.EMITTED
            assert 0 < engine.stats.match_groups < self.EMITTED // 4
            with pytest.raises(AssertionError, match="read"):
                result.occurred
        assert len(result.occurred) == result.num_occurred
        assert len(result.expired) == result.num_expired

    @pytest.mark.parametrize("baseline", ["symbi", "rapidflow"])
    def test_lists_and_blocks_file_equal_results(self, baseline):
        """Both baselines batch through the default ``on_batch`` loop
        and return plain lists."""
        labels, edges, events = self.stream()
        query, delta = self.CASE["query"], self.CASE["delta"]

        def driven(name, batch_size):
            return replace(StreamDriver(
                make_engine(name, query, labels),
                batch_size=batch_size).run_events(events),
                elapsed_seconds=0.0)

        blocks = driven("tcm", 16)
        assert all(type(seq) is MatchBlock for _, seq in blocks.reports)
        for batch_size in (None, 16):
            lists = driven(baseline, batch_size)
            assert all(type(seq) is list for _, seq in lists.reports)
            assert lists == blocks and blocks == lists
            assert lists.occurred == blocks.occurred
            assert lists.expired == blocks.expired

        service = MatchService(delta)
        ids = [service.register(query, labels, name)
               for name in ("tcm", baseline)]
        notifications = service.ingest(edges) + service.drain()
        by_tcm, by_baseline = (
            [n[1:] for n in notifications if n.query_id == query_id]
            for query_id in ids)
        assert by_tcm == by_baseline and len(by_tcm) == self.EMITTED
        collected = [service.registry.get(query_id).result
                     for query_id in ids]
        assert collected[0] == collected[1]
        assert collected[0].reports == blocks.reports
        assert collected[0].events_processed > 0


class TestMatch:
    def make_valid(self):
        query = make_query()
        graph = TemporalGraph(labels=DATA_LABELS)
        for i in range(1, 15):
            graph.insert_edge(SIGMA[i])
        match = Match(
            vertex_map=(1, 2, 4, 5, 7),
            edge_map=(SIGMA[1], SIGMA[8], SIGMA[11], SIGMA[13],
                      SIGMA[10], SIGMA[14]),
        )
        return query, graph, match

    def test_paper_embedding_valid(self):
        query, graph, match = self.make_valid()
        assert match.is_valid(query, graph)

    def test_contains_edge(self):
        _, _, match = self.make_valid()
        assert match.contains_edge(SIGMA[8])
        assert not match.contains_edge(SIGMA[4])

    def test_timestamps(self):
        _, _, match = self.make_valid()
        assert match.timestamps() == (1, 8, 11, 13, 10, 14)

    def test_invalid_on_order_violation(self):
        query, graph, match = self.make_valid()
        bad = Match(match.vertex_map,
                    (SIGMA[1], SIGMA[4], SIGMA[11], SIGMA[2],
                     SIGMA[9], SIGMA[5]))
        assert not bad.is_valid(query, graph)

    def test_invalid_on_duplicate_vertex(self):
        query, graph, match = self.make_valid()
        bad = Match((1, 2, 4, 5, 5), match.edge_map)
        assert not bad.is_valid(query, graph)

    def test_invalid_on_missing_edge(self):
        query, graph, match = self.make_valid()
        graph.remove_edge(SIGMA[8])
        assert not match.is_valid(query, graph)

    def test_invalid_on_label_mismatch(self):
        query, graph, match = self.make_valid()
        bad = Match((2, 1, 4, 5, 7), match.edge_map)
        assert not bad.is_valid(query, graph)

    def test_from_dicts_roundtrip(self):
        query, _, match = self.make_valid()
        rebuilt = Match.from_dicts(
            query,
            {u: v for u, v in enumerate(match.vertex_map)},
            {e: img for e, img in enumerate(match.edge_map)},
        )
        assert rebuilt == match

    def test_is_one_tuple_ordered_and_hashed_by_its_fields(self):
        """What the engines and the checks rely on: a Match *is* the
        pair ``(vertex_map, edge_map)``."""
        _, _, match = self.make_valid()
        assert isinstance(match, tuple)
        assert match._fields == ("vertex_map", "edge_map")
        assert match == Match(match.vertex_map, match.edge_map)
        assert hash(match) == hash((match.vertex_map, match.edge_map))
        assert pickle.loads(pickle.dumps(match)) == match
        others = [
            Match((1, 2, 4, 5, 7), match.edge_map[:5] + (SIGMA[7],)),
            Match((1, 2, 4, 5, 6), match.edge_map),
            Match((0, 9), ()),
            match,
        ]
        assert sorted(others) == sorted(
            others, key=lambda m: (m.vertex_map, m.edge_map))
