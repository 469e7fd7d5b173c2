"""Tests for interest-aware event routing (repro.service.interest)."""

import json

import pytest

from repro.graph.temporal_graph import Edge
from repro.query import TemporalQuery
from repro.service import (
    MatchService, QueryInterestIndex, QueryRegistry, QueryStatus,
    query_pattern_keys, restore, snapshot,
)

AB_QUERY = TemporalQuery(labels=["A", "B"], edges=[(0, 1)])
CD_QUERY = TemporalQuery(labels=["C", "D"], edges=[(0, 1)])
LABELS = {0: "A", 1: "B", 2: "C", 3: "D", 4: "E", 5: "F"}


def ab_edges(n, start=1):
    return [Edge.make(0, 1, t) for t in range(start, start + n)]


def cd_edges(n, start=1):
    return [Edge.make(2, 3, t) for t in range(start, start + n)]


class TestPatternKeys:
    def test_undirected_admits_both_orders(self):
        keys = query_pattern_keys(AB_QUERY)
        assert keys == {("A", "B", None), ("B", "A", None)}

    def test_directed_single_order(self):
        query = TemporalQuery(labels=["A", "B"], edges=[(0, 1)],
                              directed=True)
        assert query_pattern_keys(query) == {("A", "B", None)}

    def test_edge_labels_in_keys(self):
        query = TemporalQuery(labels=["A", "B"], edges=[(0, 1)],
                              edge_labels=["x"])
        assert query_pattern_keys(query) == {("A", "B", "x"),
                                             ("B", "A", "x")}


class TestIndex:
    def test_lookup_routes_by_label_pair(self):
        index = QueryInterestIndex()
        index.add("ab", AB_QUERY, LABELS)
        index.add("cd", CD_QUERY, LABELS)
        assert set(index.lookup_ids(Edge.make(0, 1, 1))) == {"ab"}
        assert set(index.lookup_ids(Edge.make(2, 3, 1))) == {"cd"}
        assert set(index.lookup_ids(Edge.make(4, 5, 1))) == set()

    def test_unknown_vertex_is_conservative(self):
        """Endpoints without labels route to the whole domain, so the
        engines fail exactly as they would without pruning."""
        index = QueryInterestIndex()
        index.add("ab", AB_QUERY, LABELS)
        index.add("cd", CD_QUERY, LABELS)
        assert set(index.lookup_ids(Edge.make(0, 99, 1))) == {"ab", "cd"}

    def test_unindexable_query_always_interested(self):
        index = QueryInterestIndex()
        index.add("custom", AB_QUERY, LABELS, indexable=False)
        index.add("cd", CD_QUERY, LABELS)
        assert set(index.lookup_ids(Edge.make(2, 3, 1))) == {"cd", "custom"}
        assert set(index.lookup_ids(Edge.make(4, 5, 1))) == {"custom"}

    def test_remove_retires_interest(self):
        index = QueryInterestIndex()
        index.add("ab", AB_QUERY, LABELS)
        index.remove("ab")
        assert set(index.lookup_ids(Edge.make(0, 1, 1))) == set()
        assert "ab" not in index

    def test_separate_label_domains(self):
        """The same vertex may be labeled differently by different
        queries; each query is judged by its own labels."""
        index = QueryInterestIndex()
        index.add("ab", AB_QUERY, {0: "A", 1: "B"})
        index.add("ba", AB_QUERY, {0: "B", 1: "A"})
        interested = index.lookup_ids(Edge.make(0, 1, 1))
        assert set(interested) == {"ab", "ba"}
        # A third domain labeling (0, 1) as C-C sees no A-B edge there.
        index.add("cc", AB_QUERY, {0: "C", 1: "C"})
        assert set(index.lookup_ids(Edge.make(0, 1, 1))) == {"ab", "ba"}

    def test_edge_label_refinement(self):
        labeled = TemporalQuery(labels=["A", "B"], edges=[(0, 1)],
                                edge_labels=["x"])
        elabels = {Edge.make(0, 1, 1): "x", Edge.make(0, 1, 2): "y"}
        index = QueryInterestIndex()
        index.add("lx", labeled, {0: "A", 1: "B"},
                  edge_label_fn=elabels.get)
        index.add("wild", AB_QUERY, {0: "A", 1: "B"},
                  edge_label_fn=elabels.get)
        assert set(index.lookup_ids(Edge.make(0, 1, 1))) == {"lx", "wild"}
        # Wrong edge label: only the wildcard query cares.
        assert set(index.lookup_ids(Edge.make(0, 1, 2))) == {"wild"}
        # Unlabeled data edge cannot match a labeled query edge.
        assert set(index.lookup_ids(Edge.make(0, 1, 3))) == {"wild"}

    def test_registry_owns_index(self):
        registry = QueryRegistry()
        entry = registry.register(AB_QUERY, LABELS, "tcm")
        assert entry.query_id in registry.interest
        registry.unregister(entry.query_id)
        assert entry.query_id not in registry.interest


class TestRoutedService:
    def test_skipped_events_touch_no_engine(self):
        """The small-fix contract: a skipped event costs the query no
        engine dispatch, no timer, and no error bookkeeping."""
        service = MatchService(50)
        ab = service.register(AB_QUERY, LABELS, query_id="ab")
        cd = service.register(CD_QUERY, LABELS, query_id="cd")
        service.ingest(ab_edges(5))
        service.drain()
        assert service.query_stats(ab).events_processed == 10
        assert service.query_stats(ab).events_skipped == 0
        cd_stats = service.query_stats(cd)
        assert cd_stats.events_processed == 0
        assert cd_stats.events_skipped == 10
        assert cd_stats.errors == 0
        assert cd_stats.elapsed_seconds == 0.0
        assert not service.registry.get(cd).engine_started
        assert service.stats.events_routed == 10
        assert service.stats.events_skipped == 10

    def test_errored_query_neither_routed_nor_skipped(self):
        def boom(notification):
            raise ValueError("subscriber crashed")

        service = MatchService(50)
        bad = service.register(AB_QUERY, LABELS, subscriber=boom)
        service.ingest(ab_edges(1))
        assert service.registry.get(bad).status is QueryStatus.ERRORED
        frozen = service.query_stats(bad).events_skipped
        service.ingest(ab_edges(1, start=2))
        service.ingest(cd_edges(1, start=3))
        assert service.query_stats(bad).events_skipped == frozen
        assert service.query_stats(bad).events_processed == 1

    def test_raising_edge_label_fn_quarantines_only_its_query(self):
        """A throwing edge_label_fn must fail inside the per-query
        isolation boundary, never abort the whole
        ingest from inside the interest lookup."""
        labeled = TemporalQuery(labels=["A", "B"], edges=[(0, 1)],
                                edge_labels=["x"])
        empty = {}
        service = MatchService(50)
        bad = service.register(labeled, LABELS, query_id="bad",
                               edge_label_fn=empty.__getitem__)
        good = service.register(AB_QUERY, LABELS, query_id="good")
        service.ingest(ab_edges(3))
        assert service.registry.get(bad).status is QueryStatus.ERRORED
        assert "KeyError" in service.registry.get(bad).error
        assert service.query_stats(good).occurred == 3

    def test_restored_service_keeps_routing(self):
        service = MatchService(50)
        service.register(AB_QUERY, LABELS, query_id="ab")
        service.register(CD_QUERY, LABELS, query_id="cd")
        service.ingest(ab_edges(2))
        restored = restore(json.loads(json.dumps(snapshot(service))))
        restored.ingest(ab_edges(2, start=10))
        # 2 skips carried over in the checkpointed counters + 2 fresh.
        assert restored.query_stats("cd").events_skipped == 4
        assert restored.query_stats("ab").events_processed == 4

    def test_mid_stream_registration_mutates_interest(self):
        service = MatchService(100)
        service.register(AB_QUERY, LABELS, query_id="ab")
        service.ingest(cd_edges(3))
        assert service.query_stats("ab").events_skipped == 3
        service.register(CD_QUERY, LABELS, query_id="cd")
        service.ingest(cd_edges(3, start=4))
        assert service.query_stats("cd").events_processed == 3
        service.unregister("cd")
        service.ingest(cd_edges(3, start=8))
        assert service.query_stats("ab").events_skipped == 9


class TestIngestRouted:
    def test_full_stream_matches_ingest(self):
        edges = sorted(ab_edges(10) + cd_edges(10), key=lambda e: e.t)
        plain = MatchService(5)
        plain.register(AB_QUERY, LABELS, query_id="ab")
        expected = plain.ingest(edges) + plain.drain()

        routed = MatchService(5)
        routed.register(AB_QUERY, LABELS, query_id="ab")
        pairs = [(edge, seq) for seq, edge in enumerate(edges)]
        notes = routed.ingest_routed(pairs, edges[-1].t, len(edges))
        notes += routed.drain()
        assert notes == expected
        assert routed.seq == plain.seq
        assert routed.now == plain.now

    def test_subset_stream_matches_full(self):
        """Feeding only the interesting subset (with global seqs and
        the batch cursor) produces the same notifications as the full
        stream — the skipped edges never matched anything."""
        edges = sorted(ab_edges(10) + cd_edges(10), key=lambda e: e.t)
        plain = MatchService(5)
        plain.register(AB_QUERY, LABELS, query_id="ab")
        expected = plain.ingest(edges) + plain.drain()

        service = MatchService(5)
        service.register(AB_QUERY, LABELS, query_id="ab")
        notes = []
        for lo in range(0, len(edges), 7):
            chunk = edges[lo:lo + 7]
            pairs = [(edge, lo + i) for i, edge in enumerate(chunk)
                     if edge.u == 0]          # A-B edges only
            notes += service.ingest_routed(
                pairs, chunk[-1].t, lo + len(chunk))
        notes += service.drain()
        assert notes == expected
        assert service.seq == plain.seq
        assert service.now == plain.now

    def test_mid_batch_registration_joins_at_global_seq(self):
        service = MatchService(100)
        service.ingest_routed([], 5, 7)       # cursor advances past 7
        qid = service.register(AB_QUERY, LABELS)
        assert service.registry.get(qid).joined_seq == 7

    def test_out_of_order_routed_batch_rejected(self):
        service = MatchService(5)
        service.ingest(ab_edges(1, start=10))
        with pytest.raises(ValueError, match="out-of-order"):
            service.ingest_routed([(Edge.make(0, 1, 3), 1)], 3, 2)
        # Refused whole: no cursor, counter or window moved.
        assert (service.now, service.seq) == (10, 1)
        assert service.stats.batches == service.stats.edges_ingested == 1
