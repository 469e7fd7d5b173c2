"""Tests for the multi-query matching service (repro.service)."""

import json
import pickle
from unittest import mock

import pytest

from repro.bench import make_engine
from repro.cluster import ShardedMatchService
from repro.datasets import DATASET_SPECS, generate_stream
from repro.graph.temporal_graph import Edge, TemporalGraph
from repro.query import TemporalQuery
from repro.service import (
    MatchService, Notifications, OutOfOrderError, QueryRegistry,
    QueryStatus, load_checkpoint, restore, resume_edges, save_checkpoint,
    snapshot,
)
from repro.streaming import MatchBlock, StreamDriver
from repro.streaming.engine import MatchEngine
from repro.workloads import make_query_set
from tests.test_backtrack import GOLDEN, multigraph_stream

AB_QUERY = TemporalQuery(labels=["A", "B"], edges=[(0, 1)])
AB_LABELS = {0: "A", 1: "B"}


def ab_edges(n, start=1):
    """n parallel A-B edges at timestamps start, start+1, ..."""
    return [Edge.make(0, 1, t) for t in range(start, start + n)]


@pytest.fixture(params=[MatchService, ShardedMatchService],
                ids=["in-process", "sharded"])
def open_service(request):
    """``open_service(delta)`` builds the parametrized service; a
    sharded one is closed after the test."""
    opened = []

    def build(delta):
        opened.append(request.param(delta))
        return opened[-1]

    yield build
    for service in opened:
        if isinstance(service, ShardedMatchService):
            service.close()


class TestRegistry:
    def test_auto_ids_are_unique(self):
        registry = QueryRegistry()
        ids = {registry.register(AB_QUERY, AB_LABELS).query_id
               for _ in range(5)}
        assert len(ids) == 5

    def test_explicit_id_clash_rejected(self):
        registry = QueryRegistry()
        registry.register(AB_QUERY, AB_LABELS, query_id="fraud")
        with pytest.raises(ValueError, match="already registered"):
            registry.register(AB_QUERY, AB_LABELS, query_id="fraud")

    def test_unknown_engine_kind(self):
        registry = QueryRegistry()
        with pytest.raises(ValueError, match="unknown engine"):
            registry.register(AB_QUERY, AB_LABELS, engine="nope")

    def test_unregister_missing(self):
        with pytest.raises(KeyError):
            QueryRegistry().unregister("ghost")

    def test_engine_is_lazy(self):
        entry = QueryRegistry().register(AB_QUERY, AB_LABELS)
        assert not entry.engine_started
        entry.engine.on_edge_insert(Edge.make(0, 1, 1))
        assert entry.engine_started

    def test_callable_factory(self):
        def factory(query, labels, edge_label_fn=None):
            return make_engine("symbi", query, labels, edge_label_fn)

        entry = QueryRegistry().register(AB_QUERY, AB_LABELS,
                                         engine=factory)
        assert entry.engine_kind == "factory"
        assert entry.engine.name == "symbi"


class TestServiceBasics:
    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            MatchService(0)

    def test_out_of_order_ingest_rejected(self):
        service = MatchService(5)
        service.ingest([Edge.make(0, 1, 10)])
        with pytest.raises(ValueError, match="out-of-order"):
            service.ingest([Edge.make(0, 1, 9)])

    def test_stats_consistent_after_mid_batch_rejection(self):
        """Edges fanned out before an out-of-order rejection must stay
        counted: seq and edges_ingested may not drift apart."""
        service = MatchService(5)
        qid = service.register(AB_QUERY, AB_LABELS)
        with pytest.raises(ValueError, match="out-of-order"):
            service.ingest([Edge.make(0, 1, 10), Edge.make(0, 1, 9)])
        assert service.stats.edges_ingested == 1
        assert service.seq == 1
        assert service.stats.batches == 1
        assert service.query_stats(qid).occurred == 1

    def test_notification_is_one_tuple(self):
        service = MatchService(5)
        qid = service.register(AB_QUERY, AB_LABELS)
        occurred, = service.ingest([Edge.make(0, 1, 10)])
        expired, = service.drain()
        assert isinstance(occurred, tuple)
        assert occurred._fields == ("query_id", "event", "match", "seq")
        assert occurred == (qid, occurred.event, occurred.match, 0)
        assert occurred.occurred and not expired.occurred
        assert type(occurred)(qid, occurred.event, occurred.match).seq == -1

    def test_out_of_order_error_carries_prefix_notifications(self):
        """Engines and subscribers already saw the accepted prefix, so
        the exception must hand its notifications to the caller."""
        service = MatchService(5)
        service.register(AB_QUERY, AB_LABELS)
        with pytest.raises(OutOfOrderError) as excinfo:
            service.ingest([Edge.make(0, 1, 10), Edge.make(0, 1, 9)])
        delivered = excinfo.value.notifications
        assert len(delivered) == 1
        assert delivered[0].occurred
        assert delivered[0].event.edge.t == 10

    def test_drain_does_not_advance_arrival_cursor(self):
        """Draining flushes the window but must not fast-forward `now`:
        a checkpoint taken after a drain still resumes from the last
        ingested edge, not delta ticks past it."""
        service = MatchService(50)
        qid = service.register(AB_QUERY, AB_LABELS)
        service.ingest([Edge.make(0, 1, 1), Edge.make(0, 1, 10)])
        service.drain()
        assert service.now == 10
        restored = restore(snapshot(service))
        new_edges = [Edge.make(0, 1, 20), Edge.make(0, 1, 30)]
        assert list(resume_edges(restored, new_edges)) == new_edges
        restored.ingest(new_edges)
        restored.drain()
        assert restored.query_stats(qid).occurred == 4

    def test_single_query_counts(self):
        service = MatchService(3)
        qid = service.register(AB_QUERY, AB_LABELS)
        notifications = service.ingest(ab_edges(5))
        notifications += service.drain()
        stats = service.query_stats(qid)
        assert stats.occurred == 5
        assert stats.expired == 5
        # 5 arrivals + 5 expirations routed to one query.
        assert stats.events_processed == 10
        assert len(notifications) == 10
        assert service.stats.edges_ingested == 5
        assert service.stats.events_routed == 10

    def test_advance_to_expires(self, open_service):
        service = open_service(3)
        qid = service.register(AB_QUERY, AB_LABELS)
        service.ingest(ab_edges(2))          # t = 1, 2
        notifications = service.advance_to(10)
        assert [n.occurred for n in notifications] == [False, False]
        assert service.query_stats(qid).expired == 2
        assert service.now == 10
        # Batches are the calls that offer edges (ServiceStats).
        assert service.ingest([]) == service.drain() == []
        assert service.stats.batches == 2


class TestNotificationRuns:
    """A call returns the runs the engines reported, and a
    ``MatchNotification`` is built only when somebody reads it."""

    #: A parallel-edge stream (about 50 embeddings per reporting event).
    CASE, _, (_, _, EMITTED) = GOLDEN["rule 1, no order"]

    def serve(self, open_service, subscribed=()):
        """Register the case's query as ``a`` and ``b`` (one per shard),
        subscribe ``subscribed``, then ingest and drain while every block
        raises if read — in the workers too, which fork under the patch
        — except in this process during the calls, where reads are
        recorded.  Returns the result, the feeds and the blocks read."""
        labels, edges, _ = multigraph_stream(**self.CASE["stream"])
        feeds = {query_id: [] for query_id in subscribed}
        read = set()
        build = MatchBlock._matches

        def recording(block, vertex_map, rows):
            read.add(id(block))
            return build(block, vertex_map, rows)

        with mock.patch.object(MatchBlock, "_matches",
                               side_effect=AssertionError("read")):
            service = open_service(self.CASE["delta"])
            for query_id in ("a", "b"):
                feed = feeds.get(query_id)
                service.register(
                    self.CASE["query"], labels, query_id=query_id,
                    subscriber=None if feed is None else feed.append)
            with mock.patch.object(MatchBlock, "_matches", recording):
                result = service.ingest(edges) + service.drain()
            assert len(result) == 2 * self.EMITTED
            assert service.health()["status"] == "ok"
            assert service.stats.errored_queries == 0
        return result, feeds, read

    def test_ingest_and_drain_build_nothing_unread(self, open_service):
        result, _, read = self.serve(open_service)
        assert read == set()
        assert all(type(run.matches) is MatchBlock for run in result.runs)

    def test_a_subscriber_builds_only_its_querys_runs(self, open_service):
        result, feeds, read = self.serve(open_service, subscribed=["a"])
        assert read == {id(run.matches) for run in result.runs
                        if run.query_id == "a"}
        assert feeds["a"] == [n for n in result if n.query_id == "a"]
        assert len(feeds["a"]) == self.EMITTED

    def test_the_sequence_contract(self):
        """``len()`` without building, ``==`` against lists, ``+`` with
        lists and sequences, indexing, slicing, pickling, read-only."""
        labels, edges, _ = multigraph_stream(**self.CASE["stream"])
        service = MatchService(self.CASE["delta"])
        service.register(self.CASE["query"], labels)
        with mock.patch.object(MatchBlock, "_matches",
                               side_effect=AssertionError("read")):
            first, second = service.ingest(edges[:60]), service.drain()
            assert len(first) == sum(len(run.matches) for run in first.runs)
            assert len(first + second) == len(first) + len(second)
            assert first and not Notifications()
        listed, rest = list(first), list(second)
        assert first == listed and listed == first
        assert first != listed[:-1] and first != listed[::-1]
        assert first + second == listed + rest
        for joined in (first + rest, listed + second):
            assert type(joined) is Notifications
            assert joined == listed + rest
        assert first[0] == listed[0] and first[-1] == listed[-1]
        assert first[3:9] == listed[3:9]
        copy = pickle.loads(pickle.dumps(first))
        assert type(copy) is Notifications and copy == first
        with pytest.raises(TypeError):
            first[0] = listed[1]
        with pytest.raises(TypeError):
            first + 1

    def test_out_of_order_error_carries_the_prefix(self, open_service):
        labels, edges, _ = multigraph_stream(**self.CASE["stream"])
        service = open_service(self.CASE["delta"])
        reference = MatchService(self.CASE["delta"])
        for target in (service, reference):
            target.register(self.CASE["query"], labels)
        with pytest.raises(OutOfOrderError) as refused:
            service.ingest(edges[:60] + [edges[0]])
        notifications = refused.value.notifications
        assert type(notifications) is Notifications
        assert notifications and notifications == reference.ingest(edges[:60])


class TestAgreementWithStreamDriver:
    """Acceptance: a service hosting one query produces the identical
    occurrence/expiration multisets as StreamDriver on the same stream."""

    @pytest.mark.parametrize("engine", ["tcm", "symbi", "rapidflow",
                                        "timing"])
    def test_multisets_match(self, engine):
        stream = generate_stream(DATASET_SPECS["superuser"], 250, seed=3)
        graph = TemporalGraph(labels=stream.labels)
        for e in stream.edges:
            graph.insert_edge(e)
        instance = make_query_set(graph, size=4, count=1, seed=3)[0]
        delta = 80

        driver = StreamDriver(
            make_engine(engine, instance.query, stream.labels))
        expected = driver.run_edges(stream.edges, delta)

        service = MatchService(delta)
        qid = service.register(instance.query, stream.labels, engine)
        for lo in range(0, len(stream.edges), 50):   # batched ingestion
            service.ingest(stream.edges[lo:lo + 50])
        service.drain()
        result = service.registry.get(qid).result

        assert (result.occurrence_multiset()
                == expected.occurrence_multiset())
        assert (result.expiration_multiset()
                == expected.expiration_multiset())

    def test_agreement_across_engines_in_one_service(self):
        """All engine kinds hosted side by side see the same matches."""
        stream = generate_stream(DATASET_SPECS["lsbench"], 200, seed=0)
        graph = TemporalGraph(labels=stream.labels)
        for e in stream.edges:
            graph.insert_edge(e)
        instance = make_query_set(graph, size=3, count=1, seed=0)[0]
        service = MatchService(60)
        qids = [service.register(instance.query, stream.labels, kind)
                for kind in ("tcm", "symbi", "timing")]
        service.ingest(stream.edges)
        service.drain()
        results = [service.registry.get(q).result for q in qids]
        first = results[0]
        for other in results[1:]:
            assert (other.occurrence_multiset()
                    == first.occurrence_multiset())
            assert (other.expiration_multiset()
                    == first.expiration_multiset())


class TestMidStreamLifecycle:
    def test_late_query_sees_only_post_registration_matches(self):
        service = MatchService(100)
        early = service.register(AB_QUERY, AB_LABELS)
        service.ingest(ab_edges(5))                  # t = 1..5
        late = service.register(AB_QUERY, AB_LABELS)
        service.ingest(ab_edges(5, start=6))         # t = 6..10
        service.drain()
        assert service.query_stats(early).occurred == 10
        assert service.query_stats(late).occurred == 5
        # The late query never receives expirations of pre-join edges
        # (its engine would KeyError on removing an edge it never saw).
        assert service.query_stats(late).expired == 5
        assert service.query_stats(late).errors == 0
        occurred = service.registry.get(late).result.occurred
        assert min(event.edge.t for event, _ in occurred) == 6

    def test_register_from_subscriber_callback_joins_at_batch_boundary(
            self, open_service):
        """The engines have run the whole batch when its first callback
        fires, so a follow-up query registered there joins after the
        batch: it sees the next batch, and none of the expirations of
        arrivals it missed (which would corrupt its engine)."""
        service = open_service(3)
        follow_ups = []

        def register_follow_up(notification):
            if not follow_ups:
                follow_ups.append(
                    service.register(AB_QUERY, AB_LABELS))

        first = service.register(AB_QUERY, AB_LABELS,
                                 subscriber=register_follow_up)
        # delta = 3: t=1,2 expire inside batch 1, t=3..5 inside batch 2.
        notes = service.ingest(ab_edges(5))
        assert {n.query_id for n in notes} == {first}
        notes = service.ingest(ab_edges(5, start=6))
        assert [n.event.edge.t for n in notes
                if n.query_id == follow_ups[0] and not n.occurred] == [6, 7]
        service.drain()
        stats = service.query_stats(follow_ups[0])
        assert stats.errors == 0
        assert (stats.occurred, stats.expired) == (5, 5)

    def test_unregister_from_subscriber_callback_ends_callbacks_at_once(
            self, open_service):
        """Symmetric: the batch's output is fixed before its first
        callback fires, so a query unregistered there keeps its place
        in the returned list and in its final stats, but none of its
        subscribers is called again."""
        service = open_service(100)
        retired, victim_seen = [], []

        def retire(notification):
            if not retired:
                retired.append(service.unregister(victim_id))

        service.register(AB_QUERY, AB_LABELS, subscriber=retire)
        victim_id = service.register(AB_QUERY, AB_LABELS,
                                     subscriber=victim_seen.append)
        notes = service.ingest(ab_edges(3))
        assert sum(n.query_id == victim_id for n in notes) == 3
        notes = service.ingest(ab_edges(3, start=4)) + service.drain()
        assert all(n.query_id != victim_id for n in notes)
        # The first query's subscriber fired on t=1's arrival, ahead of
        # the victim's in registry order.
        assert victim_seen == []
        assert retired[0].stats.events_processed == 3
        assert retired[0].stats.occurred == 3
        with pytest.raises(KeyError):
            service.query_stats(victim_id)

    def test_unregister_stops_delivery(self):
        service = MatchService(100)
        qid = service.register(AB_QUERY, AB_LABELS)
        keep = service.register(AB_QUERY, AB_LABELS)
        service.ingest(ab_edges(4))
        entry = service.unregister(qid)
        service.ingest(ab_edges(4, start=5))
        service.drain()
        assert entry.stats.occurred == 4      # frozen at unregistration
        assert service.query_stats(keep).occurred == 8
        assert qid not in service.registry
        assert service.stats.unregistered_total == 1


class TestRouting:
    def test_subscribers_get_only_their_matches(self):
        ac_query = TemporalQuery(labels=["A", "C"], edges=[(0, 1)])
        labels = {0: "A", 1: "B", 2: "C"}
        service = MatchService(50)
        seen_ab, seen_ac = [], []
        ab = service.register(AB_QUERY, labels, subscriber=seen_ab.append)
        ac = service.register(ac_query, labels, subscriber=seen_ac.append)
        service.ingest([Edge.make(0, 1, 1), Edge.make(0, 2, 2),
                        Edge.make(0, 1, 3)])
        service.drain()
        assert {n.query_id for n in seen_ab} == {ab}
        assert {n.query_id for n in seen_ac} == {ac}
        assert sum(n.occurred for n in seen_ab) == 2
        assert sum(n.occurred for n in seen_ac) == 1
        # Expirations are routed too, flagged occurred=False.
        assert sum(not n.occurred for n in seen_ac) == 1


class FailingEngine(MatchEngine):
    """Raises on the Nth insert; used for error-isolation tests."""

    name = "failing"

    def __init__(self, query, labels, edge_label_fn=None, fail_at=3):
        super().__init__(query, labels, edge_label_fn)
        self.fail_at = fail_at
        self.inserts = 0

    def on_edge_insert(self, edge):
        self.inserts += 1
        if self.inserts >= self.fail_at:
            raise RuntimeError("engine blew up")
        return []

    def on_edge_expire(self, edge):
        return []


class TestErrorIsolation:
    def test_failing_engine_quarantined(self):
        service = MatchService(100)
        bad = service.register(AB_QUERY, AB_LABELS,
                               engine=lambda q, lb, elf=None:
                               FailingEngine(q, lb, elf))
        good = service.register(AB_QUERY, AB_LABELS)
        service.ingest(ab_edges(2))
        service.ingest(ab_edges(4, start=3))   # the third insert raises
        service.drain()
        bad_entry = service.registry.get(bad)
        assert bad_entry.status is QueryStatus.ERRORED
        assert "RuntimeError: engine blew up" in bad_entry.error
        assert bad_entry.stats.errors == 1
        # Routing to the errored query stopped with the failing batch...
        assert bad_entry.stats.events_processed == 2
        # ...while the healthy query saw the full stream.
        assert service.query_stats(good).occurred == 6
        assert service.query_stats(good).expired == 6
        assert service.stats.errored_queries == 1

    def test_failing_subscriber_quarantines_only_its_query(
            self, open_service):
        """The batch-boundary rule again: the failure ends the query's
        callbacks at once and its matching from the next batch on; the
        batch it happened in is reported whole."""
        seen = []

        def boom(notification):
            seen.append(notification)
            raise ValueError("subscriber crashed")

        service = open_service(100)
        bad = service.register(AB_QUERY, AB_LABELS, subscriber=boom)
        good = service.register(AB_QUERY, AB_LABELS)
        notes = service.ingest(ab_edges(3))
        assert len(seen) == 1
        assert sum(n.query_id == bad for n in notes) == 3
        stats = service.query_stats(bad)
        assert (stats.occurred, stats.errors) == (3, 1)
        assert service.stats.errored_queries == 1
        notes = service.ingest(ab_edges(3, start=4)) + service.drain()
        assert {n.query_id for n in notes} == {good}
        assert service.query_stats(good).occurred == 6


class TestCheckpoint:
    def make_service(self):
        service = MatchService(4)
        service.register(AB_QUERY, AB_LABELS, "tcm", query_id="fraud")
        service.register(
            TemporalQuery(labels=["A", "B", "A"], edges=[(0, 1), (1, 2)],
                          order_pairs=[(0, 1)]),
            {0: "A", 1: "B", 2: "A"}, "symbi", query_id="ddos")
        return service

    def test_round_trip_preserves_registry(self, tmp_path):
        service = self.make_service()
        service.ingest(ab_edges(6))
        path = str(tmp_path / "service.json")
        save_checkpoint(service, path)
        restored = load_checkpoint(path)

        assert restored.delta == service.delta
        assert restored.now == service.now
        assert restored.seq == service.seq
        assert restored.stats.edges_ingested == 6
        assert restored.stats.registered_total == 2
        assert [e.query_id for e in restored.registry.list()] == \
            ["fraud", "ddos"]
        for original, rebuilt in zip(service.registry.list(),
                                     restored.registry.list()):
            assert rebuilt.engine_kind == original.engine_kind
            assert rebuilt.labels == original.labels
            assert rebuilt.query.labels == original.query.labels
            assert (rebuilt.query.order.pairs()
                    == original.query.order.pairs())
            assert rebuilt.stats.occurred == original.stats.occurred

    def test_restored_service_resumes_ingestion(self, tmp_path):
        edges = ab_edges(10)
        service = self.make_service()
        service.ingest(edges[:6])
        path = str(tmp_path / "service.json")
        save_checkpoint(service, path)

        restored = load_checkpoint(path)
        remaining = list(resume_edges(restored, edges))
        assert [e.t for e in remaining] == [7, 8, 9, 10]
        restored.ingest(remaining)
        restored.drain()
        stats = restored.query_stats("fraud")
        # 6 pre-checkpoint + 4 post-restore occurrences.
        assert stats.occurred == 10
        # 2 edges expired pre-checkpoint; the 4 live at the checkpoint
        # came back with the window and expire like the 4 later ones.
        assert stats.expired == 10

    def test_snapshot_is_json(self):
        service = self.make_service()
        data = json.loads(json.dumps(snapshot(service)))
        assert data["format"].startswith("repro.service.checkpoint")
        assert len(data["queries"]) == 2

    def test_restore_rejects_other_formats(self):
        with pytest.raises(ValueError, match="not a service checkpoint"):
            restore({"format": "something/else"})

    def test_custom_factory_not_checkpointable(self):
        service = MatchService(4)
        service.register(AB_QUERY, AB_LABELS,
                         engine=lambda q, lb, elf=None:
                         make_engine("tcm", q, lb, elf))
        with pytest.raises(ValueError, match="custom factory"):
            snapshot(service)

    def test_failed_save_preserves_existing_checkpoint(self, tmp_path):
        """A snapshot failure must not truncate a good checkpoint."""
        path = str(tmp_path / "service.json")
        save_checkpoint(self.make_service(), path)
        good = open(path).read()

        broken = MatchService(4)
        broken.register(AB_QUERY, AB_LABELS,
                        engine=lambda q, lb, elf=None:
                        make_engine("tcm", q, lb, elf))
        with pytest.raises(ValueError, match="custom factory"):
            save_checkpoint(broken, path)
        assert open(path).read() == good
        assert len(load_checkpoint(path).registry) == 2

    def test_custom_factory_named_like_engine_kind_still_rejected(self):
        """A factory whose __name__ collides with a registered kind
        must not slip through the guard and restore as the stock
        engine."""
        def tcm(query, labels, edge_label_fn=None):
            return make_engine("symbi", query, labels, edge_label_fn)

        service = MatchService(4)
        service.register(AB_QUERY, AB_LABELS, engine=tcm)
        with pytest.raises(ValueError, match="custom factory"):
            snapshot(service)

    def test_snapshot_flags_subscribers(self):
        """Callbacks cannot be serialized; the snapshot must at least
        say which queries need re-subscribing after a restore."""
        service = MatchService(4)
        service.register(AB_QUERY, AB_LABELS, query_id="alerting",
                         subscriber=lambda n: None)
        service.register(AB_QUERY, AB_LABELS, query_id="quiet")
        flags = {q["query_id"]: q["has_subscribers"]
                 for q in snapshot(service)["queries"]}
        assert flags == {"alerting": True, "quiet": False}

    def test_edge_label_fn_requires_replacement(self, tmp_path):
        service = MatchService(4)
        service.register(AB_QUERY, AB_LABELS, query_id="labeled",
                         edge_label_fn=lambda e: None)
        data = snapshot(service)
        with pytest.raises(ValueError, match="edge_label_fn"):
            restore(data)
        restored = restore(data,
                           edge_label_fns={"labeled": lambda e: None})
        assert "labeled" in restored.registry
