"""Equivalence and fault-tolerance tests for repro.cluster.

The acceptance bar for the sharded service is *byte-identical output*:
the merged notification stream (and therefore every per-query
occurrence/expiration multiset) of a ``ShardedMatchService`` with 1, 2
or 4 workers must equal the in-process ``MatchService`` on the same
scripted scenario — every engine kind, mid-stream register/unregister,
and a checkpoint/restore cycle included — and a Hypothesis property
holds random control scripts (ingest, advance, register, unregister,
migrate, add / drain a worker) to the same bar.  On top of that sit the
cluster-only behaviours: which shards a clock advance contacts,
worker-crash quarantine, coordinator-side subscriber isolation, and
placement routing around dead shards.
"""

import inspect
import itertools
import json
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.cluster import (
    ShardedMatchService, UnpackableEdgeError, WorkerCrashError,
)
from repro.cluster import checkpoint as cluster_checkpoint
from repro.cluster import protocol, wire
from repro.cluster.placement import ShardPlacement
from repro.cluster.worker import ShardWorker
from repro.core.tcm import TCMEngine
from repro.datasets import DATASET_SPECS, generate_stream
from repro.graph.temporal_graph import Edge, TemporalGraph
from repro.obs import MetricsRegistry
from repro.query import TemporalQuery
from repro.service import (
    MatchService, OutOfOrderError, QueryRegistry, QueryStatus,
    query_pattern_keys,
)
from repro.service.checkpoint import (
    restore as restore_single, resume_edges, snapshot as single_snapshot,
)
from repro.streaming.engine import MatchEngine
from repro.workloads import make_mixed_query_set
from tests.test_recovery import hard_timeout  # noqa: F401 - a fixture

AB_QUERY = TemporalQuery(labels=["A", "B"], edges=[(0, 1)])
AB_LABELS = {0: "A", 1: "B"}

#: Every registered engine kind appears in the scenario.
ENGINE_CYCLE = ["tcm", "tcm-pruning", "symbi", "rapidflow", "timing",
                "tcm"]

DELTA = 80
BATCH = 40


def ab_edges(n, start=1):
    return [Edge.make(0, 1, t) for t in range(start, start + n)]


def roundtrips(registry, workers):
    """Request/reply exchanges per shard so far."""
    return [registry.counter("cluster_roundtrips_total",
                             shard=str(shard)).value
            for shard in range(workers)]


def counting(calls, name):
    """``wire.<name>`` wrapped to count its calls in ``calls[name]``
    (``ledger/trace.py`` wraps the same module attributes)."""
    original = getattr(wire, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)
    return wrapper


@pytest.fixture(scope="module")
def workload():
    stream = generate_stream(DATASET_SPECS["superuser"], 240, seed=7)
    graph = TemporalGraph(labels=stream.labels)
    for e in stream.edges:
        graph.insert_edge(e)
    instances = make_mixed_query_set(graph, 6, sizes=(3, 4), seed=2)
    assert len(instances) == 6
    return stream, instances


def drive_scenario(service, stream, instances):
    """One scripted service lifetime: 4 queries up front, one joining
    mid-stream, one retiring mid-stream, one joining late.  Returns the
    full notification list, per-query stats, and the retired entry."""
    edges = stream.edges
    batches = [edges[lo:lo + BATCH] for lo in range(0, len(edges), BATCH)]
    for i in range(4):
        service.register(instances[i].query, stream.labels,
                         ENGINE_CYCLE[i], query_id=f"q{i}")
    notes = []
    notes += service.ingest(batches[0])
    notes += service.ingest(batches[1])
    service.register(instances[4].query, stream.labels, ENGINE_CYCLE[4],
                     query_id="q4")
    notes += service.ingest(batches[2])
    retired = service.unregister("q1")
    notes += service.ingest(batches[3])
    service.register(instances[5].query, stream.labels, ENGINE_CYCLE[5],
                     query_id="q5")
    notes += service.ingest(batches[4])
    notes += service.ingest(batches[5])
    notes += service.drain()
    stats = {}
    for query_id in ("q0", "q2", "q3", "q4", "q5"):
        s = service.query_stats(query_id)
        stats[query_id] = (s.occurred, s.expired, s.events_processed,
                           s.errors)
    return notes, stats, retired


@pytest.fixture(scope="module")
def single_outcome(workload):
    stream, instances = workload
    return drive_scenario(MatchService(DELTA), stream, instances)


class TestEquivalence:
    """Sharded output must equal the in-process service exactly."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_scenario_identical_to_single_process(self, workload,
                                                  single_outcome, workers):
        stream, instances = workload
        expected_notes, expected_stats, expected_retired = single_outcome
        with ShardedMatchService(DELTA, workers=workers) as service:
            notes, stats, retired = drive_scenario(service, stream,
                                                   instances)
            assert service.stats.errored_queries == 0
            assert service.stats.events_routed > 0
        # The merged stream is identical element-for-element: same
        # events, same matches, same sequence numbers, same order.
        assert notes == expected_notes
        assert stats == expected_stats
        assert retired.stats.occurred == expected_retired.stats.occurred
        assert retired.stats.expired == expected_retired.stats.expired

    def test_service_counters_match_single(self, workload,
                                           single_outcome):
        stream, instances = workload
        single = MatchService(DELTA)
        drive_scenario(single, stream, instances)
        with ShardedMatchService(DELTA, workers=2) as service:
            drive_scenario(service, stream, instances)
            assert (service.stats.edges_ingested
                    == single.stats.edges_ingested)
            assert service.stats.events_routed == single.stats.events_routed
            assert service.stats.batches == single.stats.batches
            assert (service.stats.registered_total
                    == single.stats.registered_total)
            assert service.seq == single.seq
            assert service.now == single.now

    def test_out_of_order_prefix_matches_single(self):
        batch = [Edge.make(0, 1, 10), Edge.make(0, 1, 9)]
        single = MatchService(5)
        single.register(AB_QUERY, AB_LABELS, query_id="q")
        with pytest.raises(OutOfOrderError) as single_exc:
            single.ingest(batch)
        with ShardedMatchService(5, workers=2) as service:
            service.register(AB_QUERY, AB_LABELS, query_id="q")
            with pytest.raises(OutOfOrderError) as sharded_exc:
                service.ingest(batch)
            assert (sharded_exc.value.notifications
                    == single_exc.value.notifications)
            assert service.seq == single.seq
            assert service.now == single.now
            assert (service.stats.edges_ingested
                    == single.stats.edges_ingested)
            # Both services remain usable after the rejection.
            assert (service.ingest([Edge.make(0, 1, 12)])
                    == single.ingest([Edge.make(0, 1, 12)]))

    def test_non_int64_edge_rejected_before_anything_moves(self):
        """Edges reach workers only as packed int64 frames, so a batch
        holding anything else is refused as a whole, up front: nothing
        counted, scheduled or sent, and the next valid batch behaves as
        if the bad one had never been offered."""
        single = MatchService(5)
        single.register(AB_QUERY, AB_LABELS, query_id="q")
        good = [Edge.make(0, 1, 1), Edge.make(0, 1, 2)]
        with ShardedMatchService(5, workers=2) as service:
            service.register(AB_QUERY, AB_LABELS, query_id="q")

            def state():
                return (service.seq, service.now, astuple(service.stats),
                        service.events_unshipped,
                        list(service.shard_shipped),
                        list(service.shard_unshipped),
                        list(service._live))

            before = state()
            for bad in (Edge("a", "b", 2), Edge(0, 1, 2.5),
                        Edge(0, 1 << 63, 2)):
                with pytest.raises(UnpackableEdgeError, match="edge 1 "):
                    service.ingest([good[0], bad])
                assert state() == before
            assert service.ingest(good) == single.ingest(good)
            assert service.drain() == single.drain()
            assert service.shard_shipped == [2, 0]

    def test_advance_to_matches_single(self):
        single = MatchService(3)
        single.register(AB_QUERY, AB_LABELS, query_id="q")
        with ShardedMatchService(3, workers=2) as service:
            service.register(AB_QUERY, AB_LABELS, query_id="q")
            assert service.ingest(ab_edges(2)) == single.ingest(ab_edges(2))
            assert service.advance_to(10) == single.advance_to(10)
            assert service.now == single.now == 10

    def test_advance_to_contacts_only_shards_with_expirations_due(self):
        """An ``advance_to`` is an empty batch with a later clock: a
        shard whose window is empty is not sent anything."""
        registry = MetricsRegistry()
        with ShardedMatchService(3, workers=2,
                                 metrics=registry) as service:
            service.register(AB_QUERY, AB_LABELS, query_id="q")
            before = roundtrips(registry, 2)
            assert service.advance_to(10) == []
            assert service.now == 10
            assert roundtrips(registry, 2) == before
            service.ingest(ab_edges(2, start=11))       # shard 0 only
            before = roundtrips(registry, 2)
            assert len(service.advance_to(20)) == 2
            assert roundtrips(registry, 2) == [before[0] + 1, before[1]]
            assert service.advance_to(30) == []         # nothing left
            assert roundtrips(registry, 2) == [before[0] + 1, before[1]]


class TestClockAdvanceFrames:
    """A shard with nothing to ingest is sent a clock-advance frame
    exactly when one of its queries holds an edge falling due: an edge
    of the coordinator's window that the query is routed, is not
    detached from, and that arrived at or after its join cursor."""

    def both(self, single, service, call, *args, **kwargs):
        """``call`` on both services; their answers must agree."""
        answer = getattr(single, call)(*args, **kwargs)
        assert getattr(service, call)(*args, **kwargs) == answer
        return answer

    def stats(self, service, query_id):
        s = service.query_stats(query_id)
        return s.occurred, s.expired, s.events_processed, s.errors

    @pytest.mark.parametrize("leave", ["migrate", "unregister"])
    def test_the_shard_a_query_left_is_not_contacted(self, leave):
        single, registry = MatchService(5), MetricsRegistry()
        with ShardedMatchService(5, workers=2, metrics=registry) as service:
            for query_id in ("a", "b"):
                self.both(single, service, "register", AB_QUERY, AB_LABELS,
                          "tcm", query_id=query_id)
            assert (service.shard_of("a"), service.shard_of("b")) == (0, 1)
            self.both(single, service, "ingest", ab_edges(3))
            if leave == "migrate":
                service.migrate("a", 1)
            else:
                service.unregister("a")
                single.unregister("a")
            before = roundtrips(registry, 2)
            expired = self.both(single, service, "advance_to", 20)
            assert len(expired) == (6 if leave == "migrate" else 3)
            assert roundtrips(registry, 2) == [before[0], before[1] + 1]

    def test_a_query_that_joined_later_is_not_owed_the_expiration(self):
        single, registry = MatchService(5), MetricsRegistry()
        with ShardedMatchService(5, workers=2, metrics=registry) as service:
            self.both(single, service, "register", AB_QUERY, AB_LABELS,
                      "tcm", query_id="early")
            self.both(single, service, "ingest", ab_edges(3))
            self.both(single, service, "register", AB_QUERY, AB_LABELS,
                      "tcm", query_id="late")
            assert service.shard_of("late") == 1
            before = roundtrips(registry, 2)
            assert len(self.both(single, service, "advance_to", 20)) == 3
            assert roundtrips(registry, 2) == [before[0] + 1, before[1]]

    def test_a_query_landing_where_edges_are_overdue_never_held_them(self):
        """Shard 0 keeps its copy of three edges past their window
        (once ``a`` is gone nobody there holds them, so no clock is
        sent); ``b`` already saw them expire on shard 1, and landing on
        shard 0 must not dispatch it their expirations again."""
        single = MatchService(5)
        with ShardedMatchService(5, workers=2) as service:
            for query_id in ("a", "b"):
                self.both(single, service, "register", AB_QUERY, AB_LABELS,
                          "tcm", query_id=query_id)
            self.both(single, service, "ingest", ab_edges(3))
            service.unregister("a")
            single.unregister("a")
            self.both(single, service, "advance_to", 10)
            service.migrate("b", 0)
            self.both(single, service, "ingest", ab_edges(1, start=11))
            self.both(single, service, "drain")
            assert self.stats(service, "b") == self.stats(single, "b") \
                == (4, 4, 8, 0)


class TestRouting:
    """Shard routing under disjoint interests and label-function
    failures reproduces the single-process output."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_split_batches_with_interest_mutation(self, workers):
        """Disjoint-label queries: batches split per shard, mid-stream
        register/unregister mutates the coordinator's interest tables,
        and the merged stream still equals the single service's."""
        ef_query = TemporalQuery(labels=["E", "F"], edges=[(0, 1)])
        labels = {0: "A", 1: "B", 2: "C", 3: "D", 4: "E", 5: "F"}
        cd_query = TemporalQuery(labels=["C", "D"], edges=[(0, 1)])
        pattern = [Edge.make(0, 1, 0), Edge.make(2, 3, 0),
                   Edge.make(4, 5, 0)]
        edges = [Edge.make(pattern[t % 3].u, pattern[t % 3].v, t)
                 for t in range(1, 61)]
        batches = [edges[lo:lo + 10] for lo in range(0, len(edges), 10)]

        def drive(service):
            service.register(AB_QUERY, AB_LABELS, query_id="ab")
            service.register(cd_query, labels, query_id="cd")
            notes = []
            notes += service.ingest(batches[0])
            notes += service.ingest(batches[1])
            service.register(ef_query, labels, query_id="ef")
            notes += service.ingest(batches[2])
            notes += service.ingest(batches[3])
            service.unregister("cd")
            notes += service.ingest(batches[4])
            notes += service.ingest(batches[5])
            notes += service.drain()
            stats = {}
            for query_id in ("ab", "ef"):
                s = service.query_stats(query_id)
                stats[query_id] = (s.occurred, s.expired,
                                   s.events_processed, s.errors)
            return notes, stats

        expected = drive(MatchService(15))
        with ShardedMatchService(15, workers=workers) as service:
            outcome = drive(service)
            # Disjoint interests: routing must actually elide traffic.
            assert service.events_unshipped > 0
        assert outcome == expected

    def test_raising_edge_label_fn_quarantines_only_its_query(self):
        """The coordinator's shard-interest lookup evaluates
        edge_label_fn too; a throwing callable must quarantine only its
        query inside the owning worker, not abort the batch."""
        labeled = TemporalQuery(labels=["A", "B"], edges=[(0, 1)],
                                edge_labels=["x"])
        empty = {}
        with ShardedMatchService(100, workers=2) as service:
            bad = service.register(labeled, AB_LABELS, query_id="bad",
                                   edge_label_fn=empty.__getitem__)
            good = service.register(AB_QUERY, AB_LABELS, query_id="good")
            service.ingest(ab_edges(3))
            entry = service.get(bad)
            assert entry.status is QueryStatus.ERRORED
            assert "KeyError" in entry.error
            assert service.query_stats(good).occurred == 3
            assert service.live_workers == 2

    def test_edge_labeled_directed_equivalence(self):
        """netflow: directed stream with per-edge labels — the interest
        triples must refine on edge labels without changing output."""
        stream = generate_stream(DATASET_SPECS["netflow"], 200, seed=5)
        graph = TemporalGraph(labels=stream.labels,
                              directed=stream.directed)
        elabels = stream.edge_labels or {}
        for e in stream.edges:
            graph.insert_edge(e, label=elabels.get(e))
        instances = make_mixed_query_set(graph, 4, sizes=(3, 4), seed=1)
        assert instances

        def drive(service):
            for i, instance in enumerate(instances):
                service.register(instance.query, stream.labels, "tcm",
                                 query_id=f"q{i}",
                                 edge_label_fn=elabels.get)
            notes = []
            for lo in range(0, len(stream.edges), 40):
                notes += service.ingest(stream.edges[lo:lo + 40])
            notes += service.drain()
            stats = {f"q{i}": service.query_stats(f"q{i}").occurred
                     for i in range(len(instances))}
            return notes, stats

        expected = drive(MatchService(60))
        with ShardedMatchService(60, workers=2) as service:
            outcome = drive(service)
        assert outcome == expected


def tcm_factory(query, labels, edge_label_fn=None):
    """A custom factory (module-level: it crosses the worker pipe)."""
    return TCMEngine(query, labels, edge_label_fn=edge_label_fn)


class TestRoutingDecision:
    """The coordinator routes from the registrations it holds.  What it
    must elide is worked out here from ``query_pattern_keys`` and the
    placement alone and compared with its counters."""

    LABELS = {0: "A", 1: "B", 2: "C", 3: "D", 4: "E", 5: "F"}
    #: A-B, C-D, E-F in turn.
    PAIRS = [(0, 1), (2, 3), (4, 5)]

    def stream(self, start, n=9):
        return [Edge.make(*self.PAIRS[t % 3], t)
                for t in range(start, start + n)]

    def by_keys(self, query, labels):
        """Interest of a stock, unlabelled-edge query: one of its
        pattern keys, or an endpoint its labels do not cover."""
        keys = query_pattern_keys(query)

        def wants(edge):
            src, dst = labels.get(edge.u), labels.get(edge.v)
            return None in (src, dst) or (src, dst, None) in keys
        return wants

    def elided(self, service, wants_of, edges):
        """Per shard the coordinator holds live: how many of ``edges``
        no query placed there wants."""
        live = [shard["shard"] for shard in service.health()["shards"]
                if shard["alive"]]
        hosted = {shard: [] for shard in range(service.num_workers)}
        for query_id in service.registered_ids():
            hosted[service.shard_of(query_id)].append(wants_of[query_id])
        return {shard: sum(1 for edge in edges
                           if not any(wants(edge)
                                      for wants in hosted[shard]))
                for shard in live}

    @pytest.mark.parametrize("workers", [2, 3])
    def test_elisions_follow_pattern_keys_and_placement(self, workers):
        labels = self.LABELS
        stock = {name: TemporalQuery(labels=list(name.upper()),
                                     edges=[(0, 1)])
                 for name in ("ab", "cd", "ef")}
        labeled = TemporalQuery(labels=["A", "B"], edges=[(0, 1)],
                                edge_labels=["x"])
        wants_of = {name: self.by_keys(query, labels)
                    for name, query in stock.items()}
        # A custom factory is never indexed; an edge_label_fn that
        # raises sends every edge to its query's engine to raise there.
        wants_of["custom"] = wants_of["bad"] = lambda edge: True
        expected = [0] * workers

        with ShardedMatchService(30, workers=workers) as service:
            def ingest(edges):
                elided = self.elided(service, wants_of, edges)
                for shard, count in elided.items():
                    expected[shard] += count
                service.ingest(edges)
                assert service.shard_unshipped == expected
                assert service.events_unshipped == sum(expected)
                return elided

            for name, query in stock.items():
                service.register(query, labels, query_id=name)
            first = ingest(self.stream(1))
            assert all(first.values())      # every shard is spared some

            service.register(AB_QUERY, labels, tcm_factory,
                             query_id="custom")
            always = service.shard_of("custom")
            assert ingest(self.stream(10))[always] == 0
            service.unregister("custom")

            service.register(labeled, AB_LABELS, query_id="bad",
                             edge_label_fn={}.__getitem__)
            always = service.shard_of("bad")
            assert ingest(self.stream(19))[always] == 0
            assert service.get("bad").status is QueryStatus.ERRORED
            # Quarantined is still registered, so still routed for.
            assert ingest(self.stream(28))[always] == 0
            service.unregister("bad")

            # Migrated: the router follows the placement.
            source = service.shard_of("ab")
            service.migrate("ab")
            assert service.shard_of("ab") != source
            ingest(self.stream(37))
            ingest(self.stream(46))

            # A worker dies: the batch that finds out was routed while
            # it still counted as live; the next one is not.
            victim = service.shard_of("cd")
            handle = service._backend._workers[victim]
            handle.process.kill()
            handle.process.join()
            assert victim in ingest(self.stream(55))
            assert service.live_workers == workers - 1
            assert victim not in ingest(self.stream(64))
            # An edge to a vertex nobody labelled goes wherever a query
            # of that label domain lives (all three are, here).
            hosting = service.placement_snapshot()["shards"]
            stray = ingest([Edge.make(0, 99, 80)])
            assert stray == {shard: int(not hosting[str(shard)]["queries"])
                             for shard in stray}
            assert 0 in stray.values()
        assert sum(expected) > 0


class TestCheckpoint:
    def checkpointed_halves(self, workload):
        stream, instances = workload
        edges = stream.edges
        return edges[:120], edges

    def test_round_trip_matches_single_restore(self, workload, tmp_path):
        stream, instances = workload
        first_half, edges = self.checkpointed_halves(workload)

        single = MatchService(DELTA)
        for i in range(4):
            single.register(instances[i].query, stream.labels,
                            ENGINE_CYCLE[i], query_id=f"q{i}")
        single.ingest(first_half)
        single_restored = restore_single(
            json.loads(json.dumps(single_snapshot(single))))
        expected = single_restored.ingest(
            list(resume_edges(single_restored, edges)))
        expected += single_restored.drain()

        with ShardedMatchService(DELTA, workers=2) as service:
            for i in range(4):
                service.register(instances[i].query, stream.labels,
                                 ENGINE_CYCLE[i], query_id=f"q{i}")
            service.ingest(first_half)
            path = str(tmp_path / "cluster.json")
            cluster_checkpoint.save_checkpoint(service, path)

        # Restore onto a different worker count than the snapshot's.
        for workers in (1, 3):
            restored = cluster_checkpoint.load_checkpoint(path,
                                                          workers=workers)
            with restored:
                notes = restored.ingest(
                    list(resume_edges(restored, edges)))
                notes += restored.drain()
            assert notes == expected

    def test_embedded_service_snapshot_is_restorable(self, workload,
                                                     tmp_path):
        """Scale-down restore: the embedded document rebuilds a plain
        MatchService with the same queries and counters."""
        stream, instances = workload
        first_half, _ = self.checkpointed_halves(workload)
        with ShardedMatchService(DELTA, workers=2) as service:
            for i in range(4):
                service.register(instances[i].query, stream.labels,
                                 ENGINE_CYCLE[i], query_id=f"q{i}")
            service.ingest(first_half)
            data = json.loads(json.dumps(
                cluster_checkpoint.snapshot(service)))
            expected = {query_id: service.query_stats(query_id).occurred
                        for query_id in ("q0", "q1", "q2", "q3")}
        single = restore_single(
            cluster_checkpoint.as_service_snapshot(data))
        assert [e.query_id for e in single.registry.list()] == \
            ["q0", "q1", "q2", "q3"]
        for query_id, occurred in expected.items():
            assert single.query_stats(query_id).occurred == occurred

    def test_snapshot_preserves_stats_and_cursor(self, workload):
        stream, instances = workload
        with ShardedMatchService(DELTA, workers=2) as service:
            service.register(instances[0].query, stream.labels, "tcm",
                             query_id="q0")
            service.ingest(stream.edges[:100])
            data = cluster_checkpoint.snapshot(service)
            assert data["format"].startswith("repro.cluster.checkpoint")
            assert data["workers"] == 2
            assert data["placement"] == {"q0": 0}
            svc = data["service"]
            assert svc["seq"] == 100
            assert svc["now"] == service.now
            restored = cluster_checkpoint.restore(data)
            with restored:
                assert restored.seq == 100
                assert restored.now == service.now
                assert (restored.stats.edges_ingested
                        == service.stats.edges_ingested)

    def test_restore_rejects_other_formats(self):
        with pytest.raises(ValueError, match="not a cluster checkpoint"):
            cluster_checkpoint.restore({"format": "something/else"})


class TestWorkerCrash:
    def crashed_cluster(self, n_queries=4):
        service = ShardedMatchService(100, workers=2)
        qids = [service.register(AB_QUERY, AB_LABELS, "tcm")
                for _ in range(n_queries)]
        service.ingest(ab_edges(4))
        handle = service._backend._workers[0]
        handle.process.kill()
        handle.process.join()
        return service, qids

    def test_crash_quarantines_only_its_shard(self):
        service, qids = self.crashed_cluster()
        try:
            dead = [q for q in qids if service.shard_of(q) == 0]
            live = [q for q in qids if service.shard_of(q) == 1]
            assert dead and live
            # The next batch detects the crash and keeps serving.
            notes = service.ingest(ab_edges(4, start=5))
            service.drain()
            assert service.live_workers == 1
            assert {n.query_id for n in notes} == set(live)
            for query_id in dead:
                entry = service.get(query_id)
                assert entry.status is QueryStatus.ERRORED
                assert "crashed" in entry.error
            for query_id in live:
                assert service.query_stats(query_id).occurred == 8
            assert service.stats.errored_queries == len(dead)
        finally:
            service.close()

    def test_registration_routes_around_dead_shard(self):
        service, qids = self.crashed_cluster()
        try:
            service.ingest(ab_edges(2, start=5))  # detect the crash
            for _ in range(3):
                query_id = service.register(AB_QUERY, AB_LABELS, "tcm")
                assert service.shard_of(query_id) == 1
        finally:
            service.close()

    def test_unregister_lost_query_returns_errored_entry(self):
        service, qids = self.crashed_cluster()
        try:
            service.ingest(ab_edges(2, start=5))
            victim = next(q for q in qids if service.shard_of(q) == 0)
            entry = service.unregister(victim)
            assert entry.status is QueryStatus.ERRORED
            assert victim not in service
            assert service.stats.unregistered_total == 1
        finally:
            service.close()

    def test_snapshot_includes_stranded_queries(self):
        service, qids = self.crashed_cluster()
        try:
            service.ingest(ab_edges(2, start=5))
            data = cluster_checkpoint.snapshot(service)
            specs = {q["query_id"]: q for q in data["service"]["queries"]}
            assert set(specs) == set(qids)
            dead = [q for q in qids if service.shard_of(q) == 0]
            for query_id in dead:
                assert specs[query_id]["status"] == "errored"
                assert "crashed" in specs[query_id]["error"]
            restored = cluster_checkpoint.restore(data)
            with restored:
                for query_id in dead:
                    assert (restored.get(query_id).status
                            is QueryStatus.ERRORED)
        finally:
            service.close()

    def test_register_on_all_dead_shards_raises(self):
        service = ShardedMatchService(100, workers=1)
        try:
            service.register(AB_QUERY, AB_LABELS)
            service._backend._workers[0].process.kill()
            service._backend._workers[0].process.join()
            with pytest.raises((WorkerCrashError, RuntimeError)):
                service.register(AB_QUERY, AB_LABELS)
            # The stream interface stays up (and returns nothing).
            assert service.ingest(ab_edges(2)) == []
        finally:
            service.close()


class TestUndecodableReply:
    """A reply that cannot be decoded costs its shard, nothing else."""

    def test_corrupt_frame_quarantines_its_shard_and_pipes_stay_in_step(
            self, monkeypatch):
        first, second = ab_edges(20), ab_edges(20, start=21)
        single = MatchService(100)
        service = ShardedMatchService(100, workers=2)
        try:
            for target in (single, service):
                for i in range(4):
                    target.register(AB_QUERY, AB_LABELS, query_id=f"q{i}")
            live = {q for q in service.registered_ids()
                    if service.shard_of(q) == 1}
            assert len(live) == 2
            expected = [[n for n in single.ingest(batch)
                         if n.query_id in live]
                        for batch in (first, second)]
            assert [n.seq for n in expected[1]][::2] == list(range(20, 40))

            decode = wire.decode_reply
            frames = []

            def truncate_first(data, names):
                """Shard 0 is read first: its frame loses a value."""
                frames.append(data)
                return decode(data[:-8] if len(frames) == 1 else data,
                              names)

            monkeypatch.setattr(wire, "decode_reply", truncate_first)
            # Shard 1's reply to the same batch is still read ...
            assert service.ingest(first) == expected[0]
            assert len(frames) == 2
            assert service.live_workers == 1
            for query_id in set(service.registered_ids()) - live:
                entry = service.get(query_id)
                assert entry.status is QueryStatus.ERRORED
                assert "FrameError" in entry.error
            # ... so the next batch's answer is the next batch's.
            assert service.ingest(second) == expected[1]
        finally:
            service.close()
        assert not any(handle.process.is_alive()
                       for handle in service._backend._workers)

    def test_unpicklable_control_reply_is_a_lost_shard(self, monkeypatch):
        """Same rule on the one-shard request path, for the pickled
        replies no frame check covers."""
        with ShardedMatchService(100, workers=2) as service:
            query_id = service.register(AB_QUERY, AB_LABELS)
            shard = service.shard_of(query_id)
            conn = service._backend._workers[shard].conn
            monkeypatch.setattr(conn, "recv_bytes", lambda: b"not a pickle")
            assert service.query_stats(query_id).errors == 1
            assert service.live_workers == 1
            entry = service.get(query_id)
            assert entry.status is QueryStatus.ERRORED
            assert "UnpicklingError" in entry.error


class TestUndecodableRequest:
    """A request the worker cannot read is refused, not fatal."""

    @pytest.mark.parametrize("bad", ["truncated frame", "broken pickle"])
    def test_worker_answers_with_a_failure_and_stays_in_step(self, bad):
        first, second = ab_edges(6), ab_edges(6, start=7)
        single = MatchService(100)
        with ShardedMatchService(100, workers=2) as service:
            for target in (single, service):
                for i in range(4):
                    target.register(AB_QUERY, AB_LABELS, query_id=f"q{i}")
            assert service.ingest(first) == single.ingest(first)
            frame = wire.encode_routed(
                [(edge, 6 + i) for i, edge in enumerate(second)],
                second[-1].t, 12)
            request = frame[:-8] if bad == "truncated frame" else b"\x80junk"
            # The worker's FrameError / pickle error, by name.
            with pytest.raises((RuntimeError, ValueError)) as refused:
                service._backend._request(0, request)
            assert not isinstance(refused.value, WorkerCrashError)
            assert service._backend._workers[0].process.is_alive()
            assert service.live_workers == 2
            assert service.stats.errored_queries == 0
            # The refused request touched nothing on the shard.
            assert service.ingest(second) == single.ingest(second)
            assert service.drain() == single.drain()


class TestTracerSeam:
    def test_codec_is_called_through_the_wire_module(self, monkeypatch):
        """``ledger/trace.py`` times the codec by replacing
        ``wire.encode_routed`` / ``wire.decode_reply`` as module
        attributes.  A ``from repro.cluster.wire import decode_reply``
        in the coordinator would keep working and silently zero
        ``wire.decode_s`` in every ``--trace 1`` run; here it fails."""
        calls = {}
        with ShardedMatchService(100, workers=2) as service:
            for _ in range(2):
                service.register(AB_QUERY, AB_LABELS)
            for name in ("encode_routed", "decode_reply"):
                monkeypatch.setattr(wire, name, counting(calls, name))
            assert len(service.ingest(ab_edges(4))) == 8
            assert service.events_unshipped == 0    # both shards contacted
        assert calls == {"encode_routed": 2, "decode_reply": 2}

    def test_a_pickled_request_is_answered_in_a_frame(self, monkeypatch):
        """What decides the reply's encoding is the reply: ``drain`` is
        a pickled verb, its notification lists come back as frames."""
        calls = {}
        with ShardedMatchService(100, workers=2) as service:
            for _ in range(2):
                service.register(AB_QUERY, AB_LABELS)
            service.ingest(ab_edges(4))
            monkeypatch.setattr(wire, "decode_reply",
                                counting(calls, "decode_reply"))
            assert len(service.drain()) == 8
            # A control reply that is no notification list still pickles.
            assert len(service.all_query_stats()) == 2
        assert calls == {"decode_reply": 2}


class TestSubscribers:
    def test_subscribers_see_the_merged_feed(self):
        seen = []
        with ShardedMatchService(100, workers=2) as service:
            service.register(AB_QUERY, AB_LABELS,
                             subscriber=seen.append, query_id="a")
            service.register(AB_QUERY, AB_LABELS, query_id="b")
            notes = service.ingest(ab_edges(3))
            notes += service.drain()
        assert seen == [n for n in notes if n.query_id == "a"]

    def test_failing_subscriber_quarantines_only_its_query(self):
        def boom(notification):
            raise ValueError("subscriber crashed")

        with ShardedMatchService(100, workers=2) as service:
            bad = service.register(AB_QUERY, AB_LABELS, subscriber=boom)
            good = service.register(AB_QUERY, AB_LABELS)
            service.ingest(ab_edges(3))
            entry = service.get(bad)
            assert entry.status is QueryStatus.ERRORED
            assert "subscriber crashed" in entry.error
            assert entry.stats.errors == 1
            frozen = entry.stats.events_processed
            # Isolation is batch-granular: later batches are not routed
            # to the quarantined query at all (worker-side mute).
            service.ingest(ab_edges(3, start=4))
            assert service.get(bad).stats.events_processed == frozen
            assert service.query_stats(good).occurred == 6
            assert service.stats.errored_queries == 1


class _FailingEngine(MatchEngine):
    """Blows up on the first insert (crash-isolation fixture)."""

    name = "failing"

    def on_edge_insert(self, edge):
        raise RuntimeError("engine blew up")

    def on_edge_expire(self, edge):
        return []


def failing_factory(query, labels, edge_label_fn=None):
    """Module-level so it pickles by reference across the worker pipe."""
    return _FailingEngine(query, labels, edge_label_fn)


class TestErrorIsolationAcrossShards:
    def test_failing_engine_quarantines_only_its_query(self):
        """A query whose engine blows up is quarantined inside its
        worker; the coordinator mirrors the error on the next reply."""
        with ShardedMatchService(100, workers=2) as service:
            bad = service.register(AB_QUERY, AB_LABELS,
                                   engine=failing_factory)
            good = service.register(AB_QUERY, AB_LABELS)
            service.ingest(ab_edges(4))
            entry = service.get(bad)
            assert entry.status is QueryStatus.ERRORED
            assert "engine blew up" in entry.error
            assert service.query_stats(good).occurred == 4
            assert service.stats.errored_queries == 1
            assert service.live_workers == 2


class TestRegistrationSurface:
    def test_duplicate_query_id_rejected(self):
        with ShardedMatchService(10, workers=2) as service:
            service.register(AB_QUERY, AB_LABELS, query_id="dup")
            with pytest.raises(ValueError, match="already registered"):
                service.register(AB_QUERY, AB_LABELS, query_id="dup")

    def test_unknown_engine_rolls_back_placement(self):
        with ShardedMatchService(10, workers=2) as service:
            with pytest.raises(ValueError, match="unknown engine"):
                service.register(AB_QUERY, AB_LABELS, engine="nope",
                                 query_id="q")
            assert "q" not in service
            interest = service.registry.interest
            assert "q" not in interest and not len(interest)
            # The failed placement slot was released: the next two
            # registrations still spread across both shards.
            a = service.register(AB_QUERY, AB_LABELS)
            b = service.register(AB_QUERY, AB_LABELS)
            assert {service.shard_of(a), service.shard_of(b)} == {0, 1}

    def test_unregister_missing(self):
        with ShardedMatchService(10, workers=1) as service:
            with pytest.raises(KeyError, match="no registered query"):
                service.unregister("ghost")

    def test_closed_service_rejects_operations(self):
        """Closed is one front rule: no query call makes up a crash."""
        service = ShardedMatchService(10, workers=1)
        q = service.register(AB_QUERY, AB_LABELS)
        service.ingest(ab_edges(1))
        service.close()
        service.close()  # idempotent
        assert service.health()["status"] == "closed"
        for call, *args in [(service.ingest, ab_edges(1, start=2)),
                            (service.register, AB_QUERY, AB_LABELS),
                            (service.advance_to, 5), (service.drain,),
                            (service.all_query_stats,),
                            (service.query_stats, q), (service.get, q),
                            (service.unregister, q),
                            (service.subscribe, q, print)]:
            with pytest.raises(RuntimeError, match="service is closed"):
                call(*args)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="delta"):
            ShardedMatchService(0, workers=1)
        with pytest.raises(ValueError, match="worker"):
            ShardedMatchService(10, workers=0)

    def test_registered_ids_in_registration_order(self):
        with ShardedMatchService(10, workers=3) as service:
            ids = [service.register(AB_QUERY, AB_LABELS)
                   for _ in range(5)]
            assert service.registered_ids() == ids
            assert len(service) == 5
            stats = service.all_query_stats()
            assert [s.query_id for s in stats] == ids
            # The order is the mirror's insertion order: an entry is
            # inserted at registration and popped at unregister, and
            # neither a migration nor a crash recovery re-inserts it.
            service.migrate(ids[0])
            handle = service._backend._workers[service.shard_of(ids[1])]
            handle.process.kill()
            handle.process.join()
            service.ingest(ab_edges(1))
            assert service.recover_quarantined()
            assert service.registered_ids() == ids
            service.unregister(ids[2])
            again = service.register(AB_QUERY, AB_LABELS, query_id=ids[2])
            assert service.registered_ids() == \
                ids[:2] + ids[3:] + [again]

    def test_live_register_is_one_round_trip(self):
        """The ticket carries the query's wire code and join cursor:
        nothing is synced ahead of it."""
        registry = MetricsRegistry()
        with ShardedMatchService(10, workers=2,
                                 metrics=registry) as service:
            for _ in range(3):
                service.register(AB_QUERY, AB_LABELS)
            assert roundtrips(registry, 2) == [2, 1]
            service.add_worker()
            service.register(AB_QUERY, AB_LABELS)
            assert roundtrips(registry, 3) == [2, 1, 1]

    def test_a_worker_refuses_a_ticket_of_another_format(self):
        worker = ShardWorker(10)
        ticket = protocol.MigrationTicket(
            QueryRegistry().new(AB_QUERY, AB_LABELS), 0, format="x/0")
        with pytest.raises(ValueError, match="not a migration ticket"):
            worker.dispatch(protocol.MIGRATE_IN, ticket)
        assert not len(worker.service.registry)

    def test_every_verb_has_a_handler_and_a_sender(self):
        """A verb constant nothing sends is dead protocol surface that
        no other test notices (``INGEST_BATCH`` outlived its last
        sender by five PRs)."""
        verbs = [name for name, value in vars(protocol).items()
                 if name.isupper() and isinstance(value, str)]
        assert len(verbs) == 11
        dispatch = inspect.getsource(ShardWorker.dispatch)
        assert [name for name in verbs
                if f"protocol.{name}" not in dispatch] == []
        # A sender names the verb, or — for the verbs that travel as
        # frames — calls the encoder whose frame decodes to it.
        framed = {"INGEST_ROUTED": "wire.encode_routed(",
                  "MIGRATE_IN": "wire.encode_migrate_in(",
                  "INGEST_BATCH": "wire.encode_ingest("}
        senders = "".join(
            path.read_text()
            for path in Path(protocol.__file__).parent.glob("*.py")
            if path.name not in ("protocol.py", "worker.py", "wire.py"))
        unsent = [name for name in verbs
                  if framed.get(name, f"protocol.{name}") not in senders]
        # The one exception is kept alive by the frozen ledger, which
        # resolves ``wire.encode_ingest`` by name: ROADMAP "Ledger v2"
        # (1) deletes the verb, its frame and this entry.
        assert unsent == ["INGEST_BATCH"]


class TestPlacement:
    def test_least_loaded_with_deterministic_ties(self):
        placement = ShardPlacement(3)
        assert [placement.place(f"q{i}") for i in range(6)] == \
            [0, 1, 2, 0, 1, 2]
        placement.remove("q1")
        assert placement.place("q6") == 1

    def test_quarantine_excludes_shard_but_keeps_members(self):
        placement = ShardPlacement(2)
        placement.place("a")
        placement.place("b")
        assert placement.quarantine(0) == ["a"]
        assert placement.live_shards() == [1]
        assert placement.place("c") == 1
        assert placement.shard_of("a") == 0       # still enumerable
        assert placement.remove("a") == 0

    def test_no_live_shards(self):
        placement = ShardPlacement(1)
        placement.quarantine(0)
        with pytest.raises(RuntimeError, match="no live shards"):
            placement.place("q")


# ----------------------------------------------------------------------
# The property: any control script, one process or many
# ----------------------------------------------------------------------
#: Queries are paths over A and B, so several shards often hold one
#: edge; an edge at vertex 2 interests nobody.
SCRIPT_LABELS = dict(enumerate("ABCABA"))
SCRIPT_STEPS = ("ingest", "ingest", "advance", "register", "register",
                "unregister", "migrate", "migrate", "add_worker",
                "drain_worker")


@st.composite
def path_queries(draw):
    labels = draw(st.lists(st.sampled_from("AB"), min_size=2, max_size=3))
    edges = [(i, i + 1) for i in range(len(labels) - 1)]
    order = [(0, 1)] if len(edges) == 2 and draw(st.booleans()) else []
    return TemporalQuery(labels, edges, order)


def counts(entry):
    stats = entry.stats
    return stats.occurred, stats.expired, stats.events_processed


class _PoisonedTCM(TCMEngine):
    """TCM that raises on an arrival at vertex 5: its query is
    quarantined inside the worker, whose reply then piggybacks
    ``errors`` and so travels pickled, not as a frame."""

    def on_batch(self, events):
        if any(ev.is_arrival and 5 in ev.edge[:2] for ev in events):
            raise RuntimeError("poisoned vertex")
        return super().on_batch(events)


def poisoned_tcm(query, labels, edge_label_fn=None):
    """Module-level so it pickles by reference across the worker pipe."""
    return _PoisonedTCM(query, labels)


def register_on_both(targets, feeds, query, kind, query_id, subscribed):
    """Register one query on every ``(side, service)`` of ``targets``,
    its subscriber (if ``subscribed``) filling ``feeds[side, id]``."""
    for side, target in targets:
        feed = feeds.setdefault((side, query_id), []) if subscribed else None
        target.register(query, SCRIPT_LABELS, kind, query_id=query_id,
                        subscriber=None if feed is None else feed.append)


def assert_feeds_are_the_returned_sequence(feeds, returned):
    """Each subscriber received, in order, what its service returned
    filtered to its query; the cluster's received the single one's."""
    for (side, query_id), feed in feeds.items():
        assert feed == [n for n in returned[side] if n.query_id == query_id]
        assert feed == feeds["single", query_id]


@pytest.mark.usefixtures("hard_timeout")
# Every example forks workers, so shrinking a failure would run for
# minutes: a failing script is reported as drawn.
@settings(max_examples=25, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(workers=st.integers(min_value=1, max_value=3), data=st.data())
def test_control_scripts_equal_one_process(workers, data):
    """Ingests, clock advances, registrations (TCM, SymBi, or a TCM
    that is quarantined inside its worker; any of them subscribed),
    unregistrations, migrations and worker adds / drains in any order:
    the merged notifications are the in-process service's, list for
    list, and so is every query's tally.  Every subscriber receives its
    query's share of what its service returned, whether a shard's reply
    came as a frame or (carrying a quarantine) pickled."""
    single = MatchService(6)
    ids, clock = itertools.count(), 1
    feeds = {}
    returned = {"cluster": [], "single": []}

    def same(got, want):
        assert got == want
        returned["cluster"] += got
        returned["single"] += want

    with ShardedMatchService(6, workers=workers) as service:
        targets = (("cluster", service), ("single", single))
        for _ in range(data.draw(st.integers(min_value=3, max_value=40))):
            step = data.draw(st.sampled_from(SCRIPT_STEPS))
            registered = service.registered_ids()
            live = [shard["shard"] for shard in service.health()["shards"]
                    if shard["alive"]]
            if step == "ingest":
                edges = []
                for _ in range(data.draw(st.integers(0, 6))):
                    clock += data.draw(st.sampled_from((0, 1, 1, 3)))
                    u, v = data.draw(st.lists(st.integers(0, 5), min_size=2,
                                              max_size=2, unique=True))
                    edges.append(Edge.make(u, v, clock))
                same(service.ingest(edges), single.ingest(edges))
            elif step == "advance":
                clock += data.draw(st.integers(1, 8))
                same(service.advance_to(clock), single.advance_to(clock))
            elif step == "register":
                register_on_both(
                    targets, feeds, data.draw(path_queries()),
                    data.draw(st.sampled_from(("tcm", "symbi",
                                               poisoned_tcm))),
                    f"q{next(ids)}", data.draw(st.booleans()))
            elif step == "unregister" and registered:
                query_id = data.draw(st.sampled_from(registered))
                assert counts(service.unregister(query_id)) \
                    == counts(single.unregister(query_id))
            elif step == "migrate" and registered and len(live) > 1:
                query_id = data.draw(st.sampled_from(registered))
                source = service.shard_of(query_id)
                target = data.draw(st.sampled_from(
                    [None] + [shard for shard in live if shard != source]))
                service.migrate(query_id, target)
            elif step == "add_worker" and service.num_workers < 4:
                service.add_worker()
            elif step == "drain_worker" and len(live) > 1:
                service.drain_worker(data.draw(st.sampled_from(live)))
        same(service.drain(), single.drain())
        for query_id in service.registered_ids():
            assert counts(service.get(query_id)) \
                == counts(single.registry.get(query_id))
    assert_feeds_are_the_returned_sequence(feeds, returned)


@pytest.mark.usefixtures("hard_timeout")
def test_subscribers_agree_when_one_shards_reply_is_pickled(monkeypatch):
    """The batch that quarantines ``b`` inside shard 1 comes back from
    that shard pickled (its reply piggybacks ``errors``) and from shard
    0 as a frame; the runs of both decoders reach the subscribers as
    the returned sequence has them, equal to one ``MatchService``."""
    query = TemporalQuery(["A", "B"], [(0, 1)])
    batches = [[Edge.make(0, 1, 1), Edge.make(3, 4, 2), Edge.make(0, 4, 3)],
               [Edge.make(5, 1, 4), Edge.make(0, 1, 5)]]
    single = MatchService(6)
    feeds = {}
    returned = {"cluster": [], "single": []}
    frames = []
    with ShardedMatchService(6, workers=2) as service:
        targets = (("cluster", service), ("single", single))
        for query_id, kind in (("a", "tcm"), ("b", poisoned_tcm),
                               ("c", "symbi"), ("d", "tcm")):
            register_on_both(targets, feeds, query, kind, query_id, True)
        assert [service.shard_of(q) for q in "abcd"] == [0, 1, 0, 1]
        decode = wire.decode_reply

        def recorded(data, names):
            frames.append(data)
            return decode(data, names)

        monkeypatch.setattr(wire, "decode_reply", recorded)
        for batch, framed in zip(batches, (2, 1)):
            got, want = service.ingest(batch), single.ingest(batch)
            assert got == want and len(frames) == framed
            frames.clear()
            returned["cluster"] += got
            returned["single"] += want
        returned["cluster"] += service.drain()
        returned["single"] += single.drain()
        assert service.get("b").status is QueryStatus.ERRORED
    assert_feeds_are_the_returned_sequence(feeds, returned)
    shard_one = [n.seq for n in feeds["cluster", "d"]]
    assert 3 in shard_one and 4 in shard_one     # the pickled batch
    assert returned["cluster"] == returned["single"]
