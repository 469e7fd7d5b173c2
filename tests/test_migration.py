"""Live migration + elastic resharding tests.

The acceptance bar extends the cluster equivalence suite: the merged
notification stream of a ``ShardedMatchService`` must stay
*byte-identical* to the in-process ``MatchService`` even when queries
live-migrate between workers mid-stream, workers are added (shard
split) or gracefully drained (shard merge) while the stream runs.  On
top sit crash recovery during and after migration, rebalancing, and
the observability surfaces (placement snapshot, migration history,
``/varz``).
"""

import pytest

from repro.cluster import (
    MigrationError, ShardedMatchService,
)
from repro.cluster.placement import ShardPlacement
from repro.core.tcm import TCMEngine
from repro.datasets import DATASET_SPECS, generate_stream
from repro.graph.temporal_graph import Edge, TemporalGraph
from repro.query import TemporalQuery
from repro.service import MatchService
from repro.streaming import MatchBlock
from repro.streaming.engine import MatchEngine
from repro.workloads import make_mixed_query_set

AB_QUERY = TemporalQuery(labels=["A", "B"], edges=[(0, 1)])
AB_LABELS = {0: "A", 1: "B"}

ENGINE_CYCLE = ["tcm", "tcm-pruning", "symbi", "rapidflow", "timing",
                "tcm"]

DELTA = 80
BATCH = 40


def ab_edges(n, start=1):
    return [Edge.make(0, 1, t) for t in range(start, start + n)]


class PoisonedEngine(MatchEngine):
    """A per-event TCM that raises on the arrival stamped ``POISON``."""

    name = "poisoned"
    POISON = 16

    def __init__(self, query, labels, edge_label_fn=None):
        super().__init__(query, labels, edge_label_fn)
        self.inner = TCMEngine(query, labels, edge_label_fn=edge_label_fn)

    def on_edge_insert(self, edge):
        if edge.t == self.POISON:
            raise RuntimeError("poisoned edge")
        return self.inner.on_edge_insert(edge)

    def on_edge_expire(self, edge):
        return self.inner.on_edge_expire(edge)


def poisoned_factory(query, labels, edge_label_fn=None):
    """Module-level so it pickles by reference across the worker pipe."""
    return PoisonedEngine(query, labels, edge_label_fn)


@pytest.fixture(scope="module")
def workload():
    stream = generate_stream(DATASET_SPECS["superuser"], 240, seed=7)
    graph = TemporalGraph(labels=stream.labels)
    for e in stream.edges:
        graph.insert_edge(e)
    instances = make_mixed_query_set(graph, 6, sizes=(3, 4), seed=2)
    assert len(instances) == 6
    return stream, instances


def drive(service, stream, instances, hooks=None):
    """The cluster suite's scripted lifetime, with per-batch hook
    points: ``hooks[i]`` runs after batch ``i`` is ingested."""
    hooks = hooks or {}
    edges = stream.edges
    batches = [edges[lo:lo + BATCH] for lo in range(0, len(edges), BATCH)]
    for i in range(4):
        service.register(instances[i].query, stream.labels,
                         ENGINE_CYCLE[i], query_id=f"q{i}")
    notes = []
    for index, batch in enumerate(batches):
        if index == 2:
            service.register(instances[4].query, stream.labels,
                             ENGINE_CYCLE[4], query_id="q4")
        notes += service.ingest(batch)
        if index == 3:
            service.unregister("q1")
        if index == 4:
            service.register(instances[5].query, stream.labels,
                             ENGINE_CYCLE[5], query_id="q5")
        hook = hooks.get(index)
        if hook is not None:
            hook(service)
    notes += service.drain()
    stats = {}
    for query_id in ("q0", "q2", "q3", "q4", "q5"):
        s = service.query_stats(query_id)
        stats[query_id] = (s.occurred, s.expired, s.events_processed,
                           s.errors)
    return notes, stats


@pytest.fixture(scope="module")
def single_outcome(workload):
    stream, instances = workload
    return drive(MatchService(DELTA), stream, instances)


class TestByteIdenticalMigration:
    """Atomic migrations must be invisible in the merged stream."""

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_midstream_migration_identical(self, workload,
                                           single_outcome, workers):
        stream, instances = workload
        expected_notes, expected_stats = single_outcome

        def hop(service):
            record = service.migrate("q0")
            assert record.window_edges >= 0
            assert service.shard_of("q0") == record.target

        hooks = {1: hop, 3: lambda s: s.migrate("q2") and None}
        with ShardedMatchService(DELTA, workers=workers) as service:
            notes, stats = drive(service, stream, instances, hooks)
            assert len(service.migration_history) == 2
            assert service.stats.errored_queries == 0
        assert notes == expected_notes
        assert stats == expected_stats

    def test_a_migrated_querys_collected_result_is_unchanged(
            self, workload):
        """The ticket carries the query's ``StreamResult`` — unread
        blocks included — across the pipe, and the target keeps filing
        into it."""
        stream, instances = workload
        single = MatchService(DELTA)
        drive(single, stream, instances)
        hooks = {1: lambda s: s.migrate("q0") and None,
                 3: lambda s: s.migrate("q2") and s.migrate("q0") and None}
        with ShardedMatchService(DELTA, workers=2) as service:
            drive(service, stream, instances, hooks)
            assert len(service.migration_history) == 3
            # q0 is TCM (blocks), q2 SymBi (lists); q3 never moved.
            for query_id, kind in (("q0", MatchBlock), ("q2", list),
                                   ("q3", list)):
                expected = single.registry.get(query_id).result
                assert expected.reports and all(
                    type(seq) is kind for _, seq in expected.reports)
                assert service.get(query_id).result == expected

    def test_migration_preserves_routed_counters(self, workload):
        """events_routed must match a never-migrated cluster run —
        migration replay accounts exactly like live fan-out."""
        stream, instances = workload
        with ShardedMatchService(DELTA, workers=2) as service:
            drive(service, stream, instances)
            baseline = (service.stats.events_routed,
                        service.stats.registered_total,
                        service.stats.unregistered_total)
        hooks = {2: lambda s: s.migrate("q0") and None}
        with ShardedMatchService(DELTA, workers=2) as service:
            drive(service, stream, instances, hooks)
            migrated = (service.stats.events_routed,
                        service.stats.registered_total,
                        service.stats.unregistered_total)
        assert migrated == baseline

    def test_join_cursor_is_global_on_a_shard_the_router_never_contacted(
            self):
        """``q1`` registers on shard 1, which has hosted nothing and so
        was never sent a frame: its own ``seq`` is still 0.  The join
        cursor rides the ticket, so after the hop onto shard 0 — whose
        live deque holds the ten edges ``q1`` never saw — ``q1`` is not
        dispatched their expirations (it answered ``[]`` to them, so
        only the counters could tell)."""

        def scenario(service, hop):
            service.register(AB_QUERY, AB_LABELS, query_id="q0")
            notes = service.ingest(ab_edges(10))
            service.register(AB_QUERY, AB_LABELS, query_id="q1")
            hop(service)
            notes += service.ingest(ab_edges(10, start=11))
            notes += service.ingest(ab_edges(10, start=200))
            notes += service.drain()
            return (notes, service.stats.events_routed,
                    service.query_stats("q1").events_processed)

        def hop(service):
            assert service.shard_of("q1") == 1
            service.migrate("q1", 0)

        expected = scenario(MatchService(50), lambda service: None)
        assert expected[1:] == (100, 40)
        with ShardedMatchService(50, workers=2) as service:
            assert scenario(service, hop) == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shard_split_identical(self, workload, single_outcome,
                                   workers):
        """add_worker mid-stream + migrating onto the new shard."""
        stream, instances = workload
        expected_notes, expected_stats = single_outcome

        def split(service):
            index = service.add_worker()
            assert index == workers
            service.migrate("q0", index)
            service.migrate("q3", index)
            assert service.shard_of("q0") == index

        with ShardedMatchService(DELTA, workers=workers) as service:
            notes, stats = drive(service, stream, instances, {1: split})
            assert service.num_workers == workers + 1
        assert notes == expected_notes
        assert stats == expected_stats

    @pytest.mark.parametrize("workers", [2, 3])
    def test_shard_merge_identical(self, workload, single_outcome,
                                   workers):
        """drain_worker mid-stream: graceful scale-down."""
        stream, instances = workload
        expected_notes, expected_stats = single_outcome

        def merge(service):
            records = service.drain_worker(0)
            assert all(r.reason == "drain" for r in records)
            health = service.health()
            assert health["status"] == "ok"
            assert health["retired_workers"] == 1
            assignments = service.placement_snapshot()["assignments"]
            assert 0 not in assignments.values()

        with ShardedMatchService(DELTA, workers=workers) as service:
            notes, stats = drive(service, stream, instances, {2: merge})
            assert service.live_workers == workers - 1
        assert notes == expected_notes
        assert stats == expected_stats

    def test_drain_last_worker_refused(self):
        with ShardedMatchService(5, workers=2) as service:
            service.register(AB_QUERY, AB_LABELS, query_id="q")
            service.drain_worker(1 - service.shard_of("q"))
            with pytest.raises(RuntimeError, match="last live"):
                service.drain_worker(service.shard_of("q"))

    def test_migrate_rejects_bad_targets(self):
        with ShardedMatchService(5, workers=2) as service:
            service.register(AB_QUERY, AB_LABELS, query_id="q")
            source = service.shard_of("q")
            with pytest.raises(ValueError, match="already lives"):
                service.migrate("q", source)
            with pytest.raises(ValueError, match="not live"):
                service.migrate("q", 7)
            with pytest.raises(KeyError):
                service.migrate("ghost")

    def test_migrate_with_nowhere_to_go_raises_before_detaching(self):
        """A ``MigrationError``, and the query is still hosted where it
        was, active, with its counters."""
        with ShardedMatchService(5, workers=1) as service:
            service.register(AB_QUERY, AB_LABELS, query_id="q")
            service.ingest(ab_edges(3))
            with pytest.raises(MigrationError, match="no live shards"):
                service.migrate("q")
            assert service.migration_state()["completed"] == 0
            assert service.shard_of("q") == 0
            entry = service.get("q")
            assert entry.active and entry.stats.occurred == 3
            assert len(service.ingest(ab_edges(1, start=4))) == 1


class TestAdoptQuery:
    """``MatchService``'s migration hooks, driven directly: in a cluster
    they only ever run inside worker processes."""

    AC_QUERY = TemporalQuery(labels=["A", "C"], edges=[(0, 1)])
    LABELS = {0: "A", 1: "B", 2: "C"}
    DELTA = 5
    #: A-B on odd ticks, A-C on even ones: half of any tail is of no
    #: interest to the A-B query.
    EDGES = [Edge.make(0, 1 + (t + 1) % 2, t) for t in range(1, 25)]

    def batch(self, number):
        """Routed pairs of the ``number``-th six edges."""
        lo = 6 * number
        return list(zip(self.EDGES[lo:lo + 6], range(lo, lo + 6)))

    def reference(self):
        single = MatchService(self.DELTA)
        single.register(AB_QUERY, self.LABELS, query_id="ab")
        single.register(self.AC_QUERY, self.LABELS, query_id="ac")
        notes = single.ingest(self.EDGES) + single.drain()
        return ([n for n in notes if n.query_id == "ab"],
                single.query_stats("ab"))

    def detach_after_first_batch(self):
        """Source side: serve batch 0, export, unregister."""
        source = MatchService(self.DELTA)
        source.register(AB_QUERY, self.LABELS, query_id="ab")
        source.register(self.AC_QUERY, self.LABELS, query_id="ac")
        notes = source.ingest_routed(self.batch(0), 6, 6)
        entry = source.registry.get("ab")
        window = source.export_query_window(entry)
        assert [edge.t for edge, _ in window] == [3, 5]
        source.registry.unregister("ab")
        return [n for n in notes if n.query_id == "ab"], entry, window

    def attach(self, target, old, engine="tcm"):
        entry = target.registry.register(
            AB_QUERY, self.LABELS, engine, query_id="ab",
            joined_seq=old.joined_seq)
        entry.stats = old.stats
        return entry

    def test_tail_replay_equals_never_migrating(self):
        expected, expected_stats = self.reference()
        notes, old, window = self.detach_after_first_batch()
        tail = tuple(self.batch(1) + self.batch(2))
        target = MatchService(self.DELTA)
        target.ingest_routed([], 18, 18)    # a shard with nothing routed
        entry = self.attach(target, old)
        before = entry.stats.batches_processed
        notes += target.adopt_query(entry, window, tail, final_now=18)
        assert entry.stats.batches_processed == before + 1
        assert entry.stats.events_skipped >= 6      # the A-C arrivals
        # Survivors joined the shared deque once each.
        assert [edge.t for edge, _ in target._live] == [15, 17]
        notes += target.ingest_routed(self.batch(3), 24, 24)
        notes += target.drain()
        assert notes == expected
        stats = target.query_stats("ab")
        assert (stats.occurred, stats.expired, stats.events_processed) \
            == (expected_stats.occurred, expected_stats.expired,
                expected_stats.events_processed)

    def test_failing_window_rebuild_is_silent(self):
        _, old, _ = self.detach_after_first_batch()
        target = MatchService(self.DELTA)
        entry = self.attach(target, old, poisoned_factory)
        poisoned = Edge.make(0, 1, PoisonedEngine.POISON)
        assert target.adopt_query(entry, ((poisoned, 15),),
                                  self.batch(3), final_now=24) == []
        assert not entry.active and "poisoned edge" in entry.error
        assert target.stats.errored_queries == 1
        assert not target._live and target.stats.events_routed == 0


class TestCrashRecovery:
    """Migration under (and after) worker crashes."""

    def test_crash_during_migration_retries_elsewhere(self):
        with ShardedMatchService(5, workers=3) as service:
            service.register(AB_QUERY, AB_LABELS, query_id="q")
            service.ingest(ab_edges(4))
            source = service.shard_of("q")
            target = next(s for s in range(3) if s != source)
            victim = service.backend.transport.workers[target]
            victim.process.kill()
            victim.process.join()
            record = service.migrate("q", target)
            # The chosen target died mid-restore: the same ticket must
            # land on the remaining healthy shard.
            assert record.target not in (source, target)
            assert service.get("q").active
            notes = service.ingest(ab_edges(4, start=5))
            assert [n for n in notes if n.event.is_arrival]

    def test_recover_quarantined_rehomes_queries(self, workload):
        stream, instances = workload
        with ShardedMatchService(DELTA, workers=3) as service:
            for i in range(3):
                service.register(instances[i].query, stream.labels,
                                 "tcm", query_id=f"q{i}")
            service.ingest(stream.edges[:BATCH])
            stats_before = {s.query_id: s.events_processed
                            for s in service.all_query_stats()}
            victim = service.shard_of("q0")
            handle = service.backend.transport.workers[victim]
            handle.process.kill()
            handle.process.join()
            service.ingest(stream.edges[BATCH:2 * BATCH])
            assert service.health()["status"] == "degraded"
            records = service.recover_quarantined()
            assert records and all(r.reason == "recover"
                                   for r in records)
            for record in records:
                entry = service.get(record.query_id)
                assert entry.active
                assert service.shard_of(record.query_id) != victim
                # Pre-crash counters survive via the coordinator cache.
                assert (entry.stats.events_processed
                        >= stats_before[record.query_id])
            service.ingest(stream.edges[2 * BATCH:3 * BATCH])
            assert all(service.get(r.query_id).active for r in records)

    def test_auto_recover_at_batch_boundary(self):
        with ShardedMatchService(5, workers=2,
                                 auto_recover=True) as service:
            service.register(AB_QUERY, AB_LABELS, query_id="q")
            service.ingest(ab_edges(3))
            victim = service.shard_of("q")
            handle = service.backend.transport.workers[victim]
            handle.process.kill()
            handle.process.join()
            service.ingest(ab_edges(3, start=4))  # detects the crash
            service.ingest(ab_edges(3, start=7))  # recovers, then runs
            entry = service.get("q")
            assert entry.active
            assert service.shard_of("q") != victim
            reasons = [r.reason for r in service.migration_history]
            assert "recover" in reasons


class TestRebalance:
    def test_rebalance_reduces_event_skew(self):
        labels = {0: "A", 1: "B", 2: "C", 3: "D"}
        hot = TemporalQuery(labels=["A", "B"], edges=[(0, 1)])
        cold = TemporalQuery(labels=["C", "D"], edges=[(0, 1)])
        with ShardedMatchService(50, workers=2) as service:
            # Alternating registration stacks all hot queries on shard
            # 0 and all cold ones on shard 1 (count-based placement).
            for i in range(3):
                service.register(hot, labels, query_id=f"hot{i}")
                service.register(cold, labels, query_id=f"cold{i}")
            hot_shard = service.shard_of("hot0")
            assert all(service.shard_of(f"hot{i}") == hot_shard
                       for i in range(3))
            service.ingest([Edge.make(0, 1, t) for t in range(1, 41)])
            records = service.rebalance()
            assert records
            assert {r.reason for r in records} == {"rebalance"}
            shards = {service.shard_of(f"hot{i}") for i in range(3)}
            assert len(shards) == 2, "hot load must spread out"

    def test_rebalance_noop_when_even(self):
        with ShardedMatchService(5, workers=2) as service:
            service.register(AB_QUERY, AB_LABELS, query_id="a")
            service.register(AB_QUERY, AB_LABELS, query_id="b")
            service.ingest(ab_edges(10))
            assert service.rebalance() == []


class TestPlacementPolicy:
    """The live-policy surface of ShardPlacement itself."""

    def test_live_shards_sorted_and_deterministic(self):
        placement = ShardPlacement(3)
        placement.quarantine(1)
        assert placement.live_shards() == [0, 2]
        placement.add_shard()
        assert placement.live_shards() == [0, 2, 3]
        first = [placement.select_target() for _ in range(4)]
        second = [placement.select_target() for _ in range(4)]
        assert first == second

    def test_move_updates_loads(self):
        placement = ShardPlacement(2)
        assert placement.place("q") == 0
        assert placement.move("q", 1) == 0
        assert placement.shard_of("q") == 1
        assert placement.loads() == {0: 0, 1: 1}
        with pytest.raises(KeyError):
            placement.move("q", 9)

    def test_move_refuses_dead_targets(self):
        placement = ShardPlacement(3)
        placement.place("q")
        placement.quarantine(1)
        with pytest.raises(ValueError):
            placement.move("q", 1)
        placement.retire(2)
        with pytest.raises(ValueError):
            placement.move("q", 2)

    def test_retire_requires_empty(self):
        placement = ShardPlacement(2)
        placement.place("q")
        with pytest.raises(ValueError, match="still hosts"):
            placement.retire(0)
        placement.move("q", 1)
        placement.retire(0)
        assert placement.is_retired(0)
        assert placement.live_shards() == [1]

    def test_plan_rebalance_deterministic_and_converging(self):
        placement = ShardPlacement(2)
        for i in range(4):
            placement.place(f"hot{i}")
            placement.place(f"cold{i}")
        load = {f"hot{i}": 100.0 for i in range(4)}
        load.update({f"cold{i}": 10.0 for i in range(4)})
        plan = placement.plan_rebalance(load)
        again = placement.plan_rebalance(load)
        assert plan == again
        assert plan, "skewed load must produce moves"
        loads = {0: 0.0, 1: 0.0}
        members = {0: [q for q in load if placement.shard_of(q) == 0],
                   1: [q for q in load if placement.shard_of(q) == 1]}
        for shard, qs in members.items():
            loads[shard] = sum(load[q] for q in qs)
        for query_id, source, target in plan:
            loads[source] -= load[query_id]
            loads[target] += load[query_id]
        mean = sum(loads.values()) / 2
        assert max(loads.values()) - min(loads.values()) <= 0.5 * mean

    def test_plan_rebalance_single_shard_noop(self):
        placement = ShardPlacement(1)
        placement.place("q")
        assert placement.plan_rebalance({"q": 5.0}) == []


class TestObservability:
    def test_placement_snapshot_and_history(self):
        with ShardedMatchService(5, workers=2) as service:
            service.register(AB_QUERY, AB_LABELS, query_id="q")
            service.ingest(ab_edges(4))
            service.migrate("q")
            snap = service.placement_snapshot()
            assert snap["policy"] == "least_loaded"
            assert snap["assignments"]["q"] == service.shard_of("q")
            assert str(service.shard_of("q")) in snap["shards"]
            state = service.migration_state()
            assert state["completed"] == 1
            entry = state["history"][0]
            assert entry["query_id"] == "q"
            assert entry["reason"] == "manual"
            assert entry["window_edges"] == 4

    def test_history_keeps_the_last_32_and_counts_every_hop(self):
        with ShardedMatchService(5, workers=2) as service:
            service.register(AB_QUERY, AB_LABELS, query_id="q")
            service.ingest(ab_edges(4))
            records = [service.migrate("q") for _ in range(40)]
            history = service.migration_history
            assert len(history) == 32
            assert history == records[-32:]
            state = service.migration_state()
            assert state["completed"] == 40
            assert len(state["history"]) == 32
            assert service.get("q").stats.occurred == 4

    def test_varz_serves_placement_and_migrations(self):
        import json
        from urllib.request import urlopen

        from repro.obs.server import AdminServer

        with ShardedMatchService(5, workers=2) as service:
            service.register(AB_QUERY, AB_LABELS, query_id="q")
            service.ingest(ab_edges(4))
            service.migrate("q")
            shard = service.shard_of("q")
            with AdminServer(health=service.health) as server:
                server.varz = lambda: {
                    "placement": service.placement_snapshot(),
                    "migrations": service.migration_state()}
                with urlopen(server.url + "/varz", timeout=5) as resp:
                    body = json.loads(resp.read())
        assert body["placement"]["assignments"]["q"] == shard
        assert body["migrations"]["completed"] == 1

    def test_migration_metrics_counters(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        with ShardedMatchService(5, workers=2,
                                 metrics=registry) as service:
            service.register(AB_QUERY, AB_LABELS, query_id="q")
            service.ingest(ab_edges(4))
            service.migrate("q")
            snap = registry.snapshot()
        flat = {(name, tuple(sorted(series["labels"].items()))): series
                for name, family in snap.items()
                for series in family["series"]}
        assert flat[("cluster_migrations_total",
                     (("reason", "manual"),))]["value"] == 1
