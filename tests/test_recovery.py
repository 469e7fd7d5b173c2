"""A restore and a crash recovery lose nothing.

Every way onto a host carries the query's window, so interrupting a
service — checkpointing it and rebuilding it from the JSON, or killing
the worker that hosts a query — must not change what it reports:

* a Hypothesis property over small multigraph streams *with timestamp
  ties*: an in-process service restored at one or more batch boundaries
  (before any edge, mid-stream, after the final ``drain()``, with a
  query already errored) equals ``StreamDriver(OracleEngine)`` per
  query and an uninterrupted service counter for counter;
* ``resume_edges`` under timestamp ties, on both services;
* a worker killed before an ``ingest``, before an ``advance_to`` and at
  a boundary under ``auto_recover``: the merged output is the
  never-crashed run's, late for the lost exchange only; and the
  documented outcomes of a late manual recovery and of a shard lost
  inside ``drain()``.
"""

import re
import signal
from collections import Counter, deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.runner import ENGINE_FACTORIES
from repro.cluster import ShardedMatchService
from repro.cluster import checkpoint as cluster_checkpoint
from repro.graph.temporal_graph import Edge
from repro.oracle import OracleEngine
from repro.query import TemporalQuery
from repro.service import MatchService
from repro.service import checkpoint as service_checkpoint
from repro.service.checkpoint import resume_edges
from repro.streaming import StreamDriver
from repro.streaming.events import Event, EventKind
from tests import test_reference as script
from tests.test_migration import PoisonedEngine, poisoned_factory
from tests.test_property_engines import temporal_queries

FACTORIES = {**ENGINE_FACTORIES, "poisoned": poisoned_factory}
KINDS = ("tcm", "symbi", "timing", "rapidflow")


def key(n):
    return (n.query_id, n.event, n.match, n.seq)


# ----------------------------------------------------------------------
# The property: restore anywhere, any number of times
# ----------------------------------------------------------------------
@st.composite
def tied_streams(draw):
    """Vertex labels, a multigraph stream whose timestamps repeat (and
    whose ``(u, v, t)`` triples may), a window, and batch cut points."""
    n = draw(st.integers(min_value=2, max_value=5))
    labels = {v: draw(st.sampled_from("XY")) for v in range(n)}
    t, edges = 1, []
    for _ in range(draw(st.integers(min_value=1, max_value=14))):
        t += draw(st.sampled_from((0, 0, 1, 1, 3)))
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 2))
        edges.append(Edge.make(u, v + (v >= u), t))
    delta = draw(st.integers(min_value=1, max_value=6))
    cuts = sorted(draw(st.sets(
        st.integers(min_value=0, max_value=len(edges)), max_size=4)))
    return labels, edges, delta, cuts


def stream_order_events(edges, delta):
    """Algorithm 1's event list in *stream* order: every arrival
    preceded by the expirations due at its timestamp (tied arrivals
    keep the order they were given, which is what decides which of
    them reports a shared embedding)."""
    live, events = deque(), []
    for edge in edges:
        while live and live[0].t + delta <= edge.t:
            old = live.popleft()
            events.append(Event(old, old.t + delta, EventKind.EXPIRATION))
        events.append(Event(edge, edge.t, EventKind.ARRIVAL))
        live.append(edge)
    events.extend(Event(old, old.t + delta, EventKind.EXPIRATION)
                  for old in live)
    return events


def lifetime(queries, kinds, stream, restore_at):
    """Ingest the stream in its batches, rebuilding the service from a
    JSON checkpoint before every batch whose start is in ``restore_at``
    and once more after the final drain; returns the service and every
    notification."""
    labels, edges, delta, cuts = stream
    service = MatchService(delta, engine_factories=FACTORIES)
    for index, (query, kind) in enumerate(zip(queries, kinds)):
        service.register(query, labels, kind, query_id=f"q{index}")

    def rebuilt(service, seen):
        service = service_checkpoint.restore(
            script.through_json(service_checkpoint.snapshot(service)),
            engine_factories=FACTORIES)
        assert list(resume_edges(service, edges)) == edges[seen:]
        return service

    notes, bounds = [], sorted({0, *cuts, len(edges)})
    for lo, hi in zip(bounds, bounds[1:]):
        if lo in restore_at:
            service = rebuilt(service, lo)
        notes += service.ingest(edges[lo:hi])
    notes += service.drain()
    if restore_at:
        service = rebuilt(service, len(edges))
        assert service.drain() == []
    return service, notes


@settings(max_examples=150, deadline=None)
@given(queries=st.lists(temporal_queries(), min_size=1, max_size=3),
       kinds=st.lists(st.sampled_from(KINDS), min_size=3, max_size=3),
       stream=tied_streams(), poison=st.booleans(), data=st.data())
def test_restored_service_equals_oracle_and_uninterrupted_run(
        queries, kinds, stream, poison, data):
    labels, edges, delta, cuts = stream
    if poison:
        # Query 0 quarantines itself on the arrival stamped POISON.
        kinds = ["poisoned", *kinds[1:]]
        shift = PoisonedEngine.POISON - data.draw(st.sampled_from(edges)).t
        edges = [Edge(e.u, e.v, e.t + shift) for e in edges]
        stream = (labels, edges, delta, cuts)
    restore_at = data.draw(st.sets(st.sampled_from(
        sorted({0, *cuts})), min_size=1))
    plain, want = lifetime(queries, kinds, stream, ())
    restored, got = lifetime(queries, kinds, stream, restore_at)
    assert [key(n) for n in got] == [key(n) for n in want]
    events = stream_order_events(edges, delta)
    for index, query in enumerate(queries):
        query_id = f"q{index}"
        a, b = restored.query_stats(query_id), plain.query_stats(query_id)
        assert ((a.occurred, a.expired, a.events_processed, a.errors)
                == (b.occurred, b.expired, b.events_processed, b.errors))
        if a.errors:
            continue        # quarantined mid-stream: no oracle for that
        oracle = StreamDriver(OracleEngine(query, labels)).run_events(events)
        mine = [(n.event, n.match) for n in got if n.query_id == query_id]
        assert [pair for pair in mine if pair[0].is_arrival] \
            == oracle.occurred
        assert [pair for pair in mine if not pair[0].is_arrival] \
            == oracle.expired


# ----------------------------------------------------------------------
# resume_edges under timestamp ties; old formats
# ----------------------------------------------------------------------
ABA = TemporalQuery(["A", "B", "A"], [(0, 1), (1, 2)])
ABA_LABELS = {0: "A", 1: "B", 2: "A", 3: "B"}
#: Three edges on tick 2; the checkpoint falls after the first of them.
TIED = [Edge.make(0, 1, 1), Edge.make(1, 2, 2), Edge.make(2, 3, 2),
        Edge.make(0, 3, 2), Edge.make(0, 1, 3)]


@pytest.fixture
def hard_timeout():
    """No cluster test may hang: a blocked pipe read is interrupted."""
    def expired(signum, frame):
        raise TimeoutError("cluster test exceeded its hard timeout")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("hard_timeout")
@pytest.mark.parametrize("sharded", [False, True])
def test_resume_edges_cut_between_tied_edges(sharded):
    module = cluster_checkpoint if sharded else service_checkpoint

    def run(interrupted):
        service = (ShardedMatchService(4, workers=2) if sharded
                   else MatchService(4))
        try:
            service.register(ABA, ABA_LABELS, query_id="aba")
            notes = service.ingest(TIED[:2])
            if interrupted:
                data = script.through_json(module.snapshot(service))
                if sharded:
                    service.close()
                service = module.restore(data)
                assert list(resume_edges(service, TIED)) == TIED[2:]
            notes += service.ingest(TIED[2:]) + service.drain()
            return [key(n) for n in notes]
        finally:
            if sharded:
                service.close()

    want = run(False)
    assert len(want) > 4
    assert run(True) == want


@pytest.mark.parametrize("module", [service_checkpoint, cluster_checkpoint])
def test_format_1_documents_are_refused(module):
    """By the format check, with its message: nothing reads a ``/1``."""
    inner = service_checkpoint.snapshot(MatchService(4))
    old_inner = {**inner, "format": "repro.service.checkpoint/1"}
    if module is service_checkpoint:
        data = old_inner
    else:
        data = {"format": "repro.cluster.checkpoint/1", "workers": 1,
                "placement": {}, "service": inner}
        with pytest.raises(ValueError, match="not a service checkpoint"):
            module.restore({**data, "format": module.FORMAT,
                            "service": old_inner})
    assert module.FORMAT.endswith("/2")
    with pytest.raises(ValueError, match=re.escape(
            f"format {data['format']!r} (expected {module.FORMAT!r})")):
        module.restore(data)


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------
#: test_reference's stream and its indexable queries, all registered up
#: front: two land on each of two shards.
CRASH_SPECS = [spec for spec in script.SPECS if spec.query_id != "custom"]


def crash_script(service, collected, before=None):
    """test_reference's lifetime with every query registered at the
    start.  ``before(step, service)`` runs ahead of each call, ``step``
    being the batch number or ``"advance"``.  Returns one notification
    list per call."""
    for spec in CRASH_SPECS:
        service.register(spec.query, script.LABELS, spec.engine,
                         query_id=spec.query_id,
                         edge_label_fn=spec.edge_label_fn,
                         subscriber=collected.append)
    calls = {}
    for number, batch in enumerate(script.BATCHES):
        if number == script.IDLE_BEFORE:
            if before is not None:
                before("advance", service)
            calls["advance"] = service.advance_to(batch[0].t - 5)
        if before is not None:
            before(number, service)
        calls[number] = service.ingest(batch)
    calls["drain"] = service.drain()
    return calls


def kill(service, shard):
    handle = service._backend._workers[shard]
    handle.process.kill()
    handle.process.join(timeout=10)
    assert not handle.process.is_alive()


@pytest.fixture(scope="module")
def never_crashed():
    collected = []
    calls = crash_script(MatchService(script.DELTA), collected)
    assert [key(n) for call in calls.values() for n in call] \
        == [key(n) for n in collected]
    return calls, collected


@pytest.mark.usefixtures("hard_timeout")
class TestAutoRecovery:
    @pytest.mark.parametrize("lost", [2, "advance", 7])
    def test_worker_killed_before_a_call(self, never_crashed, lost):
        """The call that finds the worker dead is the lost exchange:
        its share of the output arrives with the recovery, at the top
        of the next call, and nothing else moves."""
        calls, want = never_crashed
        stranded = set()

        def before(step, service):
            if step == lost:
                # The shard of the first query to report in that call.
                victim = service.shard_of(calls[lost][0].query_id)
                stranded.update(service._backend._placement.members(victim))
                kill(service, victim)

        got = []
        with ShardedMatchService(script.DELTA, workers=2,
                                 auto_recover=True) as service:
            crash_script(service, got, before)
            assert service.live_workers == 1
            assert {r.query_id for r in service.migration_history
                    if r.reason == "recover"} == stranded
            assert service.stats.errored_queries == len(stranded)
            assert all(service.get(q).active for q in stranded)
        late = [key(n) for n in calls[lost] if n.query_id in stranded]
        assert late and len(stranded) == 2
        assert Counter(map(key, got)) == Counter(map(key, want))

        def without_late(notes):
            keys = [key(n) for n in notes]
            return [k for k in keys if k not in set(late)]

        assert without_late(got) == without_late(want)

    def test_worker_found_dead_at_a_boundary_loses_nothing(
            self, never_crashed):
        """A control verb finds it between two calls: there is no lost
        exchange, and the output is the never-crashed list."""
        _, want = never_crashed

        def before(step, service):
            if step == 3:
                victim = service._backend._placement.members(0)[0]
                kill(service, 0)
                assert service.query_stats(victim).errors == 1
                assert service.live_workers == 1

        got = []
        with ShardedMatchService(script.DELTA, workers=2,
                                 auto_recover=True) as service:
            crash_script(service, got, before)
            assert [r.tail_events for r in service.migration_history] \
                == [0, 0]
        assert [key(n) for n in got] == [key(n) for n in want]

    def test_target_dying_mid_recovery_is_retried(self, never_crashed):
        """And the recovered query collects results again: the lost
        worker's are gone, what it reports from the recovery on is
        kept."""
        _, want = never_crashed
        spec = CRASH_SPECS[0]
        got = []
        with ShardedMatchService(script.DELTA, workers=3,
                                 auto_recover=True) as service:
            service.register(spec.query, script.LABELS, spec.engine,
                             query_id=spec.query_id,
                             subscriber=got.append)
            assert service.shard_of(spec.query_id) == 0
            service.ingest(script.BATCHES[0])
            kill(service, 0)
            service.ingest(script.BATCHES[1])       # the lost exchange
            recovered = len(got)
            kill(service, 1)                        # the policy's pick
            service.ingest(script.BATCHES[2])       # recovers, retried
            assert service.shard_of(spec.query_id) == 2
            assert service.live_workers == 1
            service.ingest(script.BATCHES[3])
            result = service.get(spec.query_id).result
        assert result is not None and len(got) > recovered
        assert Counter(result.occurred + result.expired) \
            == Counter((n.event, n.match) for n in got[recovered:])
        upto = script.BATCHES[3][-1].t
        assert Counter(map(key, got)) == Counter(
            key(n) for n in want
            if n.query_id == spec.query_id and n.event.time <= upto)


    def test_engine_failing_mid_tail_quarantines_only_its_query(self):
        """The recovered tail is one batch like any other: an engine
        that raises part-way through it quarantines its query with
        nothing emitted for the tail — not the tail's first half — and
        the target shard's other queries report what they would have
        reported had nothing crashed."""
        query = TemporalQuery(labels=["A", "B"], edges=[(0, 1)])
        labels = {0: "A", 1: "B"}
        edges = [Edge.make(0, 1, t) for t in range(1, 31)]
        single = MatchService(5)
        single.register(query, labels, query_id="good")
        expected = [single.ingest(edges[lo:lo + 10])
                    for lo in range(0, 30, 10)] + [single.drain()]
        bad_notes = []
        with ShardedMatchService(5, workers=2,
                                 auto_recover=True) as service:
            service.register(query, labels, query_id="good")
            service.register(query, labels, poisoned_factory,
                             query_id="bad", subscriber=bad_notes.append)
            good = service.shard_of("good")
            assert service.shard_of("bad") != good
            first = service.ingest(edges[:10])
            assert len(bad_notes) == 10 + 5
            kill(service, service.shard_of("bad"))
            # The lost exchange: arrivals 11..20, the poisoned one in
            # the middle, become the recovery's tail.
            second = service.ingest(edges[10:20])
            rest = [service.ingest(edges[20:]), service.drain()]
            assert service.shard_of("bad") == good
            assert [r.tail_events for r in service.migration_history] \
                == [10]
            entry = service.get("bad")
            assert entry.status.value == "errored"
            assert "poisoned edge" in entry.error
            assert len(bad_notes) == 10 + 5
        assert [n for n in first if n.query_id == "good"] == expected[0]
        assert [second, *rest] == expected[1:]


@pytest.mark.usefixtures("hard_timeout")
class TestDocumentedLosses:
    """What ``MigrationManager.recover`` says it cannot give back."""

    PATH = TemporalQuery(["A", "B", "C"], [(0, 1), (1, 2)])
    LABELS = {0: "A", 1: "B", 2: "C"}
    #: delta 5: the first edge leaves the coordinator's window at the
    #: top of the fourth call.
    CALLS = [[Edge.make(0, 1, 1)], [Edge.make(1, 2, 3)],
             [Edge.make(0, 1, 7)], [Edge.make(1, 2, 8)]]

    def test_late_manual_recovery_misses_what_left_the_window(self):
        single = MatchService(5)
        single.register(self.PATH, self.LABELS, query_id="path")
        want = [n for call in self.CALLS for n in single.ingest(call)]
        got = []
        with ShardedMatchService(5, workers=2) as service:
            service.register(self.PATH, self.LABELS, query_id="path",
                             subscriber=got.append)
            service.ingest(self.CALLS[0])
            kill(service, service.shard_of("path"))
            for call in self.CALLS[1:]:
                assert service.ingest(call) == []
            assert not service.get("path").active
            (record,) = service.recover_quarantined()
            assert (record.window_edges, record.tail_events) == (0, 3)
            assert service.get("path").active
        # Everything the held edges account for; not the embedding of
        # the edge that was trimmed during the outage.
        gone = [n for n in want if Edge.make(0, 1, 1) in n.match.edge_map]
        assert [n.occurred for n in gone] == [True, False]
        assert Counter(map(key, got)) \
            == Counter(map(key, want)) - Counter(map(key, gone))

    def test_shard_lost_inside_drain_comes_back_empty(self):
        with ShardedMatchService(5, workers=2) as service:
            service.register(self.PATH, self.LABELS, query_id="path")
            assert len(service.ingest(self.CALLS[0] + self.CALLS[1])) == 1
            kill(service, service.shard_of("path"))
            assert service.drain() == []        # its expiration is lost
            (record,) = service.recover_quarantined()
            assert (record.window_edges, record.tail_events) == (0, 0)
            notes = service.ingest(self.CALLS[2] + self.CALLS[3])
            assert [n.occurred for n in notes] == [True]
            assert len(service.drain()) == 1
