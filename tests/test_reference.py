"""The services against a reference that shares no code with them.

For every query of a scripted service lifetime, one standalone engine is
run per event (``StreamDriver``, Algorithm 1's loop) over *every* edge
that arrived while the query was registered — no interest index, no
batching, no wire.  Merging those per-query results by ``(event time,
kind, arrival seq, registration order)`` gives the notification stream a
correct service must emit; ``MatchService.ingest`` (under both its
names) and ``ShardedMatchService.ingest`` with 1, 2 and 4 workers must
equal it notification for notification.

The workload covers what the one data path has to get right: queries
over disjoint label groups (sub-batches split per shard, some shards see
only clock advances), a directed edge-labelled query (interest keys
refine on direction and edge label), a query behind a callable engine
factory (never indexed, so it receives every event) and a register and
an unregister in mid-stream (interest tables change while edges are
live in the window), and an idle gap longer than the window that the
script crosses with ``advance_to`` (the whole window expires with no
arrival to carry the clock).

A second script adds a "restore here" step: at a batch boundary with
live edges in the window and the mid-stream query already registered,
the service is checkpointed, thrown away and rebuilt from the JSON —
in process, cluster to cluster on another worker count, cluster to one
process — and the whole lifetime must still equal the reference, which
knows nothing of the interruption.  (A snapshot refuses the callable
factory's query, so that script retires it first.)
"""

import json
import random
from dataclasses import dataclass, replace
from typing import Callable, Optional

import pytest

from repro.baselines import SymBiEngine, TimingEngine
from repro.cluster import ShardedMatchService
from repro.cluster import checkpoint as cluster_checkpoint
from repro.core.tcm import TCMEngine
from repro.graph.temporal_graph import Edge
from repro.query import TemporalQuery
from repro.service import MatchService
from repro.service import checkpoint as service_checkpoint
from repro.streaming import StreamDriver
from repro.streaming.events import build_event_list

DELTA = 30
BATCH = 20
NUM_BATCHES = 9
#: The stream is silent for ``IDLE`` ticks before batch ``IDLE_BEFORE``.
IDLE = DELTA + 12
IDLE_BEFORE = 5

#: Three label groups on disjoint vertex sets: A/B/C, D/E/F and X/Y.
LABELS = dict(enumerate("ABCABC" "DEFDEF" "XYXY"))
GROUPS = (range(0, 6), range(6, 12), range(12, 16))


def edge_label(edge: Edge) -> str:
    return "p" if edge.t % 2 else "q"


def tcm_factory(query, labels, edge_label_fn=None):
    """A callable engine argument: the registry cannot index it."""
    return TCMEngine(query, labels, edge_label_fn=edge_label_fn)


def make_stream():
    """One edge per tick but for the idle gap, both endpoints from one
    group.  Every edge is normalized (an undirected engine accepts
    nothing else), so the directed query reads ``u -> v`` with
    ``u < v``."""
    rng = random.Random(11)
    edges = []
    for t in range(1, NUM_BATCHES * BATCH + 1):
        group = GROUPS[rng.randrange(len(GROUPS))]
        if t > IDLE_BEFORE * BATCH:
            t += IDLE
        edges.append(Edge.make(*rng.sample(group, 2), t))
    return edges


EDGES = make_stream()
BATCHES = [EDGES[lo:lo + BATCH] for lo in range(0, len(EDGES), BATCH)]


@dataclass(frozen=True)
class Spec:
    """One query of the script: registered before batch ``join``,
    unregistered before batch ``leave`` (never when ``None``)."""

    query_id: str
    query: TemporalQuery
    engine: object                  # what the services are given
    engine_class: type              # what the reference builds
    join: int = 0
    leave: Optional[int] = None
    edge_label_fn: Optional[Callable] = None


#: In registration order.
SPECS = (
    Spec("abc", TemporalQuery(["A", "B", "C"], [(0, 1), (1, 2)], [(0, 1)]),
         "tcm", TCMEngine),
    Spec("def", TemporalQuery(["D", "E", "F"], [(0, 1), (1, 2)], [(1, 0)]),
         "symbi", SymBiEngine, leave=6),
    Spec("xyx", TemporalQuery(["X", "Y", "X"], [(0, 1), (2, 1)], [(0, 1)],
                              directed=True, edge_labels=["p", "q"]),
         "tcm", TCMEngine, edge_label_fn=edge_label),
    Spec("custom", TemporalQuery(["A", "B", "C"], [(0, 1), (1, 2), (0, 2)]),
         tcm_factory, TCMEngine),
    Spec("late", TemporalQuery(["E", "D", "F"], [(0, 1), (0, 2)], [(0, 1)]),
         "timing", TimingEngine, join=3),
)


#: The restore script: the service is rebuilt before this batch, one
#: batch after ``late`` joined and with ``custom`` retired just before.
RESTORE_BEFORE = 4
RESTORE_SPECS = tuple(
    replace(spec, leave=RESTORE_BEFORE) if spec.query_id == "custom"
    else spec for spec in SPECS)
LABEL_FNS = {"xyx": edge_label}


def reference(specs=SPECS):
    """The merged per-query, per-event runs."""
    seq_of = {edge: seq for seq, edge in enumerate(EDGES)}
    assert len(seq_of) == len(EDGES)
    rows = []
    for order, spec in enumerate(specs):
        hi = len(EDGES) if spec.leave is None else spec.leave * BATCH
        seen = EDGES[spec.join * BATCH:hi]
        events = build_event_list(seen, DELTA)
        if spec.leave is not None:
            # Gone before the next arrival: later expirations are not
            # its to report.
            events = [ev for ev in events if ev.time <= seen[-1].t]
        engine = spec.engine_class(spec.query, LABELS,
                                   edge_label_fn=spec.edge_label_fn)
        result = StreamDriver(engine).run_events(events)
        for event, match in result.occurred + result.expired:
            seq = seq_of[event.edge]
            rows.append(((event.time, event.is_arrival, seq, order),
                         (spec.query_id, event, match, seq)))
    rows.sort(key=lambda row: row[0])
    return [row[1] for row in rows]


def drive(service, call, specs=SPECS, restore=None):
    """The same script against a service; ``call`` names its batch
    method.  ``restore`` (service -> rebuilt service, which it may
    close) runs before batch ``RESTORE_BEFORE``."""
    notes = []
    for number, batch in enumerate(BATCHES):
        if restore is not None and number == RESTORE_BEFORE:
            with pytest.raises(ValueError, match="custom factory"):
                restore(service)
        for spec in specs:
            if spec.leave == number:
                gone = service.unregister(spec.query_id)
                # The index never pruned for the custom factory.
                assert (spec.query_id != "custom"
                        or gone.stats.events_skipped == 0)
            if spec.join == number:
                service.register(spec.query, LABELS, spec.engine,
                                 query_id=spec.query_id,
                                 edge_label_fn=spec.edge_label_fn)
        if restore is not None and number == RESTORE_BEFORE:
            assert service._live        # edges span the checkpoint
            service = restore(service)
        if number == IDLE_BEFORE:
            # Into the gap, past every live edge's window.
            flushed = service.advance_to(batch[0].t - 5)
            assert flushed and not any(n.occurred for n in flushed)
            notes += flushed
        notes += getattr(service, call)(batch)
    notes += service.drain()
    assert service.stats.errored_queries == 0
    return service, [(n.query_id, n.event, n.match, n.seq) for n in notes]


@pytest.fixture(scope="module")
def expected():
    rows = reference()
    # The workload is only a test if every query reports something and
    # both kinds of notification occur.
    assert {row[0] for row in rows} == {spec.query_id for spec in SPECS}
    assert {row[1].is_arrival for row in rows} == {True, False}
    return rows


@pytest.fixture(scope="module")
def expected_restored():
    return reference(RESTORE_SPECS)


@pytest.mark.parametrize("call", ["process_batch", "ingest"])
def test_in_process_service_equals_reference(expected, call):
    service, notes = drive(MatchService(DELTA), call)
    assert notes == expected
    # The index pruned the disjoint groups, never the custom factory.
    assert service.stats.events_skipped > 0
    assert service.query_stats("custom").events_skipped == 0


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sharded_ingest_equals_reference(expected, workers):
    with ShardedMatchService(DELTA, workers=workers) as service:
        assert drive(service, "ingest")[1] == expected
        assert service.query_stats("custom").events_skipped == 0


def through_json(document):
    return json.loads(json.dumps(document))


def test_restored_in_process_service_equals_reference(expected_restored):
    def restore(service):
        return service_checkpoint.restore(
            through_json(service_checkpoint.snapshot(service)),
            edge_label_fns=LABEL_FNS)

    _, notes = drive(MatchService(DELTA), "ingest", RESTORE_SPECS, restore)
    assert notes == expected_restored


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_restored_cluster_equals_reference(expected_restored, workers):
    """Onto a worker count that is not the snapshot's."""
    def restore(service):
        data = through_json(cluster_checkpoint.snapshot(service))
        assert data["workers"] == 3
        service.close()
        return cluster_checkpoint.restore(data, workers=workers,
                                          edge_label_fns=LABEL_FNS)

    service, notes = drive(ShardedMatchService(DELTA, workers=3), "ingest",
                           RESTORE_SPECS, restore)
    service.close()
    assert notes == expected_restored


def test_cluster_restored_in_one_process_equals_reference(
        expected_restored):
    def restore(service):
        data = through_json(cluster_checkpoint.snapshot(service))
        service.close()
        return service_checkpoint.restore(
            cluster_checkpoint.as_service_snapshot(data),
            edge_label_fns=LABEL_FNS)

    _, notes = drive(ShardedMatchService(DELTA, workers=2), "ingest",
                     RESTORE_SPECS, restore)
    assert notes == expected_restored
