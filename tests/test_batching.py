"""Batched ingestion must be byte-identical to per-event processing.

The tentpole contract of the batched hot path: for every engine, every
batch size, and every stream — including expirations straddling batch
boundaries and duplicate (u, v, t) arrivals — ``on_batch`` produces
exactly the per-event output, and ``MatchService`` reports the same
notifications however the stream is split into batches.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import engine_names, make_engine
from repro.graph.temporal_graph import Edge
from repro.query.temporal_query import TemporalQuery
from repro.service import MatchService
from repro.streaming import StreamDriver
from repro.streaming.events import build_event_list

BATCH_SIZES = (1, 7, 64)

TRIANGLE = TemporalQuery(["A", "B", "C"], [(0, 1), (1, 2), (0, 2)],
                         order_pairs=[(0, 1)])
PATH = TemporalQuery(["A", "B", "A"], [(0, 1), (1, 2)],
                     order_pairs=[(0, 1)])


@st.composite
def small_streams(draw):
    """A chronological stream over a small labeled vertex universe."""
    num_vertices = draw(st.integers(min_value=3, max_value=7))
    labels = {v: draw(st.sampled_from(["A", "B", "C"]))
              for v in range(num_vertices)}
    n_edges = draw(st.integers(min_value=4, max_value=28))
    t = 0
    edges = []
    for _ in range(n_edges):
        t += draw(st.integers(min_value=0, max_value=3))
        u = draw(st.integers(min_value=0, max_value=num_vertices - 1))
        v = draw(st.integers(min_value=0, max_value=num_vertices - 1))
        if u == v:
            continue
        edges.append(Edge.make(u, v, t))
    delta = draw(st.integers(min_value=2, max_value=9))
    return labels, edges, delta


def _run(engine_name, query, labels, edges, delta, batch_size):
    engine = make_engine(engine_name, query, labels)
    driver = StreamDriver(engine, batch_size=batch_size)
    return driver.run_edges(edges, delta), engine


@pytest.mark.parametrize("engine_name", engine_names())
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@settings(max_examples=25, deadline=None)
@given(instance=small_streams())
def test_on_batch_identical_to_per_event(engine_name, batch_size,
                                         instance):
    """Property: same (event, match) sequences for every engine and
    batch size, with windows small enough that expirations straddle
    batch boundaries."""
    labels, edges, delta = instance
    base, _ = _run(engine_name, TRIANGLE, labels, edges, delta, None)
    batched, _ = _run(engine_name, TRIANGLE, labels, edges, delta,
                      batch_size)
    assert base.occurred == batched.occurred
    assert base.expired == batched.expired
    assert base.events_processed == batched.events_processed


@pytest.mark.parametrize("engine_name", ["tcm", "tcm-pruning", "symbi"])
def test_expirations_straddling_batch_boundary(engine_name):
    """A window that closes mid-stream: the expirations land in later
    batches than their arrivals for every batch size."""
    labels = {0: "A", 1: "B", 2: "A", 3: "B"}
    edges = [Edge.make(0, 1, t) for t in range(0, 12, 2)]
    edges += [Edge.make(1, 2, t) for t in range(1, 13, 2)]
    edges.sort(key=lambda e: e.t)
    delta = 3  # tiny window: every batch boundary splits some window
    for batch_size in (1, 2, 3, 7, 64):
        base, _ = _run(engine_name, PATH, labels, edges, delta, None)
        batched, _ = _run(engine_name, PATH, labels, edges, delta,
                          batch_size)
        assert base.occurred == batched.occurred, batch_size
        assert base.expired == batched.expired, batch_size


@pytest.mark.parametrize("engine_name", engine_names())
def test_duplicate_arrivals_are_idempotent(engine_name):
    """Regression (graph idempotency satellite): a duplicated
    (u, v, t) triple is a no-op on both ingestion paths — no crash, no
    double-counted matches."""
    labels = {0: "A", 1: "B", 2: "A"}
    edges = [Edge.make(0, 1, 1), Edge.make(0, 1, 1), Edge.make(1, 2, 2),
             Edge.make(1, 2, 2), Edge.make(0, 1, 3)]
    base, e1 = _run(engine_name, PATH, labels, edges, 4, None)
    batched, e2 = _run(engine_name, PATH, labels, edges, 4, 3)
    assert base.occurred == batched.occurred
    assert base.expired == batched.expired
    # The duplicate contributed nothing: the window graph never holds
    # the triple twice.
    assert e1.graph.num_edges() == e2.graph.num_edges() == 0  # drained


def test_batch_counters_advance():
    labels = {0: "A", 1: "B", 2: "A"}
    edges = [Edge.make(0, 1, 1), Edge.make(1, 2, 2), Edge.make(0, 1, 5)]
    engine = make_engine("tcm", PATH, labels)
    events = build_event_list(edges, 3)
    engine.on_batch(events)
    assert engine.stats.batches_processed == 1
    assert engine.stats.events_processed == len(events)


def test_driver_rejects_bad_batch_size():
    engine = make_engine("tcm", PATH, {0: "A", 1: "B", 2: "A"})
    with pytest.raises(ValueError):
        StreamDriver(engine, batch_size=0)


def _service_notes(labels, delta, script):
    """Play ``script`` — edge lists to ingest, ints to ``advance_to`` —
    against a two-query service, then drain."""
    service = MatchService(delta)
    service.register(PATH, labels, "tcm")
    service.register(TRIANGLE, labels, "symbi")
    notes = []
    for step in script:
        notes += (service.advance_to(step) if isinstance(step, int)
                  else service.ingest(step))
    notes += service.drain()
    assert service.stats.errored_queries == 0
    return [(n.query_id, n.event, n.match, n.seq) for n in notes]


@settings(max_examples=60, deadline=None)
@given(instance=small_streams(), data=st.data())
def test_any_split_into_batches_gives_the_same_notifications(instance,
                                                             data):
    """Granularity is how many edges the caller passes: one edge per
    call, the whole stream in one call and any split in between, with
    ``advance_to`` calls in the gaps (anywhere from the clock to the
    next arrival, so some expire edges early), report the same
    notifications in the same order."""
    labels, edges, delta = instance
    script, lo = [], 0
    while lo < len(edges):
        hi = data.draw(st.integers(lo + 1, len(edges)))
        script.append(edges[lo:hi])
        if hi < len(edges) and data.draw(st.booleans()):
            script.append(data.draw(
                st.integers(edges[hi - 1].t, edges[hi].t)))
        lo = hi
    whole = _service_notes(labels, delta, [edges])
    assert _service_notes(labels, delta, script) == whole
    assert _service_notes(labels, delta, [[e] for e in edges]) == whole


class TestServiceProcessBatch:
    LABELS = {0: "A", 1: "B", 2: "A", 3: "B", 4: "A"}

    def _edges(self):
        out = []
        t = 0
        for i in range(30):
            t += i % 3
            out.append(Edge.make(i % 4, (i + 1) % 5, t)
                       if i % 4 != (i + 1) % 5 else Edge.make(0, 1, t))
        out.sort(key=lambda e: e.t)
        return out

    def _drive(self, step):
        service = MatchService(delta=5)
        q1 = service.register(PATH, self.LABELS, "tcm")
        q2 = service.register(TRIANGLE, self.LABELS, "symbi")
        notes = []
        edges = self._edges()
        for lo in range(0, len(edges), step):
            notes.extend(service.process_batch(edges[lo:lo + step]))
        notes.extend(service.drain())
        return service, (q1, q2), notes

    def test_is_ingest_under_its_other_name(self):
        assert MatchService.process_batch is MatchService.ingest

    def test_stats_track_batches(self):
        service, (q1, _), _ = self._drive(9)
        stats = service.query_stats(q1)
        assert stats.batches_processed >= 1
        assert stats.events_processed > 0
        assert service.stats.edges_ingested == 30

    def test_subscribers_fire_in_event_order(self):
        service = MatchService(delta=5)
        seen = []
        service.register(PATH, self.LABELS, "tcm",
                         subscriber=lambda n: seen.append(n))
        service.process_batch(self._edges())
        service.drain()
        times = [(n.event.time, not n.event.is_arrival) for n in seen]
        assert times == sorted(times, key=lambda p: (p[0],))

    def test_failing_engine_is_quarantined_batchwise(self):
        class Boom:
            class stats:
                peak_structure_entries = 0

            def on_batch(self, events):
                raise RuntimeError("boom")

            def on_edge_insert(self, edge):
                raise RuntimeError("boom")

            def on_edge_expire(self, edge):
                return []

        service = MatchService(delta=5)
        bad = service.register(PATH, self.LABELS,
                               lambda q, lb, elf=None: Boom())
        good = service.register(PATH, self.LABELS, "tcm")
        service.process_batch(self._edges())
        service.drain()
        assert not service.registry.get(bad).active
        assert service.registry.get(good).active
        assert service.stats.errored_queries == 1

    def test_out_of_order_rejected_with_prefix(self):
        from repro.service.service import OutOfOrderError
        service = MatchService(delta=5)
        service.register(PATH, self.LABELS, "tcm")
        with pytest.raises(OutOfOrderError):
            service.process_batch([Edge.make(0, 1, 5), Edge.make(1, 2, 1)])
        # The accepted prefix advanced the cursor; the bad edge did not.
        assert service.now == 5
        assert service.seq == 1
