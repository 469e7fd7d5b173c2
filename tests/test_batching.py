"""Batched ingestion must be byte-identical to per-event processing.

The tentpole contract of the batched hot path: for every engine, every
batch size, and every stream — including expirations straddling batch
boundaries and duplicate (u, v, t) arrivals — ``on_batch`` produces
exactly the per-event output, and ``MatchService`` reports the same
notifications however the stream is split into batches.
"""

import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import engine_names, make_engine
from repro.core.dcs import DCS
from repro.core.tcm import TCMEngine
from repro.graph.temporal_graph import Edge
from repro.oracle import OracleEngine
from repro.query.temporal_query import TemporalQuery
from repro.service import MatchService
from repro.service.interest import query_pattern_keys
from repro.streaming import StreamDriver
from repro.streaming.events import Event, EventKind, build_event_list

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


# ----------------------------------------------------------------------
# The flush gate, held to the per-event path and to the oracle
# ----------------------------------------------------------------------
#: (vertex labels, edges) x order pairs: a total, a partial and the
#: empty order per shape.
SHAPES = [
    (["A", "B", "C"], [(0, 1), (1, 2)], ([(0, 1)], [(1, 0)], [])),
    (["A", "B", "C"], [(0, 1), (1, 2), (0, 2)],
     ([(0, 1), (1, 2)], [(0, 1)], [])),
    (["A", "B", "A", "B"], [(0, 1), (1, 2), (2, 3)],
     ([(0, 1), (1, 2)], [(0, 2)], [])),
]


def _edge_label_of(edge):
    return "x" if (edge.u + edge.v + edge.t) % 2 else "y"


@st.composite
def gated_instances(draw):
    """A query (any shape and order of :data:`SHAPES`, directed or not,
    edge-labelled or not) and an event list over a small labelled vertex
    universe in which every expiration follows its arrival but arrival
    timestamps are chronological only some of the time — equal
    timestamps on different pairs, and arrivals older than edges already
    inserted, are drawn constantly."""
    vlabels, qedges, orders = draw(st.sampled_from(SHAPES))
    directed = draw(st.booleans())
    edge_labels = (["x"] + [None] * (len(qedges) - 1)
                   if draw(st.booleans()) else None)
    query = TemporalQuery(vlabels, qedges, draw(st.sampled_from(orders)),
                          directed=directed, edge_labels=edge_labels)
    num_vertices = draw(st.integers(min_value=3, max_value=7))
    labels = {v: draw(st.sampled_from(["A", "B", "C", "Z"]))
              for v in range(num_vertices)}
    chronological = draw(st.booleans())
    make = Edge.make_directed if directed else Edge.make
    vertex = st.integers(min_value=0, max_value=num_vertices - 1)
    t, edges = 0, []
    for _ in range(draw(st.integers(min_value=4, max_value=24))):
        t = (t + draw(st.integers(0, 2)) if chronological
             else draw(st.integers(0, 12)))
        u, v = draw(vertex), draw(vertex)
        if u != v and make(u, v, t) not in edges:
            edges.append(make(u, v, t))
    # Window by count, oldest arrival first: an order of events that is
    # valid whatever the timestamps are.
    width = draw(st.integers(min_value=2, max_value=9))
    events = []
    for i, edge in enumerate(edges):
        if i >= width:
            events.append(Event(edges[i - width], edge.t,
                                EventKind.EXPIRATION))
        events.append(Event(edge, edge.t, EventKind.ARRIVAL))
    events += [Event(edge, t + 1, EventKind.EXPIRATION)
               for edge in edges[max(0, len(edges) - width):]]
    return query, labels, events, _edge_label_of if edge_labels else None


def _per_event(engine, events):
    """Algorithm 1 as printed: one call per event."""
    return [engine.on_edge_insert(ev.edge) if ev.is_arrival
            else engine.on_edge_expire(ev.edge) for ev in events]


@pytest.mark.parametrize("engine_name", ["tcm", "tcm-pruning"])
@settings(max_examples=150, deadline=None)
@given(instance=gated_instances())
def test_gated_on_batch_agrees_with_per_event_and_oracle(engine_name,
                                                         instance):
    """Per event, ``on_batch`` at every batch size reports exactly what
    Algorithm 1 as printed and the brute-force oracle report."""
    query, labels, events, elf = instance
    expected = _per_event(OracleEngine(query, labels, elf), events)
    assert _per_event(make_engine(engine_name, query, labels, elf),
                      events) == expected
    for batch_size in BATCH_SIZES:
        engine = make_engine(engine_name, query, labels, elf)
        got = []
        for lo in range(0, len(events), batch_size):
            got += engine.on_batch(events[lo:lo + batch_size])
        assert got == expected, batch_size
        assert engine.structure_entries() == 0      # drained


@pytest.mark.parametrize("first_per_event", [False, True])
def test_order_test_applies_to_chronological_arrivals_only(first_per_event):
    """The order test assumes the arrival is the newest edge of the
    window.  ``(0, 1, t=3)`` arriving after ``(1, 2, t=5)`` matches only
    the non-final query edge, yet completes the embedding: it must flush
    (an engine that applied the order test to it answers ``[[], []]``),
    whichever entry point inserted the newer edge."""
    query = TemporalQuery(["A", "B", "C"], [(0, 1), (1, 2)], [(0, 1)])
    engine = TCMEngine(query, {0: "A", 1: "B", 2: "C"})
    first, second = Edge.make(1, 2, 5), Edge.make(0, 1, 3)
    events = [Event(first, 5, EventKind.ARRIVAL),
              Event(second, 5, EventKind.ARRIVAL)]
    if first_per_event:
        out = [engine.on_edge_insert(first)] + engine.on_batch(events[1:])
    else:
        out = engine.on_batch(events)
    assert out[0] == []
    assert [m.edge_map for m in out[1]] == [(second, first)]
    assert engine.stats.arrivals_deferred == (not first_per_event)


# ----------------------------------------------------------------------
# The live-match ledger: expirations answer from what arrivals found
# ----------------------------------------------------------------------
#: Queries whose embeddings can have two edges at their smallest
#: timestamp: an unordered triangle, a directed anti-parallel pair and
#: an edge-labelled path.
LEDGER_QUERIES = [
    TemporalQuery(["A", "B", "C"], [(0, 1), (1, 2), (0, 2)], []),
    TemporalQuery(["A", "B", "C"], [(0, 1), (1, 0), (1, 2)], [(0, 2)],
                  directed=True),
    TemporalQuery(["A", "B", "A"], [(0, 1), (1, 2)], [],
                  edge_labels=["x", None]),
]


@st.composite
def tied_instances(draw):
    """A query of :data:`LEDGER_QUERIES` and a chronological event list
    on 3-5 vertices in which timestamps tie constantly: arrivals at one
    timestamp come in drawn order, and so do their expirations, which
    keep timestamp order otherwise."""
    query = draw(st.sampled_from(LEDGER_QUERIES))
    num_vertices = draw(st.integers(min_value=3, max_value=5))
    labels = {v: draw(st.sampled_from("ABC")) for v in range(num_vertices)}
    make = Edge.make_directed if query.directed else Edge.make
    vertex = st.integers(min_value=0, max_value=num_vertices - 1)
    t, edges = 0, []
    for _ in range(draw(st.integers(min_value=4, max_value=30))):
        t += draw(st.integers(0, 1))
        u, v = draw(vertex), draw(vertex)
        if u != v and make(u, v, t) not in edges:
            edges.append(make(u, v, t))
    delta = draw(st.integers(min_value=1, max_value=4))
    ranks = draw(st.permutations(range(len(edges))))
    events = [(edge.t, True, i, Event(edge, edge.t, EventKind.ARRIVAL))
              for i, edge in enumerate(edges)]
    events += [(edge.t + delta, False, (edge.t, rank),
                Event(edge, edge.t + delta, EventKind.EXPIRATION))
               for edge, rank in zip(edges, ranks)]
    events.sort(key=lambda item: item[:3])
    elf = _edge_label_of if any(query.edge_labels) else None
    return query, labels, [event for *_, event in events], elf


@pytest.mark.parametrize("engine_name", ["tcm", "tcm-pruning"])
@settings(max_examples=200, deadline=None)
@given(instance=tied_instances(), batch_size=st.sampled_from(BATCH_SIZES))
def test_ledger_answers_what_the_search_and_the_oracle_answer(
        engine_name, instance, batch_size):
    """Expirations answered from the ledger are, per event, what
    Algorithm 1 as printed and the brute-force oracle report, ties at
    the smallest timestamp included; the ledger is held to the end and
    drained with the window."""
    query, labels, events, elf = instance
    expected = _per_event(OracleEngine(query, labels, elf), events)
    assert _per_event(make_engine(engine_name, query, labels, elf),
                      events) == expected
    engine = make_engine(engine_name, query, labels, elf)
    got = []
    for lo in range(0, len(events), batch_size):
        got += engine.on_batch(events[lo:lo + batch_size])
    assert got == expected
    assert engine._ledger == {} and engine.stats.ledger_rows == 0
    assert engine.stats.peak_ledger_rows <= sum(map(len, expected)) // 2


def _ledger_case():
    """Triangles on a small stream: ``(query, labels, events, oracle
    output, cut)``, ``cut`` the first arrival past the middle that
    reports while other embeddings are live."""
    labels, events = _seeded_events(seed=3, n=120, num_vertices=6,
                                    delta=12)
    query = TemporalQuery(["A", "B", "C"], [(0, 1), (1, 2), (0, 2)], [])
    labels = {v: "ABC"[v % 3] for v in labels}
    expected = _per_event(OracleEngine(query, labels), events)
    live = 0
    for cut, (event, matches) in enumerate(zip(events, expected)):
        if cut > len(events) // 2 and event.is_arrival and live and matches:
            return query, labels, events, expected, cut
        live += len(matches) if event.is_arrival else -len(matches)
    raise AssertionError("no arrival reports past the middle")


def test_ledger_is_dropped_for_good_by_a_per_event_call():
    """A per-event arrival finds embeddings the ledger never sees:
    from then on every expiration searches, and the output stays
    exact."""
    query, labels, events, expected, cut = _ledger_case()
    engine = TCMEngine(query, labels)
    got = engine.on_batch(events[:cut])
    assert engine.stats.ledger_rows > 0
    got += _per_event(engine, events[cut:cut + 1])
    assert engine._ledger is None and engine.stats.ledger_rows == 0
    for lo in range(cut + 1, len(events), 8):
        got += engine.on_batch(events[lo:lo + 8])
    assert engine._ledger is None
    assert got == expected
    assert engine.stats.peak_ledger_rows > 0


def test_ledger_is_dropped_for_good_by_an_out_of_order_expiration():
    """An expiration while an older bucket is held may end embeddings
    filed under that older timestamp: the engine searches it, and every
    later one, instead."""
    query = TemporalQuery(["A", "B", "A"], [(0, 1), (1, 2)], [(0, 1)])
    labels = {0: "A", 1: "B", 2: "A"}
    older, newer = Edge.make(0, 1, 1), Edge.make(1, 2, 2)
    events = [Event(older, 1, EventKind.ARRIVAL),
              Event(newer, 2, EventKind.ARRIVAL),
              Event(newer, 3, EventKind.EXPIRATION),   # before `older`
              Event(older, 4, EventKind.EXPIRATION)]
    expected = _per_event(OracleEngine(query, labels), events)
    assert [len(matches) for matches in expected] == [0, 1, 1, 0]
    engine = TCMEngine(query, labels)
    assert engine.on_batch(events[:2]) == expected[:2]
    assert engine.stats.ledger_rows == 1
    assert engine.on_batch(events[2:]) == expected[2:]
    assert engine._ledger is None and engine.stats.ledger_rows == 0


def test_migrated_query_rebuilds_its_ledger_from_the_window():
    """A hop mid-stream: the target engine's window replay files the
    embeddings still live at the cut, so the migrate-then-drain run
    reports exactly what the never-migrated run does."""
    query, labels, events, _, cut = _ledger_case()
    edges = [event.edge for event in events if event.is_arrival]
    cut = sum(event.is_arrival for event in events[:cut])
    single = MatchService(12)
    single.register(query, labels, query_id="q")
    expected = single.ingest(edges) + single.drain()

    source = MatchService(12)
    source.register(query, labels, query_id="q")
    notes = source.ingest(edges[:cut])
    entry = source.registry.get("q")
    window = source.export_query_window(entry)
    held = entry.engine.stats.ledger_rows
    assert held > 0
    now = edges[cut - 1].t
    target = MatchService(12)
    target.ingest_routed([], now, cut)
    moved = target.registry.register(query, labels, "tcm", query_id="q",
                                     joined_seq=entry.joined_seq)
    moved.stats = entry.stats
    notes += target.adopt_query(moved, window, final_now=now)
    assert moved.engine.stats.ledger_rows == held
    notes += target.ingest_routed(
        list(zip(edges[cut:], range(cut, len(edges)))), edges[-1].t,
        len(edges))
    notes += target.drain()
    assert notes == expected


class _GateSpy(TCMEngine):
    """Records what the gate answered for which arrival, and how often
    the search ran for an arrival (right after the gate let it through)
    and for an expiration."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.answers = []
        self.arrival_searches = self.expiration_searches = 0
        self._let_through = False
        search = self.backtracker.find_matches

        def counted(*a, **kw):
            if self._let_through:
                self.arrival_searches += 1
                self._let_through = False
            else:
                self.expiration_searches += 1
            return search(*a, **kw)
        self.backtracker.find_matches = counted

    def _may_report(self, u, v, rows, in_order):
        answer = self._let_through = super()._may_report(u, v, rows,
                                                         in_order)
        self.answers.append((self.labels[u], self.labels[v], answer))
        return answer


def _seeded_events(seed=7, n=400, num_vertices=16, delta=30):
    rng = random.Random(seed)
    labels = {v: "ABCZ"[v % 4] for v in range(num_vertices)}
    t, edges = 0, []
    for _ in range(n):
        t += rng.randint(0, 2)
        u, v = rng.sample(range(num_vertices), 2)
        edges.append(Edge.make(u, v, t))
    return labels, build_event_list(edges, delta)


@pytest.mark.parametrize("order, flushes, deferred, arrival_searches", [
    ([(0, 1), (1, 2)], 77, 128, 37),    # total
    ([(0, 1)], 96, 107, 58),            # partial
    ([], 126, 73, 92),                  # empty
])
def test_gate_decisions_are_pinned(order, flushes, deferred,
                                   arrival_searches):
    """The decision, pinned the way ``test_search_tree_counts_are_pinned``
    pins the tree: a change to what flushes shows up here first.  Every
    arrival the gate lets through searches; no expiration does, since
    each answers from the embeddings its arrivals found."""
    query = TemporalQuery(["A", "B", "C", "A"], [(0, 1), (1, 2), (2, 3)],
                          order)
    labels, events = _seeded_events()
    engine = _GateSpy(query, labels)
    for lo in range(0, len(events), 16):
        engine.on_batch(events[lo:lo + 16])
    stats = engine.stats
    assert (stats.filter_flushes, stats.arrivals_deferred,
            engine.arrival_searches, engine.expiration_searches) \
        == (flushes, deferred, arrival_searches, 0)
    assert stats.arrivals_deferred == sum(
        not answer for _, _, answer in engine.answers)
    if len(order) == 2:
        # Total order: only the image of the final query edge (C-A) is
        # ever let through.
        assert {(a, b) for a, b, answer in engine.answers if answer} \
            <= {("C", "A"), ("A", "C")}
        assert any(answer for _, _, answer in engine.answers)


class _TallyDCS(DCS):
    """Folds Table V's sums after every event, from what the engine
    reads per event."""

    reads = edges_seen = vertices_seen = 0

    def num_edges(self):
        self.reads += 1
        self.edges_seen += super().num_edges()
        return super().num_edges()

    def num_d2_vertices(self):
        self.vertices_seen += super().num_d2_vertices()
        return super().num_d2_vertices()


@pytest.mark.parametrize("tail", [
    [],
    # Ends the last batch in a deferred arrival: an A-B edge on fresh
    # vertices under a total order whose final edge is B-C.
    [Event(Edge.make(100, 101, 10 ** 6), 10 ** 6, EventKind.ARRIVAL)],
])
def test_event_accounting_matches_per_event_path(tail):
    """``events_processed`` / ``extra["events"]`` count every event the
    engine is handed, on both paths: admitted or not, duplicate
    arrivals and absent expirations included (``EngineStats``' rule).
    Folding Table V's sums once per batch loses nothing."""
    query = TemporalQuery(["A", "B", "C"], [(0, 1), (1, 2)], [(0, 1)])
    labels, events = _seeded_events()
    labels.update({100: "A", 101: "B"})
    events = events[:200] + [events[0], events[5]] + events[200:] + tail
    absent = Event(Edge.make(0, 1, 10 ** 5), 10 ** 5, EventKind.EXPIRATION)
    events.insert(50, absent)

    for engine_name in ("tcm", "symbi"):
        base = make_engine(engine_name, query, labels)
        _per_event(base, events)
        batched = make_engine(engine_name, query, labels)
        batched.dcs.__class__ = _TallyDCS
        for lo in range(0, len(events), 16):
            batched.on_batch(events[lo:lo + 16])

        assert base.stats.events_processed \
            == batched.stats.events_processed == len(events)
        assert batched.stats.extra["events"] == base.stats.extra["events"] \
            == batched.dcs.reads == len(events)
        assert batched.stats.extra["dcs_edges_sum"] \
            == batched.dcs.edges_seen
        assert batched.stats.extra["dcs_vertices_sum"] \
            == batched.dcs.vertices_seen
        if tail:
            # TCM's last batch ended in a deferred arrival.
            assert (batched.stats.arrivals_deferred > 0) \
                == (engine_name == "tcm")
            assert batched.on_batch([]) == []


# ----------------------------------------------------------------------
# Nothing outlives the window, nothing irrelevant enters it
# ----------------------------------------------------------------------
#: Undirected, directed and edge-labelled, over the labels ``ABCZ``.
WINDOW_QUERIES = [
    TemporalQuery(["A", "B", "A"], [(0, 1), (1, 2)], [(0, 1)]),
    TemporalQuery(["A", "B", "C"], [(0, 1), (1, 2)], [(0, 1)],
                  directed=True),
    TemporalQuery(["A", "B", "C"], [(0, 1), (1, 2)], [(0, 1)],
                  edge_labels=["x", None]),
]


def _window_instances(seeds, n):
    """Per seed and query of :data:`WINDOW_QUERIES`: ``(rng, labels,
    query, edge-label function, edges, delta)``, ``n`` edges on 4-9
    vertices labelled ``ABCZ``, with repeated ``(u, v, t)`` triples now
    and then."""
    for seed in seeds:
        rng = random.Random(seed)
        num_vertices = rng.randint(4, 9)
        labels = {v: rng.choice("ABCZ") for v in range(num_vertices)}
        for query in WINDOW_QUERIES:
            make = Edge.make_directed if query.directed else Edge.make
            t, edges = 0, []
            for _ in range(n):
                t += rng.randint(0, 2)
                u, v = rng.sample(range(num_vertices), 2)
                edges.append(make(u, v, t))
            elf = _edge_label_of if any(query.edge_labels) else None
            yield rng, labels, query, elf, edges, rng.randint(2, 8)


@pytest.mark.parametrize("engine_name", ["tcm", "tcm-pruning", "symbi"])
@pytest.mark.parametrize("batch_size", [None, 1, 7])
def test_drained_engine_holds_no_entries(engine_name, batch_size):
    """Regression: D1/D2 entries used to outlive a vertex whose last
    edge was label-irrelevant (or, for the per-event path and for
    edge-labelled queries, simply held no candidate), and Fig 10's
    accounting counted them for ever."""
    for _, labels, query, elf, edges, delta in _window_instances(
            range(12), 60):
        engine = make_engine(engine_name, query, labels, elf)
        StreamDriver(engine, batch_size=batch_size).run_edges(edges, delta)
        assert engine.graph.num_edges() == 0
        assert engine.structure_entries() == 0, query
        assert engine.stats.ledger_rows == 0
        if engine_name != "symbi":
            # Held to the end on the batched path, and emptied.
            assert engine._ledger == ({} if batch_size else None)


@pytest.mark.parametrize("engine_name", engine_names())
@pytest.mark.parametrize("feed", ["batch", "per_event", "mixed"])
def test_graph_holds_exactly_the_admitted_live_edges(engine_name, feed):
    """Admission is one decision whichever path feeds the engine: after
    every call the window graph holds exactly the live edges whose
    endpoint labels are in ``query.relevant_label_pairs()``.  ``mixed``
    alternates ``on_batch`` with the per-event methods on one engine,
    the case that leaks if only one path skips; every feed drains to
    an empty graph and no entries."""
    for rng, labels, query, elf, edges, delta in _window_instances(
            range(6), 40):
        relevant = query.relevant_label_pairs()
        engine = make_engine(engine_name, query, labels, elf)
        events = build_event_list(edges, delta)
        live, lo = set(), 0
        while lo < len(events):
            chunk = events[lo:lo + rng.randint(1, 9)]
            lo += len(chunk)
            if feed == "batch" or (feed == "mixed" and rng.random() < .5):
                engine.on_batch(chunk)
            else:
                _per_event(engine, chunk)
            for event in chunk:
                (live.add if event.is_arrival else live.discard)(event.edge)
            admitted = {edge for edge in live
                        if (labels[edge.u], labels[edge.v]) in relevant}
            assert set(engine.graph.edges()) == admitted, query
            assert engine.graph.num_edges() == len(admitted)
        assert engine.graph.num_edges() == 0
        assert engine.structure_entries() == 0, query


def test_service_routing_and_engine_admission_agree():
    """Projected onto endpoint labels, the interest index's keys of a
    query are its relevant label pairs, and those are the keys of TCM's
    rows: the service never routes an edge an engine would not admit,
    whatever the query's shape, order, direction and edge labels."""
    labels = {0: "A", 1: "B", 2: "C"}
    for vlabels, qedges, orders in SHAPES:
        for order in orders:
            for directed in (False, True):
                for edge_labels in (None,
                                    ["x"] + [None] * (len(qedges) - 1)):
                    query = TemporalQuery(vlabels, qedges, order,
                                          directed=directed,
                                          edge_labels=edge_labels)
                    routed = {(src, dst) for src, dst, _ in
                              query_pattern_keys(query)}
                    assert routed == query.relevant_label_pairs() \
                        == set(TCMEngine(query, labels)._rows)


@pytest.mark.parametrize("engine_name", engine_names())
@pytest.mark.parametrize("batched", [False, True])
def test_unlabelled_endpoint_raises_before_any_change(engine_name,
                                                      batched):
    """An arrival with an endpoint without a label raises ``KeyError``
    at admission, on either path, before anything changed (TCM used to
    store the edge and fail after).  The edge is not held, so its
    expiration is an answered no-op, and the engine goes on as if
    neither event had come."""
    engine = make_engine(engine_name, PATH, {0: "A", 1: "B", 2: "A"})
    _per_event(engine, [Event(Edge.make(0, 1, 1), 1, EventKind.ARRIVAL)])
    feed = engine.on_batch if batched else partial(_per_event, engine)
    held = (set(engine.graph.edges()), engine.structure_entries())
    unlabelled = Edge.make(1, 9, 2)
    with pytest.raises(KeyError):
        feed([Event(unlabelled, 2, EventKind.ARRIVAL)])
    assert (set(engine.graph.edges()), engine.structure_entries()) == held
    assert engine.stats.events_processed == 1
    assert feed([Event(unlabelled, 2, EventKind.EXPIRATION)]) == [[]]
    completing = Event(Edge.make(1, 2, 3), 3, EventKind.ARRIVAL)
    assert len(feed([completing])[0]) == 1


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
