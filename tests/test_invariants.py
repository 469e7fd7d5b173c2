"""Property-based invariants of the incremental index structures.

Beyond matching the oracle's *output*, the internal structures must
stay exactly consistent with a from-scratch recomputation after any
insert/delete sequence — these tests drive random streams through the
max-min index and the DCS and compare against fresh instances built on
the final graph state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dag import build_best_dag
from repro.core.dcs import DCS
from repro.core.maxmin import MaxMinIndex
from repro.core.tcm import TCMEngine
from repro.graph.temporal_graph import Edge, TemporalGraph
from repro.query.temporal_query import TemporalQuery
from repro.streaming.events import build_event_list
from tests.test_directed_and_edge_labels import directed_labeled_instances
from tests.test_property_engines import streams, temporal_queries


def apply_events(query, stream_labels, edges, delta):
    """Drive a TCM engine over the stream, returning it mid-flight at a
    random-ish point (after all arrivals) plus fully drained."""
    engine = TCMEngine(query, stream_labels)
    for event in build_event_list(edges, delta):
        if event.is_arrival:
            engine.on_edge_insert(event.edge)
        else:
            engine.on_edge_expire(event.edge)
        yield engine


def assert_maxmin_matches_scratch(index, graph):
    fresh = MaxMinIndex(index.dag, graph)
    for u in range(index.query.num_vertices):
        for v in graph.vertices():
            assert index.entry(u, v) == fresh.entry(u, v), (u, v)


def check_maxmin_against_scratch(query, labels, edges, delta,
                                 edge_label=lambda edge: None):
    """Drive the query DAG's and the reverse DAG's index over the stream
    twice — refreshed per event, and refreshed the way
    ``TCMEngine.on_batch`` does it (expirations only purge dead
    endpoints and accumulate their pair, the next arrival refreshes all
    accumulated pairs in one call) — comparing with a fresh index after
    every refresh.  Kills the mutant that pushes a changed entry to its
    DAG parents only when its presence flipped, not when a slot their
    transfer plans read moved."""
    events = build_event_list(edges, delta)
    best = build_best_dag(query)
    for dag in (best, best.reverse()):
        for deferred in (False, True):
            graph = TemporalGraph(label_fn=labels.__getitem__,
                                  directed=query.directed)
            index = MaxMinIndex(dag, graph)
            pairs = set()
            for event in events:
                edge = event.edge
                pairs.add((edge.u, edge.v))
                if event.is_arrival:
                    graph.insert_edge(edge, label=edge_label(edge))
                else:
                    graph.remove_edge(edge)
                    if deferred:
                        for v in (edge.u, edge.v):
                            if not graph.has_vertex(v):
                                index.purge_vertex(v)
                        continue
                index.on_graph_changes(pairs)
                pairs.clear()
                assert_maxmin_matches_scratch(index, graph)
            index.on_graph_changes(pairs)
            assert_maxmin_matches_scratch(index, graph)


@settings(max_examples=40, deadline=None)
@given(query=temporal_queries(), stream=streams())
def test_maxmin_always_matches_scratch(query, stream):
    labels, edges, delta = stream
    check_maxmin_against_scratch(query, labels, edges, delta)


@settings(max_examples=40, deadline=None)
@given(instance=directed_labeled_instances())
def test_maxmin_always_matches_scratch_directed_labeled(instance):
    query, labels, elabels, edges, delta = instance
    check_maxmin_against_scratch(query, labels, edges, delta, elabels.get)


def engine_calls(engine, events, sizes):
    """Feed ``events`` to ``engine`` one per-event call at a time, or,
    given ``sizes``, in ``on_batch`` calls of those sizes (cycled);
    yields after every call."""
    if sizes is None:
        for event in events:
            if event.is_arrival:
                engine.on_edge_insert(event.edge)
            else:
                engine.on_edge_expire(event.edge)
            yield
        return
    lo = 0
    while lo < len(events):
        size = sizes[lo % len(sizes)]
        engine.on_batch(events[lo:lo + size])
        lo += size
        yield


@settings(max_examples=30, deadline=None)
@given(query=temporal_queries(), stream=streams(),
       sizes=st.none() | st.lists(st.integers(1, 6), min_size=1,
                                  max_size=6))
def test_dcs_filter_matches_scratch_through_engine(query, stream, sizes):
    """After every call into the full TCM engine — per event, or
    ``on_batch`` at random batch sizes — the DCS edge set must equal
    the engine's valid-candidate predicate evaluated on the current
    window, and D1/D2 must match a fresh DCS fed the same edges.  Kills
    the max-min mutant that reports a changed entry's own-edge windows
    only when its presence flipped: a moved window's stale candidates
    stay."""
    labels, edges, delta = stream
    engine = TCMEngine(query, labels)
    for _ in engine_calls(engine, build_event_list(edges, delta), sizes):
        graph = engine.graph
        # (1) DCS content == valid candidates of the current window.
        expected = set()
        for qe in query.edges:
            for a in graph.vertices():
                for b in graph.neighbors(a):
                    for t in engine._valid_timestamps(qe.index, a, b):
                        expected.add((qe.index, a, b, t))
        actual = set()
        for e in range(query.num_edges):
            for (a, b), ts in engine.dcs._pairs[e].items():
                actual.update((e, a, b, t) for t in ts)
        assert actual == expected
        # (2) The D2 filter (the value the search consults) equals a
        # fresh DCS on the same edge set.  D1 may differ on dangling
        # root pairs (label-only True vs. never-computed absent), which
        # is unobservable: D2 is False for those pairs either way.
        fresh = DCS(engine.dag, graph)
        fresh.apply(sorted(actual), [])
        for u in range(query.num_vertices):
            for v in graph.vertices():
                assert engine.dcs.d2(u, v) == fresh.d2(u, v)
                if engine.dcs.d2(u, v):
                    assert engine.dcs.d1(u, v) and fresh.d1(u, v)


@settings(max_examples=40, deadline=None)
@given(query=temporal_queries(), stream=streams())
def test_structure_sizes_never_negative(query, stream):
    labels, edges, delta = stream
    engine = TCMEngine(query, labels)
    for event in build_event_list(edges, delta):
        if event.is_arrival:
            engine.on_edge_insert(event.edge)
        else:
            engine.on_edge_expire(event.edge)
        assert engine.fwd.size() >= 0
        assert engine.rev.size() >= 0
        assert engine.dcs.num_edges() >= 0
    # Fully drained stream: the window is empty again.
    assert engine.graph.num_edges() == 0
    assert engine.dcs.num_edges() == 0


@settings(max_examples=40, deadline=None)
@given(query=temporal_queries(), stream=streams())
def test_pruned_and_unpruned_counts_agree(query, stream):
    """The pruning rules must never change *how many* embeddings are
    reported per event (a stricter check than multiset equality over
    the whole run)."""
    labels, edges, delta = stream
    pruned = TCMEngine(query, labels, use_pruning=True)
    plain = TCMEngine(query, labels, use_pruning=False)
    for event in build_event_list(edges, delta):
        if event.is_arrival:
            a = pruned.on_edge_insert(event.edge)
            b = plain.on_edge_insert(event.edge)
        else:
            a = pruned.on_edge_expire(event.edge)
            b = plain.on_edge_expire(event.edge)
        assert sorted(a) == sorted(b), event


def test_structure_sizes_pinned():
    """Memory accounting (Fig 10, ``tcm.peak_structure_entries``) counts
    1 + |slots| scalars per stored max-min entry whatever the entry's
    representation: the numbers below were produced by the
    ``(ok, gt dict, lt dict)`` entries this layout replaced."""
    x = 1
    edges = []
    for t in range(1, 601):
        x = (x * 1103515245 + 12345) % 2 ** 31
        u = (x >> 8) % 24
        x = (x * 1103515245 + 12345) % 2 ** 31
        v = (x >> 8) % 24
        edges.append(Edge.make(u, v if v != u else (v + 1) % 24, t))
    labels = {v: "ABC"[v % 3] for v in range(24)}
    query = TemporalQuery(["A", "B", "C", "A"],
                          [(0, 1), (1, 2), (2, 3), (0, 2)],
                          [(0, 1), (1, 2), (0, 3)])
    # Up to the last arrival: the window is still full.
    events = [event for event in build_event_list(edges, 150)
              if event.time <= edges[-1].t]
    per_event = TCMEngine(query, labels)
    matches = sum(len(per_event.on_edge_insert(event.edge)
                      if event.is_arrival
                      else per_event.on_edge_expire(event.edge))
                  for event in events)
    batched = TCMEngine(query, labels)
    assert matches == sum(
        len(found) for lo in range(0, len(events), 32)
        for found in batched.on_batch(events[lo:lo + 32])) == 1338
    for engine in (per_event, batched):
        assert (engine.fwd.size(), engine.rev.size()) == (56, 56)
        assert engine.stats.peak_structure_entries == 317
        assert engine.dcs.num_edges() == 121
        assert engine.dcs.num_d2_vertices() == 31
