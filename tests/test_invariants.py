"""Property-based invariants of the incremental index structures.

Beyond matching the oracle's *output*, the internal structures must
stay consistent with a from-scratch recomputation after any
insert/delete sequence — these tests drive random streams through the
max-min index and the DCS and compare against fresh instances built on
the current graph state: equal on the per-event path, looser or equal
(a sound superset holding nothing dead) after every ``on_batch``.
"""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dag import build_best_dag
from repro.core.dcs import DCS
from repro.core.maxmin import ABSENT, MaxMinIndex
from repro.core.tcm import TCMEngine
from repro.datasets import DATASET_SPECS, generate_stream
from repro.graph.temporal_graph import Edge, TemporalGraph
from repro.query.temporal_query import TemporalQuery
from repro.streaming.events import build_event_list
from repro.workloads import random_walk_query
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
    twice — refreshed per event, and deferred (expirations only purge
    dead endpoints and accumulate their pair, the next arrival
    refreshes all accumulated pairs in one call) — comparing with a
    fresh index after every refresh: one propagation seeded with many
    pairs reaches the per-event fixed point.  Kills the mutant that pushes a changed entry to its
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


def assert_sound_superset(engine):
    """The batched engine's invariant after every ``on_batch``: its
    filter is looser than or equal to one built from scratch on the
    current window, and holds nothing dead.

    * every stored max-min entry sits at a live vertex, and is present
      wherever the scratch entry is, with every gt bound >= and every
      lt bound <= the scratch one;
    * the DCS holds every candidate valid under the scratch windows,
      and every timestamp it holds is a live edge;
    * D2 holds wherever a DCS fed the scratch candidates has it."""
    graph, query = engine.graph, engine.query
    # The engine's own Lemma IV.3 predicate, reading fresh indexes.
    scratch = copy.copy(engine)
    for name in ("fwd", "rev"):
        index = getattr(engine, name)
        fresh = MaxMinIndex(index.dag, graph)
        setattr(scratch, name, fresh)
        for u, table in enumerate(index._entries):
            gts = len(index.dag.rel_gt[u])
            for v, stored in table.items():
                assert graph.has_vertex(v), (name, u, v)
                exact = fresh.entry(u, v)
                if exact is ABSENT:
                    continue
                assert stored is not ABSENT, (name, u, v)
                assert all(s >= x for s, x in zip(stored[:gts], exact)), \
                    (name, u, v, stored, exact)
                assert all(s <= x for s, x in zip(stored[gts:],
                                                  exact[gts:])), \
                    (name, u, v, stored, exact)
    valid = set()
    for qe in query.edges:
        for a in graph.vertices():
            for b in graph.neighbors(a):
                valid.update((qe.index, a, b, t) for t in
                             scratch._valid_timestamps(qe.index, a, b))
    held = set()
    for e in range(query.num_edges):
        for (a, b), ts in engine.dcs.candidate_table(e).items():
            live = set(graph.timestamps_between(a, b))
            assert live.issuperset(ts), (e, a, b, ts)
            held.update((e, a, b, t) for t in ts)
    assert held >= valid, valid - held
    fresh_dcs = DCS(engine.dag, graph)
    fresh_dcs.apply(sorted(valid), [])
    for u in range(query.num_vertices):
        for v in graph.vertices():
            if fresh_dcs.d2(u, v):
                assert engine.dcs.d2(u, v), (u, v)


batch_sizes = st.lists(st.integers(1, 6), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(query=temporal_queries(), stream=streams(), sizes=batch_sizes)
def test_batched_filter_is_a_sound_superset(query, stream, sizes):
    """Expirations in ``on_batch`` only discard their own candidates;
    what they would tighten stays loose until an arrival's propagation
    recomputes it.  The invariant that keeps the output exact anyway:
    see :func:`assert_sound_superset`."""
    labels, edges, delta = stream
    engine = TCMEngine(query, labels)
    for _ in engine_calls(engine, build_event_list(edges, delta), sizes):
        assert_sound_superset(engine)
    assert engine.structure_entries() == 0


@settings(max_examples=60, deadline=None)
@given(instance=directed_labeled_instances(), sizes=batch_sizes)
def test_batched_filter_is_a_sound_superset_directed_labeled(instance,
                                                             sizes):
    query, labels, elabels, edges, delta = instance
    engine = TCMEngine(query, labels, edge_label_fn=elabels.get)
    for _ in engine_calls(engine, build_event_list(edges, delta), sizes):
        assert_sound_superset(engine)
    assert engine.structure_entries() == 0


@pytest.mark.parametrize("name, num_edges, delta", [
    ("superuser", 6000, 1000),
    ("yahoo", 3000, 500),
])
def test_batched_filter_stays_within_the_label_filter(name, num_edges,
                                                      delta):
    """The looseness is bounded: over six windows, batches of 256, the
    batched engine never holds more candidate edges than an engine that
    filters by label only (expirations still discard their own, and
    dead vertices are purged), and a drained engine holds nothing."""
    stream = generate_stream(DATASET_SPECS[name], num_edges, seed=3)
    graph = TemporalGraph(labels=stream.labels, directed=stream.directed)
    elabels = stream.edge_labels or {}
    for edge in stream.edges[:delta]:
        graph.insert_edge(edge, label=elabels.get(edge))
    rng = random.Random(4)
    events = build_event_list(stream.edges, delta)
    for size in (3, 4):
        query = random_walk_query(graph, size, rng, density=1.0).query
        lazy, by_label = (
            TCMEngine(query, stream.labels, use_tc_filter=tc,
                      edge_label_fn=stream.edge_label_fn())
            for tc in (True, False))
        for lo in range(0, len(events), 256):
            lazy.on_batch(events[lo:lo + 256])
            by_label.on_batch(events[lo:lo + 256])
            assert lazy.dcs.num_edges() <= by_label.dcs.num_edges()
        assert lazy.structure_entries() == 0


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
    assert (per_event.fwd.size(), per_event.rev.size()) == (56, 56)
    assert per_event.stats.peak_structure_entries == 317
    assert per_event.dcs.num_edges() == 121
    assert per_event.dcs.num_d2_vertices() == 31
    # The batched engine's filter is a sound superset that only arrivals
    # tighten (``TCMEngine.on_batch``): two candidate edges more here.
    assert (batched.fwd.size(), batched.rev.size()) == (56, 56)
    assert batched.stats.peak_structure_entries == 324
    assert batched.dcs.num_edges() == 123
    assert batched.dcs.num_d2_vertices() == 31
