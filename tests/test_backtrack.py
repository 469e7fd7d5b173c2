"""Targeted tests for the three time-constrained pruning rules
(Section V).  Each scenario is crafted so a specific rule must fire;
correctness is asserted by comparing against the pruning-free variant,
savings by comparing search-tree node counts.  Below them: the search
tree pinned node for node on seeded streams, edge injectivity without a
used-edge set, the ``MatchBlock`` a search returns held to the oracle's
plain list, and recovery from a call that raised part-way.
"""

import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tcm import TCMEngine
from repro.graph.temporal_graph import Edge
from repro.oracle import OracleEngine
from repro.query import TemporalQuery
from repro.streaming import MatchBlock, StreamDriver, build_event_list


def run_both(query, labels, edges, delta):
    pruned = TCMEngine(query, labels, use_pruning=True)
    plain = TCMEngine(query, labels, use_pruning=False)
    r1 = StreamDriver(pruned).run_edges(edges, delta)
    r2 = StreamDriver(plain).run_edges(edges, delta)
    assert r1.occurrence_multiset() == r2.occurrence_multiset()
    assert r1.expiration_multiset() == r2.expiration_multiset()
    return pruned, plain, r1


class TestRule1NoRelatedEdges:
    """R- empty: one candidate explored, embeddings cloned onto the
    parallel siblings."""

    def test_parallel_edges_cloned(self):
        # Path A-B-C, no temporal order.  Four parallel B-C edges; the
        # A-B edge arrives last so its event triggers the full search.
        query = TemporalQuery(["A", "B", "C"], [(0, 1), (1, 2)])
        labels = {1: "A", 2: "B", 3: "C"}
        edges = [Edge.make(2, 3, t) for t in (1, 2, 3, 4)]
        edges.append(Edge.make(1, 2, 5))
        pruned, plain, result = run_both(query, labels, edges, 100)
        # All four parallel choices yield a match.
        assert len(result.occurred) == 4
        # The pruned engine explored strictly fewer search-tree nodes.
        assert (pruned.stats.backtrack_nodes
                < plain.stats.backtrack_nodes)

    def test_cloning_with_failure_prunes_siblings(self):
        # Path A-B-C-A', no order.  Only ONE data vertex has label A,
        # so u0 and u3 collide: every branch dies on injectivity — a
        # failure weak-embedding filtering cannot see (homomorphisms
        # allow the reuse), so it surfaces in backtracking where rule 1
        # must prune the parallel B-C siblings after the first failure.
        query = TemporalQuery(["A", "B", "C", "A"],
                              [(0, 1), (1, 2), (2, 3)])
        labels = {1: "A", 2: "B", 3: "C"}
        edges = [Edge.make(2, 3, t) for t in (1, 2, 3)]
        edges.append(Edge.make(1, 2, 4))
        edges.append(Edge.make(1, 3, 5))   # event edge closes the path
        pruned, plain, result = run_both(query, labels, edges, 100)
        assert not result.occurred
        assert pruned.stats.candidates_pruned >= 2


class TestRule2UniformDirection:
    """All remaining related edges on the same side: chronological scan
    with early termination."""

    def test_successor_side_breaks_on_failure(self):
        # Query path: e0 = A-B, e1 = B-C with e1 < e0 (e0 must be LATER
        # than e1).  Data: one A-B edge at t=5, parallel B-C edges at
        # t in {1, 2, 3, 7, 8, 9}; only t < 5 can support a match.  When
        # e1 is matched after e0 (event = A-B edge), R-(e1) is empty...
        # so instead make the order e0 < e1 and put the A-B edge FIRST:
        # then on the A-B event nothing matches yet, and on each B-C
        # arrival the pending edge e1 has R+ = {e0}; to exercise R- we
        # need a third edge.  Use a path of three edges with a chain
        # order e0 < e1 < e2.
        query = TemporalQuery(["A", "B", "C", "D"],
                              [(0, 1), (1, 2), (2, 3)],
                              [(0, 1), (1, 2)])
        labels = {1: "A", 2: "B", 3: "C", 4: "D"}
        edges = [
            Edge.make(1, 2, 1),                       # e0 image
            *(Edge.make(2, 3, t) for t in (2, 3, 4, 5, 6)),
            Edge.make(3, 4, 7),                       # e2 image (event)
        ]
        pruned, plain, result = run_both(query, labels, edges, 100)
        # All five middle edges are valid (1 < t < 7): 5 matches.
        assert len(result.occurred) == 5
        assert (pruned.stats.backtrack_nodes
                <= plain.stats.backtrack_nodes)

    def test_failure_cuts_later_candidates(self):
        # Chain order e0 < e1 < e2 but e2's image arrives too early:
        # when matching e1 in chronological order, every candidate with
        # t >= t(e2 image) fails, and after the first failure the rest
        # must be skipped.
        query = TemporalQuery(["A", "B", "C", "D"],
                              [(0, 1), (1, 2), (2, 3)],
                              [(0, 1), (1, 2)])
        labels = {1: "A", 2: "B", 3: "C", 4: "D"}
        edges = [
            Edge.make(1, 2, 1),
            Edge.make(3, 4, 2),                        # e2 image, early!
            *(Edge.make(2, 3, t) for t in (3, 4, 5, 6)),
        ]
        pruned, plain, result = run_both(query, labels, edges, 100)
        assert not result.occurred  # t(e1) must be < 2: impossible
        assert (pruned.stats.backtrack_nodes
                <= plain.stats.backtrack_nodes)


class TestRule3FailingSets:
    """Mixed R-: temporal failing sets prune parallel siblings whose
    choice provably did not cause the failure."""

    def test_structural_failure_prunes_all_siblings(self):
        # Query: star u1 - u0 - u2 plus pendant u2 - u3, with mixed
        # relations on the pendant edge.  The data graph lacks any D
        # vertex, so failures are structural (empty failing set) and
        # every parallel sibling must be pruned.
        query = TemporalQuery(
            ["A", "B", "C", "D"],
            [(0, 1), (0, 2), (2, 3)],
            [(0, 2), (2, 1)],   # e0 < e2 and e2 < e1: e2 has mixed R-
        )
        labels = {1: "A", 2: "B", 3: "C"}
        edges = [
            Edge.make(1, 3, 1),                     # e1 image (A-C)
            *(Edge.make(1, 2, t) for t in (2, 3, 4)),  # parallel A-B
        ]
        pruned, plain, result = run_both(query, labels, edges, 100)
        assert not result.occurred
        assert (pruned.stats.backtrack_nodes
                <= plain.stats.backtrack_nodes)


class TestPruningNeverChangesResults:
    def test_dense_parallel_workload(self):
        import random
        rng = random.Random(99)
        query = TemporalQuery(
            ["A", "B", "C"], [(0, 1), (1, 2), (0, 2)],
            [(0, 1), (0, 2)])
        labels = {i: lab for i, lab in
                  enumerate(["A", "A", "B", "B", "C", "C"])}
        pairs = [(0, 2), (0, 3), (1, 2), (2, 4), (3, 5), (0, 4), (1, 5)]
        edges = []
        for t in range(1, 40):
            u, v = rng.choice(pairs)
            edges.append(Edge.make(u, v, t))
        run_both(query, labels, edges, delta=15)


# ----------------------------------------------------------------------
# The search tree, node for node
# ----------------------------------------------------------------------
def multigraph_stream(seed, vertices, vertex_labels, num_edges,
                      directed=False, edge_labels=None):
    """A seeded stream over a small vertex pool, one edge per tick:
    parallel edges everywhere.  Returns (labels, edges, edge-label map)."""
    rng = random.Random(seed)
    labels = {v: vertex_labels[v % len(vertex_labels)]
              for v in range(vertices)}
    make = Edge.make_directed if directed else Edge.make
    edges, elabels = [], {}
    for t in range(1, num_edges + 1):
        u, v = rng.sample(range(vertices), 2)
        edge = make(u, v, t)
        edges.append(edge)
        if edge_labels:
            elabels[edge] = rng.choice(edge_labels)
    return labels, edges, elabels


PATH5_MIXED = dict(
    query=TemporalQuery(["A"] * 5, [(0, 1), (1, 2), (2, 3), (3, 4)],
                        [(2, 0), (0, 3)]),
    stream=dict(seed=24, vertices=5, vertex_labels="A", num_edges=60),
    delta=20)

#: name -> (case, engine arguments, (backtrack_nodes, candidates_pruned,
#: matches_emitted)).  The counts were recorded at commit dbd7ab8, the
#: last one with the interpreted search (where a per-rule tally of the
#: same runs showed rule 1 pruning in the first case, rule 2 in both
#: directions in the second and fifth/sixth, rule 3 in the third): a
#: rewrite of the search has to walk the same tree.
GOLDEN = {
    "rule 1, no order": (dict(
        query=TemporalQuery(["A", "B", "A", "B"],
                            [(0, 1), (1, 2), (2, 3)]),
        stream=dict(seed=11, vertices=6, vertex_labels="AB",
                    num_edges=120),
        delta=30), {}, (4636, 25, 6524)),
    "rule 2, chain order": (dict(
        query=TemporalQuery(["A", "B", "A", "B"],
                            [(0, 1), (1, 2), (2, 3)], [(0, 1), (1, 2)]),
        stream=dict(seed=12, vertices=6, vertex_labels="AB",
                    num_edges=160),
        delta=40), {}, (4243, 25, 2576)),
    "rule 3, mixed order": (PATH5_MIXED, {}, (10761, 1007, 3870)),
    "no pruning": (PATH5_MIXED, dict(use_pruning=False),
                   (18458, 0, 3870)),
    "directed, anti-parallel pair": (dict(
        query=TemporalQuery(["A", "B", "A"], [(0, 1), (1, 0), (1, 2)],
                            [(0, 2)], directed=True),
        stream=dict(seed=14, vertices=5, vertex_labels="AB",
                    num_edges=200, directed=True),
        delta=50), {}, (1651, 14, 1626)),
    "edge labels": (dict(
        query=TemporalQuery(["A", "B", "A"], [(0, 1), (1, 2), (0, 2)],
                            [(1, 0)], edge_labels=["p", None, "q"]),
        stream=dict(seed=15, vertices=6, vertex_labels="AB",
                    num_edges=200, edge_labels="pq"),
        delta=50), {}, (1326, 6, 1344)),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_search_tree_counts_are_pinned(name):
    case, engine_args, expected = GOLDEN[name]
    labels, edges, elabels = multigraph_stream(**case["stream"])
    engine = TCMEngine(case["query"], labels,
                       edge_label_fn=elabels.get if elabels else None,
                       **engine_args)
    StreamDriver(engine).run_edges(edges, case["delta"])
    stats = engine.stats
    assert (stats.backtrack_nodes, stats.candidates_pruned,
            stats.matches_emitted) == expected


# ----------------------------------------------------------------------
# Edge injectivity follows from vertex injectivity
# ----------------------------------------------------------------------
@st.composite
def multigraph_instances(draw):
    """A random simple query — undirected, or directed with
    anti-parallel pairs allowed, optionally edge-labelled, under an
    empty, partial or total order — and a stream over at most four
    vertices, so that every adjacent pair carries parallel edges.
    Returns ``(query, labels, stream, delta, engine arguments)``; the
    engine arguments carry the stream's edge labels and which of ``tcm``
    / ``tcm-pruning`` runs."""
    directed = draw(st.booleans())
    n = draw(st.integers(min_value=2, max_value=4))
    edges = []
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges.append((v, u) if directed and draw(st.booleans())
                     else (u, v))
    pool = [(u, v) for u in range(n) for v in range(n)
            if u != v and (directed or u < v) and (u, v) not in edges
            and (directed or (v, u) not in edges)]
    if pool:
        edges.extend(draw(st.lists(st.sampled_from(pool), unique=True,
                                   max_size=3)))
    m = len(edges)
    rank = draw(st.permutations(list(range(m))))
    density = draw(st.sampled_from(["empty", "partial", "total"]))
    pairs = [(i, j) for i in range(m) for j in range(m)
             if rank[i] < rank[j] and density != "empty"
             and (density == "total" or draw(st.booleans()))]
    labelled = draw(st.booleans())
    query = TemporalQuery(
        ["X"] * n, edges, pairs, directed=directed,
        edge_labels=(draw(st.lists(st.sampled_from(["p", "q", None]),
                                   min_size=m, max_size=m))
                     if labelled else None))
    labels, stream, elabels = multigraph_stream(
        seed=draw(st.integers(min_value=0, max_value=10 ** 6)),
        vertices=draw(st.integers(min_value=2, max_value=4)),
        vertex_labels="X",
        num_edges=draw(st.integers(min_value=1, max_value=14)),
        directed=directed, edge_labels="pq" if labelled else None)
    engine_args = dict(edge_label_fn=elabels.get if labelled else None,
                       use_pruning=draw(st.booleans()))
    return (query, labels, stream,
            draw(st.integers(min_value=2, max_value=10)), engine_args)


def per_event(instance):
    """``(event, what TCM returned, what the oracle returned)`` over the
    instance's stream, per-event path."""
    query, labels, stream, delta, engine_args = instance
    engine = TCMEngine(query, labels, **engine_args)
    oracle = OracleEngine(query, labels, engine_args["edge_label_fn"])
    for event in build_event_list(stream, delta):
        if event.is_arrival:
            yield (event, engine.on_edge_insert(event.edge),
                   oracle.on_edge_insert(event.edge))
        else:
            yield (event, engine.on_edge_expire(event.edge),
                   oracle.on_edge_expire(event.edge))


@settings(max_examples=150, deadline=None)
@given(instance=multigraph_instances())
def test_reported_edge_maps_are_injective_and_equal_the_oracle(instance):
    """The search keeps no used-edge set (see the module docstring of
    ``core/backtrack.py``); the oracle checks edge injectivity
    explicitly, so equal per-event lists pin the argument."""
    query = instance[0]
    for _, got, want in per_event(instance):
        for match in got:
            assert len(set(match.edge_map)) == query.num_edges
        assert got == want


# ----------------------------------------------------------------------
# The block: what one event reported, held to the oracle's plain list
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(instance=multigraph_instances())
def test_a_block_reads_as_the_oracles_sorted_list(instance):
    """Group-then-sort is the canonical sort, the count needs no match,
    and equality holds from either side."""
    for _, got, want in per_event(instance):
        with mock.patch.object(MatchBlock, "_matches", None):  # no reads
            assert len(got) == len(want)
            assert bool(got) == bool(want)
        read = list(got)
        assert read == sorted(read) == want
        assert got == want and want == read
        assert want == got      # list.__eq__ defers to the block
        if want:
            assert got != want[:-1] and got[0] == want[0]
            assert got[-1] == want[-1] and got[:2] == want[:2]


@settings(max_examples=150, deadline=None)
@given(instance=multigraph_instances())
def test_what_a_block_builds_is_shared_and_well_formed(instance):
    """Within one block equal vertex maps are one object, and below one
    vertex map equal ``(query edge, image)`` are one ``Edge``; every
    image is what ``Edge.make`` / ``make_directed`` gives for the mapped
    endpoints; the event edge is in every match."""
    query = instance[0]
    make = Edge.make_directed if query.directed else Edge.make
    for event, got, _ in per_event(instance):
        vertex_maps, images = {}, {}
        for match in got:
            shared = vertex_maps.setdefault(match.vertex_map,
                                            match.vertex_map)
            assert shared is match.vertex_map
            assert event.edge in match.edge_map
            for qe, image in zip(query.edges, match.edge_map):
                assert image == make(match.vertex_map[qe.u],
                                     match.vertex_map[qe.v], image.t)
                assert type(image) is Edge
                key = (match.vertex_map, qe.index, image)
                assert images.setdefault(key, image) is image


def test_a_block_and_a_result_holding_blocks_pickle():
    case, _, (_, _, emitted) = GOLDEN["rule 1, no order"]
    labels, edges, _ = multigraph_stream(**case["stream"])
    result = StreamDriver(TCMEngine(case["query"], labels),
                          batch_size=16).run_edges(edges, case["delta"])
    assert result.num_occurred + result.num_expired == emitted
    blocks = [block for _, block in result.reports]
    assert all(type(block) is MatchBlock for block in blocks)
    big = max(blocks, key=len)
    copy = pickle.loads(pickle.dumps(big))
    assert copy == big and list(copy) == list(big) and len(copy) == len(big)
    assert pickle.loads(pickle.dumps(result)) == result


# ----------------------------------------------------------------------
# A call that raised must not poison the next
# ----------------------------------------------------------------------
def test_engine_recovers_from_a_search_that_raised_partway():
    """``StreamDriver`` and library users keep an engine after an
    exception (``KeyboardInterrupt``, ``MemoryError`` on a huge event);
    the search state the aborted call left behind must not leak into
    later embeddings."""
    case, _, _ = GOLDEN["rule 1, no order"]
    labels, edges, _ = multigraph_stream(**case["stream"])
    events = build_event_list(edges, case["delta"])

    def feed(engine, event):
        return (engine.on_edge_insert(event.edge) if event.is_arrival
                else engine.on_edge_expire(event.edge))

    fresh = TCMEngine(case["query"], labels)
    expected = [feed(fresh, event) for event in events]
    # The first expiration with many embeddings: backtracking runs
    # before the engine mutates anything, so the call can be repeated.
    victim = next(i for i, event in enumerate(events)
                  if not event.is_arrival and len(expected[i]) > 20)

    engine = TCMEngine(case["query"], labels)
    for event in events[:victim]:
        feed(engine, event)
    # The search's neighbour scan: one call per extendable vertex.
    items = engine.graph.neighbor_items
    calls = []

    def failing_once(v, label, incoming=False):
        calls.append(v)
        if len(calls) == 3:     # two vertex extensions deep
            raise MemoryError("simulated")
        return items(v, label, incoming)

    engine.graph.neighbor_items = failing_once
    with pytest.raises(MemoryError):
        feed(engine, events[victim])
    del engine.graph.neighbor_items
    assert [feed(engine, event) for event in events[victim:]] \
        == expected[victim:]
