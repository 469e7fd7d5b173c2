"""Unit tests for the temporal multigraph."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Edge, TemporalGraph


def make_graph():
    return TemporalGraph(labels={1: "A", 2: "B", 3: "A"})


class TestEdge:
    def test_make_normalizes_endpoints(self):
        assert Edge.make(5, 3, 7) == Edge.make(3, 5, 7)
        assert Edge.make(5, 3, 7).u == 3

    def test_other_endpoint(self):
        edge = Edge.make(1, 2, 5)
        assert edge.other(1) == 2
        assert edge.other(2) == 1

    def test_other_rejects_non_endpoint(self):
        with pytest.raises(ValueError):
            Edge.make(1, 2, 5).other(3)

    def test_ordering_is_by_endpoints_then_time(self):
        assert Edge.make(1, 2, 3) < Edge.make(1, 2, 4) < Edge.make(1, 3, 1)


class TestTemporalGraph:
    def test_insert_and_query(self):
        g = make_graph()
        g.insert_edge(Edge.make(1, 2, 5))
        assert g.has_edge(Edge.make(2, 1, 5))
        assert g.num_edges() == 1
        assert g.num_vertices() == 2
        assert set(g.neighbors(1)) == {2}

    def test_parallel_edges_sorted(self):
        g = make_graph()
        for t in (9, 3, 7):
            g.insert_edge(Edge.make(1, 2, t))
        assert list(g.timestamps_between(1, 2)) == [3, 7, 9]
        assert list(g.timestamps_between(2, 1)) == [3, 7, 9]
        assert [e.t for e in g.edges_between(1, 2)] == [3, 7, 9]

    def test_duplicate_insert_is_idempotent(self):
        """Regression: re-inserting the same (u, v, t) triple must be a
        no-op — not a double-counted parallel candidate, not an error."""
        g = make_graph()
        assert g.insert_edge(Edge.make(1, 2, 5)) is True
        assert g.insert_edge(Edge.make(2, 1, 5)) is False
        assert g.num_edges() == 1
        assert list(g.timestamps_between(1, 2)) == [5]
        assert g.degree(1) == 1
        g.remove_edge(Edge.make(1, 2, 5))
        assert g.num_edges() == 0
        with pytest.raises(KeyError):
            g.remove_edge(Edge.make(1, 2, 5))

    def test_duplicate_insert_idempotent_directed_and_labeled(self):
        g = TemporalGraph(labels={1: "A", 2: "B"}, directed=True)
        assert g.insert_edge(Edge.make_directed(1, 2, 5), label="x") is True
        assert g.insert_edge(Edge.make_directed(1, 2, 5), label="x") is False
        assert g.num_edges() == 1
        assert list(g.timestamps_with_label(1, 2, "x")) == [5]
        # The anti-parallel edge is a different directed edge, not a dup.
        assert g.insert_edge(Edge.make_directed(2, 1, 5)) is True
        assert g.num_edges() == 2

    def test_label_pairs_admit_only_their_edges(self):
        """A graph with ``label_pairs`` stores an edge only if its
        ``(label(u), label(v))`` is one of them (in that order when
        directed); refusing one changes nothing, and a missing label
        raises before anything changed."""
        g = TemporalGraph(labels={1: "A", 2: "B", 3: "A"}, directed=True,
                          label_pairs={("A", "B")})
        assert g.insert_edge(Edge.make_directed(1, 2, 5)) is True
        assert g.insert_edge(Edge.make_directed(2, 3, 6)) is False
        assert g.insert_edge(Edge.make_directed(1, 3, 7)) is False
        with pytest.raises(KeyError):
            g.insert_edge(Edge.make_directed(1, 9, 8))
        assert list(g.edges()) == [Edge.make_directed(1, 2, 5)]
        assert set(g.vertices()) == {1, 2}
        assert g.copy().label_pairs == {("A", "B")}

    def test_remove_edge(self):
        g = make_graph()
        g.insert_edge(Edge.make(1, 2, 5))
        g.insert_edge(Edge.make(1, 2, 6))
        g.remove_edge(Edge.make(1, 2, 5))
        assert list(g.timestamps_between(1, 2)) == [6]
        g.remove_edge(Edge.make(1, 2, 6))
        assert not g.has_vertex(1)
        assert not g.has_vertex(2)
        assert g.num_edges() == 0

    def test_remove_missing_raises(self):
        g = make_graph()
        with pytest.raises(KeyError):
            g.remove_edge(Edge.make(1, 2, 5))

    def test_vertex_disappears_without_incident_edges(self):
        g = make_graph()
        g.insert_edge(Edge.make(1, 2, 1))
        g.insert_edge(Edge.make(2, 3, 2))
        g.remove_edge(Edge.make(1, 2, 1))
        assert not g.has_vertex(1)
        assert g.has_vertex(2)
        assert g.has_vertex(3)

    def test_degree_counts_multiplicity(self):
        g = make_graph()
        g.insert_edge(Edge.make(1, 2, 1))
        g.insert_edge(Edge.make(1, 2, 2))
        g.insert_edge(Edge.make(1, 3, 3))
        assert g.degree(1) == 3
        assert g.neighbor_count(1) == 2

    def test_count_between_bounds(self):
        g = make_graph()
        for t in (1, 4, 6, 9):
            g.insert_edge(Edge.make(1, 2, t))
        assert g.count_between_after(1, 2, 4) == 2
        assert g.count_between_before(1, 2, 4) == 1
        assert g.count_between_after(1, 2, 0) == 4
        assert g.count_between_before(1, 2, 100) == 4

    def test_edges_iterates_each_once(self):
        g = make_graph()
        g.insert_edge(Edge.make(1, 2, 1))
        g.insert_edge(Edge.make(2, 3, 2))
        g.insert_edge(Edge.make(1, 2, 3))
        assert sorted(g.edges()) == [
            Edge.make(1, 2, 1), Edge.make(1, 2, 3), Edge.make(2, 3, 2)]

    def test_labels(self):
        g = make_graph()
        assert g.label(1) == "A"
        assert g.label(2) == "B"
        with pytest.raises(KeyError):
            g.label(99)

    def test_label_fn(self):
        g = TemporalGraph(label_fn=lambda v: v % 2)
        assert g.label(7) == 1

    def test_labels_and_label_fn_exclusive(self):
        with pytest.raises(ValueError):
            TemporalGraph(labels={1: "A"}, label_fn=lambda v: "B")

    def test_copy_is_independent(self):
        g = make_graph()
        g.insert_edge(Edge.make(1, 2, 1))
        clone = g.copy()
        clone.insert_edge(Edge.make(1, 2, 2))
        assert g.num_edges() == 1
        assert clone.num_edges() == 2


class TestRowsAndIndexes:
    def test_rows_are_recycled_past_the_window(self):
        """A window sliding over many distinct pairs holds no more rows
        than it ever held live pairs: an emptied row's id is freed and
        reused, and leaves the pair table and both indexes.  Kills the
        mutant that unlinks a row without freeing its id."""
        g = TemporalGraph(label_fn=lambda v: v % 3)
        window = deque()
        for t in range(20000):
            window.append(Edge.make(t, t + 1 + t % 7, t))
            g.insert_edge(window[-1])
            if len(window) > 50:
                g.remove_edge(window.popleft())
            assert len(g._ts) <= len(g._pair_ids) + len(g._free) <= 51
        while window:
            g.remove_edge(window.popleft())
        assert (g._pair_ids, g._adj, g._nbr) == ({}, {}, {})
        assert len(g._free) == len(g._ts)


@st.composite
def graph_operations(draw):
    """A graph shape plus a random sequence of inserts and removes over
    a few vertices (self-loops included), some edges edge-labelled."""
    directed = draw(st.booleans())
    n = draw(st.integers(1, 6))
    labels = {v: draw(st.sampled_from("AB")) for v in range(n)}
    ops = draw(st.lists(st.tuples(
        st.booleans(), st.integers(0, n - 1), st.integers(0, n - 1),
        st.integers(0, 4), st.sampled_from([None, "x", "y"])),
        max_size=60))
    return directed, labels, ops


@settings(max_examples=150, deadline=None)
@given(case=graph_operations())
def test_label_index_is_the_filtered_flat_index(case):
    """After every insert or remove, against reference insertion-ordered
    dicts of the linked pairs (out- and in-rows apart when directed):
    ``neighbors()`` iterates in linking order when undirected (the order
    ``random_walk_query`` draws the ledger's queries in) and is the
    out/in union when directed; ``neighbor_items(v, label, incoming)``
    is the reference filtered by the neighbour's label, in the same
    order, mapping each neighbour to the pair id whose rows are the
    pair's timestamps, edge-labelled ones included.  Kills the mutants
    that forget the label index on unlink, or key it by the wrong
    endpoint's label."""
    directed, labels, ops = case
    g = TemporalGraph(labels=labels, directed=directed)
    make = Edge.make_directed if directed else Edge.make
    out = {}                 # v -> {w: None}, in linking order
    into = {} if directed else out
    live = {}                # edge -> its edge label
    for insert, a, b, t, elabel in ops:
        edge = make(a, b, t)
        pair_live = any(e[:2] == edge[:2] for e in live)
        if insert:
            assert g.insert_edge(edge, label=elabel) == (edge not in live)
            live.setdefault(edge, elabel)
            if not pair_live:
                link(out, into, edge.u, edge.v, dict.setdefault)
        else:
            assert g.discard_edge(edge) == (edge in live)
            live.pop(edge, None)
            if pair_live and not any(e[:2] == edge[:2] for e in live):
                link(out, into, edge.u, edge.v, dict.pop)
        rows = g.timestamp_rows()
        for v in labels:
            if directed:
                assert set(g.neighbors(v)) == (set(out.get(v, ()))
                                               | set(into.get(v, ())))
            else:
                assert list(g.neighbors(v)) == list(out.get(v, ()))
            for incoming, ref in ((False, out), (True, into)):
                for label in "AB":
                    found = g.neighbor_items(v, label, incoming)
                    assert list(found) == [w for w in ref.get(v, ())
                                           if labels[w] == label]
                    for w, pid in found.items():
                        pair = (w, v) if incoming else (v, w)
                        if not directed and pair[0] > pair[1]:
                            pair = pair[::-1]
                        assert rows(pid) is g.timestamps_between(*pair)
                        for elabel in ("x", "y"):
                            assert list(g.timestamp_rows(elabel)(pid)
                                        or ()) == sorted(
                                e.t for e, el in live.items()
                                if e[:2] == pair and el == elabel)


def link(out, into, u, v, op):
    """Apply ``op`` (``dict.setdefault`` to link, ``dict.pop`` to unlink)
    to the reference entries of the pair ``(u, v)``."""
    for index, a, b in ((out, u, v), (into, v, u)):
        nbrs = index.setdefault(a, {})
        if op is dict.pop:
            nbrs.pop(b, None)
        else:
            nbrs.setdefault(b, None)
        if not nbrs:
            del index[a]
