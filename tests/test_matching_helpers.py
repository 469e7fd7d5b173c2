"""Unit tests for the shared edge-image compatibility helpers."""

import pytest

from repro.graph.temporal_graph import Edge, TemporalGraph
from repro.query import TemporalQuery
from repro.query.matching import (
    candidate_images, candidate_timestamps, edge_orientations,
    image_compatible,
)


@pytest.fixture
def undirected():
    query = TemporalQuery(["A", "B"], [(0, 1)])
    graph = TemporalGraph(labels={1: "A", 2: "B"})
    graph.insert_edge(Edge.make(1, 2, 5))
    graph.insert_edge(Edge.make(1, 2, 7))
    return query, graph


@pytest.fixture
def directed_labeled():
    query = TemporalQuery(["A", "B"], [(0, 1)], directed=True,
                          edge_labels=["p"])
    graph = TemporalGraph(labels={1: "A", 2: "B"}, directed=True)
    graph.insert_edge(Edge.make_directed(1, 2, 5), label="p")
    graph.insert_edge(Edge.make_directed(1, 2, 6), label="q")
    graph.insert_edge(Edge.make_directed(2, 1, 7), label="p")
    return query, graph


class TestCandidateTimestamps:
    def test_unlabeled_returns_all(self, undirected):
        query, graph = undirected
        assert list(candidate_timestamps(query, graph, 0, 1, 2)) == [5, 7]

    def test_labeled_filters(self, directed_labeled):
        query, graph = directed_labeled
        assert list(candidate_timestamps(query, graph, 0, 1, 2)) == [5]

    def test_direction_respected(self, directed_labeled):
        query, graph = directed_labeled
        # qe.u -> 2, qe.v -> 1 requires a data edge 2 -> 1 with label p.
        assert list(candidate_timestamps(query, graph, 0, 2, 1)) == [7]

    def test_images_match_timestamps(self, directed_labeled):
        query, graph = directed_labeled
        images = candidate_images(query, graph, 0, 1, 2)
        assert images == [Edge.make_directed(1, 2, 5)]


class TestOrientations:
    def test_undirected_both(self, undirected):
        query, _ = undirected
        qe = query.edges[0]
        edge = Edge.make(1, 2, 5)
        assert set(edge_orientations(query, qe, edge)) == {(1, 2), (2, 1)}

    def test_directed_single(self, directed_labeled):
        query, _ = directed_labeled
        qe = query.edges[0]
        edge = Edge.make_directed(2, 1, 7)
        assert list(edge_orientations(query, qe, edge)) == [(2, 1)]


class TestImageCompatible:
    def test_full_check(self, directed_labeled):
        query, graph = directed_labeled
        qe = query.edges[0]
        good = Edge.make_directed(1, 2, 5)
        assert image_compatible(query, graph, qe, good, 1, 2)
        # Wrong direction for that assignment.
        assert not image_compatible(query, graph, qe, good, 2, 1)
        # Wrong edge label.
        bad_label = Edge.make_directed(1, 2, 6)
        assert not image_compatible(query, graph, qe, bad_label, 1, 2)

    def test_vertex_labels_checked(self, undirected):
        query, graph = undirected
        qe = query.edges[0]
        edge = Edge.make(1, 2, 5)
        assert image_compatible(query, graph, qe, edge, 1, 2)
        # Swapped assignment puts label B on qe.u (wants A).
        assert not image_compatible(query, graph, qe, edge, 2, 1)

    def test_wrong_endpoints_rejected(self, undirected):
        query, graph = undirected
        qe = query.edges[0]
        edge = Edge.make(1, 2, 5)
        assert not image_compatible(query, graph, qe, edge, 1, 9)
