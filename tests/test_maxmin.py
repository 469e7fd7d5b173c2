"""Tests for the max-min timestamp index against the paper's examples."""

from repro.core.maxmin import INF, MaxMinIndex
from repro.graph.temporal_graph import TemporalGraph
from tests.paper_example import (
    DATA_LABELS, EPS2, EPS5, EPS6, SIGMA, V4, V7,
    make_paper_dag, make_query,
)


def build_index(up_to=14):
    """Index built incrementally by streaming sigma_1..sigma_up_to."""
    query = make_query()
    dag = make_paper_dag(query)
    graph = TemporalGraph(labels=DATA_LABELS)
    index = MaxMinIndex(dag, graph)
    for i in range(1, up_to + 1):
        edge = SIGMA[i]
        graph.insert_edge(edge)
        index.on_graph_change(edge.u, edge.v)
    return query, dag, graph, index


class TestPaperValues:
    def test_example_iv3_t_u3_v4_eps2(self):
        """Example IV.3: T[u3, v4, eps2] = 10 on the full graph."""
        _, _, _, index = build_index(14)
        assert index.window(EPS2, V4) == (-INF, 10)

    def test_example_iv4_before_sigma14(self):
        """Example IV.4: before sigma_14 arrives, T[u3, v4, eps2] = 7."""
        _, _, _, index = build_index(13)
        assert index.window(EPS2, V4) == (-INF, 7)

    def test_example_iv4_tc_matchable_flip(self):
        """Example IV.4: after sigma_14, eps2 becomes TC-matchable of
        sigma_8 but not of sigma_12 (Lemma IV.3 test)."""
        _, _, _, before = build_index(13)
        assert not before.edge_passes(EPS2, V4, 8)
        _, _, _, after = build_index(14)
        assert after.edge_passes(EPS2, V4, 8)
        assert not after.edge_passes(EPS2, V4, 12)

    def test_intro_sigma4_filtered_at_arrival(self):
        """Section I: when sigma_4 arrives, no path from it satisfies
        eps2 < eps4 (only sigma_2/sigma_3 with smaller timestamps match
        eps4), so sigma_4 is excluded from eps2's candidates.  Once
        sigma_13 arrives the exclusion is lifted."""
        _, _, _, index = build_index(12)
        assert not index.edge_passes(EPS2, V4, 4)
        _, _, _, index = build_index(13)
        assert index.edge_passes(EPS2, V4, 4)

    def test_leaf_entries_trivial(self):
        """Both query edges into the leaf u5 are unbounded at v7."""
        _, _, _, index = build_index(14)
        assert index.window(EPS5, V7) == (-INF, INF)
        assert index.window(EPS6, V7) == (-INF, INF)

    def test_label_mismatch_absent(self):
        """u5 (label E) has no weak embedding at v4 (label C)."""
        _, _, _, index = build_index(14)
        assert index.window(EPS6, V4) is None
        assert not index.edge_passes(EPS6, V4, 14)

    def test_moved_window_reported(self):
        """Example IV.4's step: sigma_14 moves T[u3, v4, eps2] from 7 to
        10, so ``on_graph_changes`` reports the window of eps2 at v4 as
        moved, and nothing else.  It takes any iterable: a generator must refresh the
        entries exactly like a tuple, not purge and then seed nothing.
        Kills the mutant that reports a changed entry's windows only
        when its presence flipped."""
        _, _, graph, index = build_index(13)
        assert index.window(EPS2, V4) == (-INF, 7)
        edge = SIGMA[14]
        graph.insert_edge(edge)
        moved = index.on_graph_changes(
            pair for pair in [(edge.u, edge.v)])
        assert moved == {(EPS2, V4)}
        assert index.window(EPS2, V4) == (-INF, 10)

    def test_eps6_always_matchable_at_leaf(self):
        """Example IV.4: eps6 is TC-matchable of sigma_14 because
        T[u5, v7, eps6] = infinity (no temporal descendants below u5)."""
        _, _, _, index = build_index(14)
        assert index.edge_passes(EPS6, V7, 14)


class TestIncrementalConsistency:
    """The incremental index must equal a from-scratch recomputation."""

    @staticmethod
    def fresh_index(graph, dag):
        return MaxMinIndex(dag, graph)

    def assert_same(self, incremental, fresh, graph, dag):
        for e in range(dag.query.num_edges):
            for v in graph.vertices():
                assert incremental.window(e, v) == fresh.window(e, v), (e, v)

    def test_insertions_match_scratch(self):
        query = make_query()
        dag = make_paper_dag(query)
        graph = TemporalGraph(labels=DATA_LABELS)
        index = MaxMinIndex(dag, graph)
        for i in range(1, 15):
            edge = SIGMA[i]
            graph.insert_edge(edge)
            index.on_graph_change(edge.u, edge.v)
            self.assert_same(index, self.fresh_index(graph, dag), graph, dag)

    def test_deletions_match_scratch(self):
        query = make_query()
        dag = make_paper_dag(query)
        graph = TemporalGraph(labels=DATA_LABELS)
        index = MaxMinIndex(dag, graph)
        for i in range(1, 15):
            graph.insert_edge(SIGMA[i])
            index.on_graph_change(SIGMA[i].u, SIGMA[i].v)
        for i in range(1, 15):
            edge = SIGMA[i]
            graph.remove_edge(edge)
            index.on_graph_change(edge.u, edge.v)
            self.assert_same(index, self.fresh_index(graph, dag), graph, dag)

    def test_reverse_dag_index(self):
        """The reverse-DAG index must also stay consistent."""
        query = make_query()
        dag = make_paper_dag(query).reverse()
        graph = TemporalGraph(labels=DATA_LABELS)
        index = MaxMinIndex(dag, graph)
        for i in range(1, 15):
            edge = SIGMA[i]
            graph.insert_edge(edge)
            index.on_graph_change(edge.u, edge.v)
        self.assert_same(index, self.fresh_index(graph, dag), graph, dag)

    def test_size_counts_entries(self):
        _, _, _, index = build_index(14)
        assert index.size() > 0
