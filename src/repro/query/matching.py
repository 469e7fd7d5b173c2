"""Edge-image compatibility helpers shared by every engine.

The paper's core presentation is for undirected, vertex-labeled graphs;
Section II notes the techniques "can be easily extended to directed
graphs with multiple labels on vertices or edges".  This module is where
that extension lives: one set of helpers answering, for a query edge
``qe`` whose endpoints map to data vertices ``a``/``b``, which data
edges can be its image — respecting

* vertex labels (always),
* the data/query edge *direction* when the query is directed
  (``qe.u -> qe.v`` must map onto a data edge ``a -> b``), and
* the query edge's *label*, when it has one.

Engines route every candidate-generation step through these helpers, so
directed and edge-labeled matching is uniform across TCM, the baselines
and the oracle.
"""

from __future__ import annotations

from typing import List

from repro.graph.temporal_graph import Edge, TemporalGraph
from repro.query.temporal_query import QueryEdge, TemporalQuery


def candidate_timestamps(query: TemporalQuery, graph: TemporalGraph,
                         e: int, a: int, b: int) -> List[int]:
    """Sorted timestamps of data edges query edge ``e`` can match with
    endpoint images ``qe.u -> a``, ``qe.v -> b``.

    Vertex labels are *not* checked here (callers check them once per
    vertex pair, not per parallel edge); direction and edge labels are.
    """
    label = query.edge_label(e)
    if label is None:
        return graph.timestamps_between(a, b)
    return graph.timestamps_with_label(a, b, label)


def candidate_images(query: TemporalQuery, graph: TemporalGraph,
                     e: int, a: int, b: int) -> List[Edge]:
    """Like :func:`candidate_timestamps` but returning Edge objects."""
    ts = candidate_timestamps(query, graph, e, a, b)
    if not ts:
        return []
    if not query.directed and a > b:
        a, b = b, a
    return [Edge(a, b, t) for t in ts]


def orientations_of(query: TemporalQuery, edge: Edge):
    """The ``(a, b)`` endpoint assignments under which ``edge`` could be
    the image of *any* query edge (``qe.u -> a``, ``qe.v -> b``).

    Undirected: both endpoint orders.  Directed: only the source->source
    alignment.  Vertex/edge labels are not checked here.  The result
    does not depend on which query edge is considered, so engines
    compute it once per stream event and reuse it across the whole
    query-edge loop.
    """
    if query.directed or edge.u == edge.v:
        return ((edge.u, edge.v),)
    return ((edge.u, edge.v), (edge.v, edge.u))


def edge_orientations(query: TemporalQuery, qe: QueryEdge, edge: Edge):
    """Per-query-edge spelling of :func:`orientations_of` (the
    orientation set is the same for every query edge; this wrapper keeps
    the historical signature for callers holding a specific ``qe``)."""
    return orientations_of(query, edge)


def image_compatible(query: TemporalQuery, graph: TemporalGraph,
                     qe: QueryEdge, edge: Edge, a: int, b: int) -> bool:
    """Full compatibility test: can ``edge`` be the image of ``qe`` with
    ``qe.u -> a``, ``qe.v -> b``?  Checks vertex labels, direction, and
    the edge label."""
    if {edge.u, edge.v} != {a, b}:
        return False
    if query.directed and (edge.u, edge.v) != (a, b):
        return False
    if (query.label(qe.u) != graph.label(a)
            or query.label(qe.v) != graph.label(b)):
        return False
    label = query.edge_label(qe.index)
    if label is not None and graph.edge_label(edge) != label:
        return False
    return True
