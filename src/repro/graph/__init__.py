"""Temporal multigraph substrate.

This package implements the data-graph side of the paper: an undirected,
vertex-labeled multigraph whose edges carry integer timestamps.  The
sliding window over it is an event list
(:func:`repro.streaming.build_event_list`) or a service's live deque.
"""

from repro.graph.temporal_graph import Edge, TemporalGraph

__all__ = ["Edge", "TemporalGraph"]
