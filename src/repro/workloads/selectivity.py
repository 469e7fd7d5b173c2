"""Label-selectivity workloads for the multi-query routing benchmarks.

The interest-routing layers (service index, cluster shard routing) pay
off exactly when registered queries care about *different* parts of the
label space — the regime a production multi-tenant matching service
lives in, where hundreds of standing detection queries each watch a
narrow slice of one shared stream.  The random-walk workloads cannot
hold that overlap constant, so this module builds one that can:

* the label universe is partitioned into 3-label *groups*;
* a configurable fraction of the queries (``overlap``) all watch group
  0 — the "hot" labels every tenant shares — while every remaining
  query gets a private group of its own;
* the stream spreads its edges uniformly over the groups, with both
  endpoints drawn from the group's dedicated vertex pool and labeled so
  that each edge matches exactly one query-edge label pair.

An event therefore interests either the shared-group queries or exactly
one private query, making the expected fan-out per event
``(k^2 + (n - k)) / (1 + n - k)`` for ``n`` queries of which ``k``
share — e.g. ~1.2 of 16 queries at 25% overlap — where dispatching
without the interest index would cost all ``n`` engines per event.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.graph.temporal_graph import Edge
from repro.query.temporal_query import TemporalQuery


@dataclass(frozen=True)
class SelectivityWorkload:
    """A generated low-overlap workload: queries, labels, stream."""

    queries: Tuple[TemporalQuery, ...]
    labels: Dict[int, int]
    edges: List[Edge]
    num_queries: int
    overlap: float
    shared_queries: int
    num_groups: int


def make_selectivity_workload(num_queries: int = 16,
                              overlap: float = 0.25,
                              stream_edges: int = 1000,
                              seed: int = 0,
                              group_vertices: int = 12
                              ) -> SelectivityWorkload:
    """Build ``num_queries`` 2-edge path queries with a controlled
    label-overlap fraction plus a matching edge stream.

    ``overlap`` is the fraction of queries watching the shared label
    group (rounded to at least one); ``group_vertices`` sizes each
    group's vertex pool (a multiple of 3 keeps the three labels evenly
    represented).
    """
    if num_queries < 1:
        raise ValueError("need at least one query")
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must be a fraction in [0, 1]")
    group_vertices -= group_vertices % 3
    if group_vertices < 6:
        raise ValueError("group_vertices must be at least 6")
    shared = max(1, int(round(num_queries * overlap)))
    num_groups = 1 + (num_queries - shared)
    labels: Dict[int, int] = {}
    for group in range(num_groups):
        base = group * group_vertices
        for i in range(group_vertices):
            labels[base + i] = 3 * group + (i % 3)
    queries: List[TemporalQuery] = []
    for slot in range(num_queries):
        group = 0 if slot < shared else slot - shared + 1
        base = 3 * group
        queries.append(TemporalQuery(
            labels=[base, base + 1, base + 2],
            edges=[(0, 1), (1, 2)],
            order_pairs=[(0, 1)]))
    rng = random.Random(seed)
    per_label = group_vertices // 3
    edges: List[Edge] = []
    for t in range(1, stream_edges + 1):
        group = rng.randrange(num_groups)
        base = group * group_vertices
        # Each edge realizes one of the group's two query-edge label
        # pairs: (l, l+1) or (l+1, l+2).
        low = rng.randrange(2)
        u = base + 3 * rng.randrange(per_label) + low
        v = base + 3 * rng.randrange(per_label) + low + 1
        edges.append(Edge.make(u, v, t))
    return SelectivityWorkload(
        queries=tuple(queries), labels=labels, edges=edges,
        num_queries=num_queries, overlap=overlap,
        shared_queries=shared, num_groups=num_groups)
