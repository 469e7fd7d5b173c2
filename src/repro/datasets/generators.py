"""Parameterized temporal-stream generators for the six datasets.

The paper evaluates on Netflow (CAIDA traces), Wiki-talk, Superuser,
StackOverflow (SNAP), Yahoo Messenger and LSBench — none of which can be
shipped offline.  Each generator here reproduces the *summary statistics*
the paper reports in Table III (vertex/edge ratio via the average degree,
label alphabet size, average parallel-edge multiplicity ``mavg``) plus a
qualitative degree profile (hub-heavy traffic graphs vs. near-uniform
social streams), at a configurable scale.  The matching algorithms are
sensitive exactly to label selectivity, degree skew, multiplicity and
temporal density, so preserving these statistics preserves the relative
behaviour of the algorithms (see README.md, "Synthetic datasets").

Timestamps are consecutive integers ``1..m`` — one edge per tick — which
matches the paper's convention of measuring the window size in units of
the average inter-arrival gap (a window of ``10k`` covers 10,000 edges).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.graph.temporal_graph import Edge


@dataclass(frozen=True)
class DatasetSpec:
    """Generator parameters mirroring one row of Table III.

    ``avg_degree`` controls the vertex-pool size (``n = 2 m / davg``),
    ``avg_multiplicity`` the expected number of parallel edges per
    adjacent vertex pair, ``hub_bias`` the probability that an endpoint
    is drawn preferentially by current degree (degree skew), and
    ``num_labels`` the vertex-label alphabet size.
    """

    name: str
    num_labels: int
    avg_degree: float
    avg_multiplicity: float
    hub_bias: float
    description: str = ""
    directed: bool = False
    num_edge_labels: int = 0

    def vertex_count(self, num_edges: int) -> int:
        return max(4, int(round(2 * num_edges / self.avg_degree)))


#: Scaled-down spec per paper dataset (Table III shapes).
DATASET_SPECS: Dict[str, DatasetSpec] = {
    "netflow": DatasetSpec(
        name="netflow", num_labels=1, avg_degree=85.4,
        avg_multiplicity=27.6, hub_bias=0.7,
        directed=True, num_edge_labels=64,
        description="CAIDA passive traces: unlabeled vertices, extreme "
                    "parallel-edge multiplicity, heavy hubs.  The real "
                    "dataset is directed with 346k edge labels (source "
                    "port, protocol, destination port); we keep the "
                    "direction and a scaled-down edge-label alphabet, "
                    "which is what makes single-vertex-label matching "
                    "tractable."),
    "wikitalk": DatasetSpec(
        name="wikitalk", num_labels=365, avg_degree=13.7,
        avg_multiplicity=2.37, hub_bias=0.6,
        description="Wikipedia talk pages: many labels (first character "
                    "of user name), moderate multiplicity."),
    "superuser": DatasetSpec(
        name="superuser", num_labels=5, avg_degree=14.9,
        avg_multiplicity=1.56, hub_bias=0.5,
        description="Stack-exchange interactions, 5 random labels."),
    "stackoverflow": DatasetSpec(
        name="stackoverflow", num_labels=5, avg_degree=48.8,
        avg_multiplicity=1.75, hub_bias=0.6,
        description="Larger stack-exchange network, 5 random labels."),
    "yahoo": DatasetSpec(
        name="yahoo", num_labels=5, avg_degree=63.6,
        avg_multiplicity=3.51, hub_bias=0.7,
        description="Yahoo Messenger communication, dense with hubs."),
    "lsbench": DatasetSpec(
        name="lsbench", num_labels=11, avg_degree=3.21,
        avg_multiplicity=1.0, hub_bias=0.2,
        description="Linked Stream Benchmark: sparse, near-uniform, "
                    "no parallel edges."),
}


def dataset_names() -> List[str]:
    """The six dataset names in the paper's presentation order."""
    return ["netflow", "wikitalk", "superuser", "stackoverflow",
            "yahoo", "lsbench"]


@dataclass
class GeneratedStream:
    """A generated workload: vertex labels, the chronological edge
    stream, optional per-edge labels, and the directedness flag."""

    labels: Dict[int, int]
    edges: List[Edge]
    edge_labels: Optional[Dict[Edge, int]] = None
    directed: bool = False

    def edge_label_fn(self):
        """The ``edge_label_fn`` engines expect (None when unlabeled)."""
        if self.edge_labels is None:
            return None
        return self.edge_labels.get

    def __iter__(self):
        # Backward-compatible unpacking: labels, edges = generate_stream(..)
        yield self.labels
        yield self.edges


def generate_stream(spec: DatasetSpec, num_edges: int,
                    seed: int = 0) -> GeneratedStream:
    """Generate a :class:`GeneratedStream` for ``spec``.

    The stream has ``num_edges`` edges with timestamps ``1..num_edges``.
    Multiplicity is realized by revisiting an existing adjacent pair with
    probability ``1 - 1/avg_multiplicity`` (recency-biased, as repeated
    interactions cluster in time in the real datasets); degree skew by
    preferential endpoint selection with probability ``hub_bias``.
    Directed specs emit directed edges; specs with ``num_edge_labels``
    attach a sticky per-pair edge label (repeated interactions between
    the same hosts tend to reuse ports/protocols).
    """
    if num_edges <= 0:
        raise ValueError("num_edges must be positive")
    rng = random.Random(seed)
    n = spec.vertex_count(num_edges)
    labels = {v: rng.randrange(spec.num_labels) for v in range(n)}
    p_repeat = 0.0
    if spec.avg_multiplicity > 1.0:
        p_repeat = 1.0 - 1.0 / spec.avg_multiplicity

    endpoint_history: List[int] = []   # endpoints weighted by degree
    recent_pairs: List[Tuple[int, int]] = []
    seen_ts: Dict[Tuple[int, int], int] = {}
    edges: List[Edge] = []
    edge_labels: Optional[Dict[Edge, int]] = (
        {} if spec.num_edge_labels else None)
    pair_elabel: Dict[Tuple[int, int], int] = {}

    def pick_vertex() -> int:
        if endpoint_history and rng.random() < spec.hub_bias:
            return rng.choice(endpoint_history)
        return rng.randrange(n)

    for t in range(1, num_edges + 1):
        pair: Tuple[int, int] | None = None
        if recent_pairs and rng.random() < p_repeat:
            # Revisit a recent pair (recency bias: sample from the tail).
            window = recent_pairs[-200:]
            pair = rng.choice(window)
        if pair is None:
            u = pick_vertex()
            v = pick_vertex()
            while v == u:
                v = rng.randrange(n)
            pair = (min(u, v), max(u, v))
        if seen_ts.get(pair) == t:
            # Same pair twice at one tick cannot happen (one edge per
            # tick) but keep the invariant explicit.
            continue
        seen_ts[pair] = t
        recent_pairs.append(pair)
        endpoint_history.extend(pair)
        if len(endpoint_history) > 4 * num_edges:
            del endpoint_history[:num_edges]
        if spec.directed:
            src, dst = pair if rng.random() < 0.5 else (pair[1], pair[0])
            edge = Edge.make_directed(src, dst, t)
        else:
            edge = Edge.make(pair[0], pair[1], t)
        edges.append(edge)
        if edge_labels is not None:
            if pair not in pair_elabel or rng.random() < 0.2:
                pair_elabel[pair] = rng.randrange(spec.num_edge_labels)
            edge_labels[edge] = pair_elabel[pair]
    return GeneratedStream(labels=labels, edges=edges,
                           edge_labels=edge_labels,
                           directed=spec.directed)
