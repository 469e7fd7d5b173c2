"""Query DAGs and the greedy DAG builder (Section IV-B, Algorithm 2).

A query DAG assigns a direction to every edge of the query graph such that
the result is acyclic (here: rooted at a chosen vertex, with every edge
directed from the earlier-selected endpoint to the later-selected one).
The *shape* of the DAG determines which ordered pairs of query edges are in
the temporal ancestor-descendant relationship (Definition II.4) and hence
how much filtering the TC-matchable-edge technique can do, so the builder
greedily maximizes the number of such pairs.

The paper's Example IV.2 leaves some tie-break minutiae ambiguous; we
follow the algorithm text: vertices enter the candidate set when first
reached, ``Score`` is (re)computed when an edge into a candidate is
visited, the maximum-score candidate is selected with FIFO insertion order
as the tie-break, and the final score ``S_r`` of a DAG is the exact number
of ordered temporal ancestor-descendant pairs in the finished DAG
(Section III), which is what root selection compares.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.query.temporal_query import TemporalQuery


class QueryDag:
    """A direction assignment for the edges of a temporal query graph.

    Parameters
    ----------
    query:
        The underlying temporal query graph.
    edge_parent:
        For every query-edge index, which endpoint acts as the parent
        (source) in the DAG.  The induced directed graph must be acyclic.
    root:
        Optional root vertex (informational; the reverse of a rooted DAG
        generally has several roots and that is fine).
    """

    def __init__(self, query: TemporalQuery, edge_parent: Sequence[int],
                 root: Optional[int] = None):
        self.query = query
        self.root = root
        n, m = query.num_vertices, query.num_edges
        if len(edge_parent) != m:
            raise ValueError("edge_parent must give a parent for every edge")
        self.edge_parent: Tuple[int, ...] = tuple(edge_parent)
        self.edge_child: Tuple[int, ...] = tuple(
            query.edges[e].other(self.edge_parent[e]) for e in range(m))

        self.children_of: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        self.parents_of: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for e in range(m):
            p, c = self.edge_parent[e], self.edge_child[e]
            self.children_of[p].append((c, e))
            self.parents_of[c].append((p, e))

        self.topo_order: Tuple[int, ...] = self._topological_order()
        self._topo_index = {u: i for i, u in enumerate(self.topo_order)}

        self.vertex_ancestors: Tuple[FrozenSet[int], ...] = (
            self._vertex_ancestors())
        self.subdag_edges: Tuple[FrozenSet[int], ...] = self._subdag_edges()

        # tdesc_gt[e] = temporal descendants e' of e with e < e' in the
        # temporal order; tdesc_lt[e] = those with e' < e (Definition II.4).
        self.tdesc_gt: Tuple[FrozenSet[int], ...]
        self.tdesc_lt: Tuple[FrozenSet[int], ...]
        self.tdesc_gt, self.tdesc_lt = self._temporal_descendants()

        self.rel_gt, self.rel_lt = self._relevance_sets()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _topological_order(self) -> Tuple[int, ...]:
        n = self.query.num_vertices
        indeg = [len(self.parents_of[u]) for u in range(n)]
        stack = [u for u in range(n) if indeg[u] == 0]
        order: List[int] = []
        while stack:
            u = stack.pop()
            order.append(u)
            for c, _ in self.children_of[u]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    stack.append(c)
        if len(order) != n:
            raise ValueError("edge directions contain a cycle")
        return tuple(order)

    def _vertex_ancestors(self) -> Tuple[FrozenSet[int], ...]:
        anc: List[Set[int]] = [set() for _ in range(self.query.num_vertices)]
        for u in self.topo_order:
            for c, _ in self.children_of[u]:
                anc[c].add(u)
                anc[c] |= anc[u]
        return tuple(frozenset(a) for a in anc)

    def _subdag_edges(self) -> Tuple[FrozenSet[int], ...]:
        """Edge set of the sub-DAG starting at each vertex (Def. II.5)."""
        reach: List[Set[int]] = [set() for _ in range(self.query.num_vertices)]
        for u in reversed(self.topo_order):
            for c, e in self.children_of[u]:
                reach[u].add(e)
                reach[u] |= reach[c]
        return tuple(frozenset(r) for r in reach)

    def _temporal_descendants(self):
        q = self.query
        gt: List[Set[int]] = [set() for _ in range(q.num_edges)]
        lt: List[Set[int]] = [set() for _ in range(q.num_edges)]
        for e in range(q.num_edges):
            below = self.subdag_edges[self.edge_child[e]]
            for f in below:
                if q.precedes(e, f):
                    gt[e].add(f)
                elif q.precedes(f, e):
                    lt[e].add(f)
        return (tuple(frozenset(s) for s in gt),
                tuple(frozenset(s) for s in lt))

    def _relevance_sets(self):
        """For each vertex u, the edges e whose max-min entry T[u, ., e]
        must actually be stored (Section IV-C).

        ``T[u, v, e]`` is needed when e's child endpoint is ``u`` or an
        ancestor of ``u`` (the recurrence pulls the value upward), and it
        is non-trivial only when e has at least one temporal descendant
        inside the sub-DAG rooted at ``u``.
        """
        n = self.query.num_vertices
        rel_gt: List[Set[int]] = [set() for _ in range(n)]
        rel_lt: List[Set[int]] = [set() for _ in range(n)]
        for u in range(n):
            scope = self.vertex_ancestors[u] | {u}
            below = self.subdag_edges[u]
            for e in range(self.query.num_edges):
                if self.edge_child[e] in scope:
                    if self.tdesc_gt[e] & below:
                        rel_gt[u].add(e)
                    if self.tdesc_lt[e] & below:
                        rel_lt[u].add(e)
        return (tuple(frozenset(s) for s in rel_gt),
                tuple(frozenset(s) for s in rel_lt))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_edge_ancestor(self, e1: int, e2: int) -> bool:
        """True iff edge ``e1`` is an ancestor of edge ``e2`` (Section II)."""
        c1 = self.edge_child[e1]
        p2 = self.edge_parent[e2]
        return c1 == p2 or c1 in self.vertex_ancestors[p2]

    def score(self) -> int:
        """Number of ordered temporal ancestor-descendant pairs (S_r)."""
        return sum(len(self.tdesc_gt[e]) + len(self.tdesc_lt[e])
                   for e in range(self.query.num_edges))

    def reverse(self) -> "QueryDag":
        """The reverse DAG (all edges flipped, Figure 3b)."""
        return QueryDag(self.query, self.edge_child, root=None)

    def roots(self) -> List[int]:
        """Vertices with no incoming DAG edges."""
        return [u for u in range(self.query.num_vertices)
                if not self.parents_of[u]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        arrows = ", ".join(
            f"{self.edge_parent[e]}->{self.edge_child[e]}"
            for e in range(self.query.num_edges))
        return f"QueryDag(root={self.root}, edges=[{arrows}])"


def build_dag(query: TemporalQuery, root: int,
              scoring: str = "full") -> QueryDag:
    """Greedy construction of a query DAG rooted at ``root`` (Algorithm 2).

    The candidate set holds the frontier; each selection adds the vertex
    with the highest ``Score`` (FIFO order breaking ties), directing every
    edge from an already-selected endpoint to the new vertex.  ``Score[u]``
    estimates how many ordered temporal ancestor-descendant pairs selecting
    ``u`` next would create.

    The paper's worked example (Example IV.2) does not pin the estimate
    down uniquely, so two scoring variants are provided and
    :func:`build_best_dag` simply keeps whichever finished DAG has the
    higher true score:

    * ``"full"`` — count pairs created by the edges that enter the DAG
      with ``u`` *and* by the frontier edges that will later leave ``u``;
    * ``"future_only"`` — count only the frontier-edge pairs, measured
      against the DAG before ``u`` is added (with FIFO tie-breaks this
      reproduces the paper's selection sequence on the running example).
    """
    q = query
    in_dag: Set[int] = set()
    edge_parent: Dict[int, int] = {}
    insertion_seq = 0
    cand: Dict[int, Tuple[int, int]] = {root: (0, insertion_seq)}

    def current_edge_ancestors(vertex: int) -> List[int]:
        """Edges of the partial DAG whose child endpoint is ``vertex`` or
        an ancestor of it (walking parent links in the partial DAG)."""
        result: List[int] = []
        seen: Set[int] = set()
        stack = [vertex]
        while stack:
            w = stack.pop()
            if w in seen:
                continue
            seen.add(w)
            for qe in q.incident_edges(w):
                other = qe.other(w)
                if edge_parent.get(qe.index) == other:
                    result.append(qe.index)
                    stack.append(other)
        return result

    def score_of(u: int) -> int:
        """Score of selecting candidate ``u`` next (see docstring)."""
        new_edges = [qe for qe in q.incident_edges(u)
                     if qe.other(u) in in_dag]
        if scoring == "future_only":
            # Ancestors measured on the current DAG, before u's edges
            # are added.
            anc_pool: Set[int] = set()
            for qe in new_edges:
                anc_pool.update(current_edge_ancestors(qe.other(u)))
            score = 0
            for qe in q.incident_edges(u):
                if qe.other(u) not in in_dag and qe.index not in edge_parent:
                    score += sum(1 for a in anc_pool
                                 if q.related(a, qe.index))
            return score
        anc_of_u: List[int] = []
        for qe in new_edges:
            anc_of_u.extend(current_edge_ancestors(qe.other(u)))
        anc_pool = set(anc_of_u) | {qe.index for qe in new_edges}
        score = 0
        for qe in new_edges:
            upstream = current_edge_ancestors(qe.other(u))
            score += sum(1 for a in upstream if q.related(a, qe.index))
        for qe in q.incident_edges(u):
            if qe.other(u) not in in_dag and qe.index not in edge_parent:
                score += sum(1 for a in anc_pool
                             if a != qe.index and q.related(a, qe.index))
        return score

    while cand:
        best = max(cand, key=lambda u: (cand[u][0], -cand[u][1]))
        del cand[best]
        for qe in q.incident_edges(best):
            other = qe.other(best)
            if other in in_dag:
                edge_parent[qe.index] = other
        in_dag.add(best)
        for qe in q.incident_edges(best):
            other = qe.other(best)
            if other not in in_dag:
                if other not in cand:
                    insertion_seq += 1
                    cand[other] = (0, insertion_seq)
                cand[other] = (score_of(other), cand[other][1])
    parents = [edge_parent[e] for e in range(q.num_edges)]
    return QueryDag(q, parents, root=root)


def build_best_dag(query: TemporalQuery) -> QueryDag:
    """Try every vertex as root (and both greedy scoring variants) and
    keep the highest-score DAG (Algorithm 1, lines 1-6)."""
    best: Optional[QueryDag] = None
    best_score = -1
    for r in range(query.num_vertices):
        for scoring in ("full", "future_only"):
            dag = build_dag(query, r, scoring=scoring)
            s = dag.score()
            if s > best_score:
                best, best_score = dag, s
    assert best is not None
    return best
