"""JSON checkpointing for both services.

A checkpoint is cursor + window + query records: the window size, the
stream high-water mark and arrival sequence counter, the live
``(edge, seq)`` window, the service counters and one record per
registered query (structure, temporal order, engine kind, status,
counters, join cursor), each distinct label map written once.  It is
written from the front (:class:`~repro.service.service.ServiceFront`),
so an in-process and a sharded service write the same document; the
sharded one wraps it in the cluster envelope of
:mod:`repro.cluster.checkpoint` (worker count, placement).

Engine state is derived data and is not persisted: :func:`rebuild`
puts the window and the cursor back and hosts every record through the
front's one host path, which replays the query's cut of the window
silently, so ``restore(snapshot(s))`` fed the rest of the stream
(:func:`resume_edges` filters a replayed one) reports exactly what
``s`` would have — on either back-end, at a restore cost of queries x
window.

Labels must be JSON-serializable (strings/numbers, as every workload in
this repo uses).  Callables cannot be serialized: restoring a query
that had an ``edge_label_fn`` requires passing a replacement via
``edge_label_fns`` (it affects matching correctness, so its absence is
an error), and subscriber callbacks must be re-attached after restore
via ``service.subscribe`` (the snapshot records ``has_subscribers`` per
query so operators can tell which feeds need re-wiring).  Collected
:class:`~repro.streaming.driver.StreamResult`\\ s are not persisted.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.graph.temporal_graph import Edge
from repro.query.temporal_query import TemporalQuery
from repro.service.registry import EngineFactory, QueryStatus, RegisteredQuery
from repro.service.service import MatchService
from repro.service.stats import QueryStats, ServiceStats
from repro.streaming.driver import StreamResult

#: Format tag written into every checkpoint (bump on layout changes).
#: ``/1`` had no window and is refused: nothing hosts a query without.
FORMAT = "repro.service.checkpoint/2"


def snapshot(service) -> Dict[str, object]:
    """The checkpoint document of ``service``, either kind — the one
    writer of a query record.  Every record's counters are fetched
    from its host (:meth:`~repro.service.service.ServiceFront.
    all_query_stats`); the window is the front's live one.  A sharded service wraps the
    document in the cluster envelope (:mod:`repro.cluster.checkpoint`).
    Raises ``ValueError`` for a custom-factory query."""
    entries = service.registry.list()
    label_maps: List[Dict[int, object]] = []
    queries: List[Dict[str, object]] = []
    for entry, stats in zip(entries, service.all_query_stats()):
        if entry.custom_factory:
            raise ValueError(
                f"cannot checkpoint query {entry.query_id!r}: its engine "
                f"was built by a custom factory ({entry.engine_kind!r}), "
                f"which JSON cannot persist")
        query, labels = entry.query, entry.labels
        # Each distinct label map is written once: identity first,
        # equality second, as the interest index groups its domains.
        for index, known in enumerate(label_maps):
            if known is labels or known == labels:
                break
        else:
            index = len(label_maps)
            label_maps.append(labels)
        queries.append({
            "query_id": entry.query_id,
            "engine": entry.engine_kind,
            "status": entry.status.value,
            "error": entry.error,
            "joined_seq": entry.joined_seq,
            "has_edge_label_fn": entry.edge_label_fn is not None,
            "has_subscribers": bool(entry.subscribers),
            "collect_results": entry.result is not None,
            "labels": list(query.labels),
            "edges": [[e.u, e.v] for e in query.edges],
            "order_pairs": [list(p) for p in query.order.pairs()],
            "directed": query.directed,
            "edge_labels": (list(query.edge_labels)
                            if any(lab is not None
                                   for lab in query.edge_labels)
                            else None),
            "label_map": index,
            "stats": stats.to_dict(),
        })
    return service._backend.envelope({
        "format": FORMAT,
        "delta": service.delta,
        "now": service.now,
        "seq": service.seq,
        "stats": service.stats.to_dict(),
        "window": [[edge.u, edge.v, edge.t, seq]
                   for edge, seq in service.window()],
        "label_maps": [{str(v): lab for v, lab in labels.items()}
                       for labels in label_maps],
        "queries": queries,
    })


def rebuild(data: Dict[str, object], build: Callable[[int], object],
            edge_label_fns: Optional[Dict[str, Callable]] = None):
    """The one restore: ``build(delta)`` a fresh service of either kind,
    put a :func:`snapshot` document's cursor and window back on its
    front and host every record through the front's one host path,
    which replays the record's cut of the window silently.  Refuses
    another format, and a record that had an ``edge_label_fn`` without
    a replacement in ``edge_label_fns`` (functions are not
    serializable); a refused restore closes what it built."""
    if data.get("format") != FORMAT:
        raise ValueError(f"not a service checkpoint: format "
                         f"{data.get('format')!r} (expected {FORMAT!r})")
    service = build(int(data["delta"]))
    try:
        label_maps = [{int(v): lab for v, lab in labels.items()}
                      for labels in data["label_maps"]]
        service.load([(Edge(u, v, t), seq)
                      for u, v, t, seq in data["window"]],
                     data["now"], int(data["seq"]))
        for spec in data["queries"]:
            service.host(_record(spec, label_maps, edge_label_fns))
        service.stats = ServiceStats(**data["stats"])
    except Exception:
        service.close()
        raise
    return service


def _record(spec: Dict[str, object], label_maps: List[Dict[int, object]],
            edge_label_fns: Optional[Dict[str, Callable]]
            ) -> RegisteredQuery:
    """The record a checkpoint's ``spec`` was written from; records of
    one label map share the one dict."""
    query_id = spec["query_id"]
    edge_label_fn = (edge_label_fns or {}).get(query_id)
    if spec["has_edge_label_fn"] and edge_label_fn is None:
        raise ValueError(
            f"query {query_id!r} was registered with an edge_label_fn; "
            f"pass a replacement via edge_label_fns={{{query_id!r}: fn}}")
    return RegisteredQuery(
        query_id=query_id,
        query=TemporalQuery(
            labels=spec["labels"],
            edges=[tuple(e) for e in spec["edges"]],
            order_pairs=[tuple(p) for p in spec["order_pairs"]],
            directed=spec["directed"],
            edge_labels=spec["edge_labels"]),
        labels=label_maps[spec["label_map"]],
        engine_kind=spec["engine"], joined_seq=int(spec["joined_seq"]),
        factory=None, edge_label_fn=edge_label_fn,
        status=QueryStatus(spec["status"]), error=spec["error"],
        stats=QueryStats(**spec["stats"]),
        result=StreamResult() if spec["collect_results"] else None)


def restore(data: Dict[str, object], *,
            engine_factories: Optional[Dict[str, EngineFactory]] = None,
            edge_label_fns: Optional[Dict[str, Callable]] = None
            ) -> MatchService:
    """Rebuild an in-process service from a :func:`snapshot` document."""
    return rebuild(data, lambda delta: MatchService(
        delta, engine_factories=engine_factories), edge_label_fns)


def save_checkpoint(service, path: str) -> None:
    """Write the :func:`snapshot` of ``service`` (either kind) to
    ``path`` as JSON.

    The snapshot is fully serialized before the file is opened, so a
    snapshot failure (custom factory, unserializable label) cannot
    truncate an existing good checkpoint at ``path``.
    """
    text = json.dumps(snapshot(service), indent=1, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_checkpoint(path: str) -> Dict[str, object]:
    """The document a :func:`save_checkpoint` wrote to ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_checkpoint(path: str, *,
                    engine_factories: Optional[Dict[str,
                                                    EngineFactory]] = None,
                    edge_label_fns: Optional[Dict[str, Callable]] = None
                    ) -> MatchService:
    """Read a checkpoint from ``path`` and rebuild the service."""
    return restore(read_checkpoint(path), engine_factories=engine_factories,
                   edge_label_fns=edge_label_fns)


def resume_edges(service: MatchService,
                 edges: Iterable[Edge]) -> Iterator[Edge]:
    """Filter a replayed stream down to the not-yet-ingested suffix.

    After a restore, re-feeding the original stream through this filter
    skips every edge before the high-water mark and, of those *at* it,
    as many as the service's window holds — so a checkpoint cut between
    two edges of one timestamp resumes with the second.  When the
    window holds none at the mark (after a ``drain()``, or an
    ``advance_to`` that set it) every edge at the mark counts as seen.
    Works on either service.
    """
    now = service.now
    seen = (sum(1 for edge, _ in service.window() if edge.t == now)
            or float("inf"))
    for edge in edges:
        if now is None or edge.t > now:
            yield edge
        elif edge.t == now:
            if seen:
                seen -= 1
            else:
                yield edge
