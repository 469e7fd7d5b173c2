"""JSON checkpointing for :class:`~repro.service.service.MatchService`.

A checkpoint is cursor + window + query records: the window size, the
stream high-water mark and arrival sequence counter, the live
``(edge, seq)`` deque, the service counters and one record per
registered query (structure, temporal order, engine kind, status,
counters, join cursor), each distinct label map written once.

Engine state is derived data and is not persisted: :func:`restore`
puts the window back and hosts every record the way a migration target
hosts a ticket (:meth:`~repro.service.service.MatchService.host_query`:
the query's cut of the window is replayed silently), so
``restore(snapshot(s))`` fed the rest of the stream (:func:`resume_edges`
filters a replayed one) reports exactly what ``s`` would have — at a
restore cost of queries x window.  The cluster checkpoint writes and
reads the same document (:func:`encode_snapshot` /
:func:`decode_snapshot`) from the coordinator's mirror.

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
from repro.service.registry import EngineFactory
from repro.service.service import MatchService
from repro.service.stats import QueryStats, ServiceStats

#: Format tag written into every checkpoint (bump on layout changes).
#: ``/1`` had no window and is refused: nothing hosts a query without.
FORMAT = "repro.service.checkpoint/2"


def encode_snapshot(service, hosted: Iterable) -> Dict[str, object]:
    """The checkpoint document of either service kind — the one writer
    of a query record.  ``service`` is read for what both kinds hold
    under one name (``delta``, ``now``, ``seq``, ``stats``, the live
    deque — filtered to the clock, since the coordinator trims its one
    late); ``hosted`` yields ``(entry, stats, collect_results)`` in
    registration order, ``entry`` a registry entry or the coordinator's
    mirror of one (they share the fields read here)."""
    label_maps: List[Dict[int, object]] = []
    queries: List[Dict[str, object]] = []
    for entry, stats, collect_results in hosted:
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
            "collect_results": collect_results,
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
    now, delta = service.now, service.delta
    return {
        "format": FORMAT,
        "delta": delta,
        "now": now,
        "seq": service.seq,
        "stats": service.stats.to_dict(),
        "window": [[edge.u, edge.v, edge.t, seq]
                   for edge, seq in service._live if edge.t + delta > now],
        "label_maps": [{str(v): lab for v, lab in labels.items()}
                       for labels in label_maps],
        "queries": queries,
    }


def decode_snapshot(data: Dict[str, object],
                    edge_label_fns: Optional[Dict[str, Callable]]):
    """What either restore hosts: the document's window as ``(edge,
    seq)`` pairs and, per record, ``(record, query, data labels,
    edge_label_fn)`` — records of one label map share the one dict.
    Refuses another format, and a record that had an ``edge_label_fn``
    without a replacement in ``edge_label_fns``."""
    if data.get("format") != FORMAT:
        raise ValueError(f"not a service checkpoint: format "
                         f"{data.get('format')!r} (expected {FORMAT!r})")
    label_maps = [{int(v): lab for v, lab in labels.items()}
                  for labels in data["label_maps"]]
    hosted = []
    for spec in data["queries"]:
        query_id = spec["query_id"]
        edge_label_fn = (edge_label_fns or {}).get(query_id)
        if spec["has_edge_label_fn"] and edge_label_fn is None:
            raise ValueError(
                f"query {query_id!r} was registered with an edge_label_fn; "
                f"pass a replacement via edge_label_fns={{{query_id!r}: fn}}")
        query = TemporalQuery(
            labels=spec["labels"],
            edges=[tuple(e) for e in spec["edges"]],
            order_pairs=[tuple(p) for p in spec["order_pairs"]],
            directed=spec["directed"],
            edge_labels=spec["edge_labels"],
        )
        hosted.append((spec, query, label_maps[spec["label_map"]],
                       edge_label_fn))
    return [(Edge(u, v, t), seq) for u, v, t, seq in data["window"]], hosted


def snapshot(service: MatchService) -> Dict[str, object]:
    """A JSON-ready snapshot of ``service`` (cursor, window, registry)."""
    return encode_snapshot(
        service, ((entry, entry.stats, entry.result is not None)
                  for entry in service.registry.list()))


def restore(data: Dict[str, object], *,
            engine_factories: Optional[Dict[str, EngineFactory]] = None,
            edge_label_fns: Optional[Dict[str, Callable]] = None
            ) -> MatchService:
    """Rebuild a service from a :func:`snapshot` dictionary.

    ``edge_label_fns`` maps query ids to replacement ``edge_label_fn``
    callables for queries that had one at snapshot time (functions are
    not serializable); omitting a required entry raises ``ValueError``.
    """
    window, hosted = decode_snapshot(data, edge_label_fns)
    service = MatchService(int(data["delta"]),
                           engine_factories=engine_factories)
    # Through the routed entry point while nobody is registered: only
    # the live deque and the cursor move.
    service.ingest_routed(window, data["now"], int(data["seq"]))
    for spec, query, data_labels, edge_label_fn in hosted:
        service.host_query(
            query, data_labels, spec["engine"], query_id=spec["query_id"],
            joined_seq=int(spec["joined_seq"]), status=spec["status"],
            error=spec["error"], stats=QueryStats(**spec["stats"]),
            edge_label_fn=edge_label_fn,
            collect_results=spec["collect_results"])
    service.stats = ServiceStats(**data["stats"])
    return service


def save_checkpoint(service: MatchService, path: str) -> None:
    """Write a checkpoint of ``service`` to ``path`` as JSON.

    The snapshot is fully serialized before the file is opened, so a
    snapshot failure (custom factory, unserializable label) cannot
    truncate an existing good checkpoint at ``path``.
    """
    text = json.dumps(snapshot(service), indent=1, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_checkpoint(path: str, *,
                    engine_factories: Optional[Dict[str,
                                                    EngineFactory]] = None,
                    edge_label_fns: Optional[Dict[str, Callable]] = None
                    ) -> MatchService:
    """Read a checkpoint from ``path`` and rebuild the service."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return restore(data, engine_factories=engine_factories,
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
    Works on either service: both hold ``now`` and the live deque.
    """
    now = service.now
    seen = (sum(1 for edge, _ in service._live if edge.t == now)
            or float("inf"))
    for edge in edges:
        if now is None or edge.t > now:
            yield edge
        elif edge.t == now:
            if seen:
                seen -= 1
            else:
                yield edge
