"""Checkpointing for :class:`~repro.cluster.ShardedMatchService`.

A cluster checkpoint is *composed* from per-shard
:mod:`repro.service.checkpoint` snapshots: the coordinator asks every
live worker for its service snapshot, merges the query records back
into global registration order, and wraps them with the cluster
metadata (worker count, query placement) and the coordinator's own
stream cursor and counters.

Two interoperability properties fall out of this layout:

* the embedded ``"service"`` document is a complete, valid
  single-process service checkpoint — :func:`as_service_snapshot`
  extracts it so ``repro.service.checkpoint.restore`` can rebuild the
  same query population in one process (scale-down restore);
* :func:`restore` accepts a ``workers=`` override, so a checkpoint
  taken on N workers restores onto M (placement is recomputed
  least-loaded; the recorded placement is informational).

As with the service checkpoint, engine state is derived data and is
not persisted: restored queries join at the snapshot's sequence cursor
with an empty window, and the caller resumes the stream with
:func:`repro.service.checkpoint.resume_edges` (which is duck-typed
over ``service.now`` and works on the sharded service unchanged).
Queries stranded on a crashed (quarantined) worker are included with
their errored status, but their counters died with the worker.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional

from repro.cluster.coordinator import ShardedMatchService
from repro.cluster.protocol import RegisterSpec
from repro.service import checkpoint as service_checkpoint
from repro.service.stats import QueryStats, ServiceStats

#: Format tag written into every cluster checkpoint.
FORMAT = "repro.cluster.checkpoint/1"


def snapshot(service: ShardedMatchService) -> Dict[str, object]:
    """A JSON-ready snapshot of the sharded service.

    Raises ``ValueError`` for custom-factory queries, exactly like the
    single-process snapshot (the refusal happens inside the owning
    worker and propagates here).
    """
    shard_snaps = service.shard_snapshots()
    by_query: Dict[str, Dict[str, object]] = {}
    for snap in shard_snaps.values():
        for spec in snap["queries"]:
            by_query[spec["query_id"]] = spec
    queries: List[Dict[str, object]] = []
    placement: Dict[str, int] = {}
    for info in service._queries.values():
        placement[info.query_id] = service.shard_of(info.query_id)
        spec = by_query.get(info.query_id)
        if spec is None:
            # Stranded on a crashed shard: rebuild the record from the
            # coordinator mirror (the worker's counters are lost).
            if info.custom_factory:
                raise ValueError(
                    f"cannot checkpoint query {info.query_id!r}: its "
                    f"engine was built by a custom factory "
                    f"({info.engine_kind!r}), which JSON cannot persist")
            spec = service_checkpoint.encode_query_spec(
                query_id=info.query_id,
                query=info.query,
                labels=info.labels,
                engine_kind=info.engine_kind,
                status=info.status.value,
                error=info.error,
                has_edge_label_fn=info.edge_label_fn is not None,
                has_subscribers=bool(info.subscribers),
                collect_results=info.collect_results,
                stats=service._lost_stats(info).to_dict(),
            )
        else:
            # Subscribers live coordinator-side; the worker's flag is
            # always False and must be overridden from the mirror.
            spec = dict(spec)
            spec["has_subscribers"] = bool(info.subscribers)
        queries.append(spec)
    return {
        "format": FORMAT,
        "workers": service.num_workers,
        "placement": placement,
        "service": {
            "format": service_checkpoint.FORMAT,
            "delta": service.delta,
            "now": service.now,
            "seq": service.seq,
            "stats": service.stats.to_dict(),
            "queries": queries,
        },
    }


def as_service_snapshot(data: Dict[str, object]) -> Dict[str, object]:
    """The embedded single-process service snapshot of a cluster
    checkpoint (restorable via ``repro.service.checkpoint.restore``)."""
    if data.get("format") != FORMAT:
        raise ValueError(f"not a cluster checkpoint: format "
                         f"{data.get('format')!r} (expected {FORMAT!r})")
    return data["service"]


def restore(data: Dict[str, object], *,
            workers: Optional[int] = None,
            edge_label_fns: Optional[Dict[str, Callable]] = None,
            start_method: Optional[str] = None) -> ShardedMatchService:
    """Rebuild a sharded service from a :func:`snapshot` dictionary.

    ``workers`` overrides the checkpointed worker count (queries are
    re-placed least-loaded).  ``edge_label_fns`` maps query ids to
    replacement callables for queries that had an ``edge_label_fn``
    (callables are not serializable; the replacement must be picklable
    since it crosses the worker pipe).
    """
    svc = as_service_snapshot(data)
    if svc.get("format") != service_checkpoint.FORMAT:
        raise ValueError(
            f"cluster checkpoint embeds unknown service format "
            f"{svc.get('format')!r}")
    count = int(workers) if workers is not None else int(data["workers"])
    service = ShardedMatchService(int(svc["delta"]), workers=count,
                                  start_method=start_method)
    try:
        # The coordinator's cursor is the only one: every ticket below
        # carries it as its query's join cursor, so join cursors and
        # notification sequence numbers continue where the checkpointed
        # service stopped (matching a single-process restore exactly).
        service._now = svc["now"]
        service._seq = int(svc["seq"])
        fns = edge_label_fns or {}
        for spec in svc["queries"]:
            query_id = spec["query_id"]
            edge_label_fn = fns.get(query_id)
            if spec["has_edge_label_fn"] and edge_label_fn is None:
                raise ValueError(
                    f"query {query_id!r} was registered with an "
                    f"edge_label_fn; pass a replacement via "
                    f"edge_label_fns={{{query_id!r}: fn}}")
            query, data_labels = service_checkpoint.decode_query_spec(spec)
            service._register_spec(
                RegisterSpec(
                    query_id=query_id,
                    query=query,
                    labels=data_labels,
                    engine=spec["engine"],
                    edge_label_fn=edge_label_fn,
                    collect_results=spec["collect_results"]),
                status=spec["status"], error=spec["error"],
                stats=QueryStats(**spec["stats"]))
        service.stats = ServiceStats(**svc["stats"])
    except Exception:
        service.close()
        raise
    return service


def save_checkpoint(service: ShardedMatchService, path: str) -> None:
    """Write a cluster checkpoint to ``path`` as JSON (fully serialized
    before the file is opened, so a snapshot failure cannot truncate an
    existing good checkpoint)."""
    text = json.dumps(snapshot(service), indent=1, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_checkpoint(path: str, *,
                    workers: Optional[int] = None,
                    edge_label_fns: Optional[Dict[str, Callable]] = None,
                    start_method: Optional[str] = None
                    ) -> ShardedMatchService:
    """Read a cluster checkpoint from ``path`` and rebuild the service."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return restore(data, workers=workers, edge_label_fns=edge_label_fns,
                   start_method=start_method)


# QueryStats is re-exported for callers inspecting restored counters.
__all__ = [
    "FORMAT", "QueryStats", "as_service_snapshot", "load_checkpoint",
    "restore", "save_checkpoint", "snapshot",
]
