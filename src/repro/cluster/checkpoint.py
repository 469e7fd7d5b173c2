"""Checkpointing for :class:`~repro.cluster.ShardedMatchService`.

A cluster checkpoint is written from what the coordinator holds: its
mirror of every registration (``status`` / ``error`` move in lockstep
with the workers through ``Reply.errors``), the window it kept of what
it routed, its cursor and counters, and one per-query counters fetch (a
query stranded on a crashed worker contributes the last ones fetched).
The document is the single-process one (:func:`repro.service.
checkpoint.encode_snapshot`) wrapped with the cluster metadata (worker
count, query placement).

Two interoperability properties fall out of this layout:

* the embedded ``"service"`` document is a complete, valid
  single-process service checkpoint — :func:`as_service_snapshot`
  extracts it so ``repro.service.checkpoint.restore`` can rebuild the
  same query population in one process (scale-down restore);
* :func:`restore` accepts a ``workers=`` override, so a checkpoint
  taken on N workers restores onto M (placement is recomputed
  least-loaded; the recorded placement is informational).

:func:`restore` sends every record to a worker as a ticket carrying the
record's join cursor and its cut of the checkpointed window, so
``restore(snapshot(s))`` fed the rest of the stream (:func:`repro.
service.checkpoint.resume_edges` works on the sharded service too)
reports what ``s`` would have, on any worker count, either restore.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Optional

from repro.cluster.coordinator import ShardedMatchService
from repro.cluster.protocol import RegisterSpec
from repro.service import checkpoint as service_checkpoint
from repro.service.stats import QueryStats, ServiceStats

#: Format tag of a cluster checkpoint (``/1`` had no window: refused).
FORMAT = "repro.cluster.checkpoint/2"


def snapshot(service: ShardedMatchService) -> Dict[str, object]:
    """A JSON-ready snapshot of the sharded service (staged migrations
    are landed first, so every query is hosted somewhere).  Raises
    ``ValueError`` for custom-factory queries, like the single-process
    snapshot."""
    service._migrations.finish_all()
    infos = list(service._queries.values())
    return {
        "format": FORMAT,
        "workers": service.num_workers,
        "placement": {info.query_id: service.shard_of(info.query_id)
                      for info in infos},
        "service": service_checkpoint.encode_snapshot(
            service, ((info, stats, info.collect_results) for info, stats
                      in zip(infos, service.all_query_stats()))),
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
    window, hosted = service_checkpoint.decode_snapshot(svc, edge_label_fns)
    count = int(workers) if workers is not None else int(data["workers"])
    service = ShardedMatchService(int(svc["delta"]), workers=count,
                                  start_method=start_method)
    try:
        # The coordinator's cursor and window are the only ones: every
        # ticket below is cut from them at its record's join cursor.
        service._live.extend(window)
        service._now = svc["now"]
        service._seq = int(svc["seq"])
        for spec, query, data_labels, edge_label_fn in hosted:
            service._register_spec(
                RegisterSpec(
                    query_id=spec["query_id"],
                    query=query,
                    labels=data_labels,
                    engine=spec["engine"],
                    edge_label_fn=edge_label_fn,
                    collect_results=spec["collect_results"]),
                status=spec["status"], error=spec["error"],
                stats=QueryStats(**spec["stats"]),
                joined_seq=int(spec["joined_seq"]))
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
