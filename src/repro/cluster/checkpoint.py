"""The cluster checkpoint: :mod:`repro.service.checkpoint`'s document
(one writer, one restore, restorable in one process too) in an envelope
naming the worker count and the placement."""

from repro.cluster.coordinator import ShardedMatchService
from repro.service import checkpoint as service_checkpoint
from repro.service.checkpoint import save_checkpoint, snapshot  # noqa: F401

FORMAT = "repro.cluster.checkpoint/2"  # /1 had no window: refused


def envelope(backend, document):
    """``document`` under ``backend``'s worker count and placement."""
    shard_of = backend.placement.shard_of
    return {"format": FORMAT, "workers": backend.placement.num_shards,
            "placement": {entry.query_id: shard_of(entry.query_id)
                          for entry in backend.front.registry.entries()},
            "service": document}


def as_service_snapshot(data):
    """The embedded service document of a cluster checkpoint."""
    if data.get("format") != FORMAT:
        raise ValueError(f"not a cluster checkpoint: format "
                         f"{data.get('format')!r} (expected {FORMAT!r})")
    return data["service"]


def restore(data, *, workers=None, edge_label_fns=None):
    """Rebuild a sharded service, re-placed on ``workers`` (N -> M)."""
    document = as_service_snapshot(data)
    workers = int(data["workers"] if workers is None else workers)
    return service_checkpoint.rebuild(document, lambda delta: (
        ShardedMatchService(delta, workers=workers)), edge_label_fns)


def load_checkpoint(path, **options):
    """Read a cluster checkpoint from ``path`` and :func:`restore` it."""
    return restore(service_checkpoint.read_checkpoint(path), **options)
