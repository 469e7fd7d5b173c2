"""Sharded multi-process continuous matching (repro.cluster).

The third layer of the matching stack:

* **engine** (``repro.core`` / ``repro.baselines``) — one query, one
  window, incremental matching;
* **service** (``repro.service``) — many queries over one shared
  window in one process;
* **cluster** (this package) — the service scaled across CPU cores:
  a :class:`ShardedMatchService` coordinator partitions registered
  queries over persistent worker processes, interest-routes each event
  batch to the shards that can match it over a
  packed binary wire protocol (``repro.cluster.wire``), and merges
  per-query matches back in arrival order, with the full service
  contract (mid-stream register/unregister, per-query error isolation
  plus whole-worker crash quarantine and recovery, and
  checkpoint/restore).  Placement is a live policy: queries migrate
  between workers mid-stream with byte-identical merged output
  (``repro.cluster.migration``), load skew rebalances away, and the
  worker pool grows/shrinks elastically (``add_worker`` /
  ``drain_worker``).

The sharded service is the service front of ``repro.service`` over a
sharded dispatch back-end; ``repro.cluster.checkpoint`` wraps the one
service checkpoint in the cluster envelope (worker count, placement)
and restores it across worker counts.
"""

from repro.cluster.coordinator import ShardedMatchService
from repro.cluster.transport import WorkerCrashError
from repro.cluster.migration import (
    MigrationError, MigrationRecord,
)
from repro.cluster.placement import ShardPlacement
from repro.cluster.wire import UnpackableEdgeError
from repro.cluster.checkpoint import (
    as_service_snapshot, load_checkpoint, restore, save_checkpoint,
    snapshot,
)

__all__ = [
    "ShardedMatchService", "WorkerCrashError",
    "MigrationError", "MigrationRecord",
    "ShardPlacement", "UnpackableEdgeError",
    "as_service_snapshot", "load_checkpoint", "restore",
    "save_checkpoint", "snapshot",
]
