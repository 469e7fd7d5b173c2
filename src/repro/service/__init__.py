"""Multi-query continuous matching service.

One :class:`MatchService` owns one shared sliding window over one edge
stream and fans events out to N registered queries, each backed by its
own engine (TCM or any baseline from the benchmark registry).  Queries
register and retire at runtime; failures are isolated per query; the
whole registry checkpoints to JSON for restart/resume.

This is the single-process middle layer of the matching stack
(engine -> service -> cluster).  Its :class:`ServiceFront` — window,
cursor, registry, per-call rules, checkpoint — is also the front of
:mod:`repro.cluster`'s sharded service, which swaps the in-process
fan-out for dispatch to worker processes, each hosting a full
``MatchService`` over its shard.
"""

from repro.service.stats import QueryStats, ServiceStats
from repro.service.interest import QueryInterestIndex, query_pattern_keys
from repro.service.registry import (
    EngineFactory, QueryRegistry, QueryStatus, RegisteredQuery,
)
from repro.service.service import (
    MatchNotification, MatchService, Notifications, OutOfOrderError,
    ServiceFront,
)
from repro.service.checkpoint import (
    load_checkpoint, restore, resume_edges, save_checkpoint, snapshot,
)

__all__ = [
    "QueryStats", "ServiceStats",
    "QueryInterestIndex", "query_pattern_keys",
    "EngineFactory", "QueryRegistry", "QueryStatus", "RegisteredQuery",
    "MatchNotification", "MatchService", "Notifications", "OutOfOrderError",
    "ServiceFront",
    "load_checkpoint", "restore", "resume_edges", "save_checkpoint",
    "snapshot",
]
