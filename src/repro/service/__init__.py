"""Multi-query continuous matching service.

One :class:`MatchService` owns one shared sliding window over one edge
stream and fans events out to N registered queries, each backed by its
own engine (TCM or any baseline from the benchmark registry).  Queries
register and retire at runtime; failures are isolated per query; the
whole registry checkpoints to JSON for restart/resume.

This is the single-process middle layer of the matching stack
(engine -> service -> cluster): :mod:`repro.cluster` shards one
logical service of this shape across worker processes, with each
worker hosting a full ``MatchService`` over its shard and the cluster
checkpoint embedding the service document defined here.
"""

from repro.service.stats import QueryStats, ServiceStats
from repro.service.interest import QueryInterestIndex, query_pattern_keys
from repro.service.registry import (
    EngineFactory, QueryRegistry, QueryStatus, RegisteredQuery,
)
from repro.service.service import (
    MatchNotification, MatchService, Notifications, OutOfOrderError,
)
from repro.service.checkpoint import (
    load_checkpoint, restore, resume_edges, save_checkpoint, snapshot,
)

__all__ = [
    "QueryStats", "ServiceStats",
    "QueryInterestIndex", "query_pattern_keys",
    "EngineFactory", "QueryRegistry", "QueryStatus", "RegisteredQuery",
    "MatchNotification", "MatchService", "Notifications", "OutOfOrderError",
    "load_checkpoint", "restore", "resume_edges", "save_checkpoint",
    "snapshot",
]
