"""Wire protocol between the cluster coordinator and its shard workers.

Messages travel over ``multiprocessing.Pipe`` connections, so payloads
are pickled: everything crossing the wire is either a plain value or
one of the dataclasses below (queries, edges, events, matches and stats
are all pickle-friendly dataclasses already).  Callables may appear in
a :class:`RegisterSpec` (engine factories, ``edge_label_fn``) and must
then be picklable — module-level functions or bound methods of
picklable objects such as ``some_dict.get``.

A request is a ``(verb, payload)`` tuple; every request gets exactly
one :class:`Reply`.  The strict request/reply lockstep is what makes
the coordinator's crash detection sound: a worker that dies leaves a
broken pipe where its reply should be, never a half-processed queue.

Replies piggyback bookkeeping fields so the coordinator's mirror stays
current without extra round trips: ``errors`` lists queries newly
quarantined by the worker's inner service during the operation,
``routed``/``skipped`` are the numbers of (event, query) routings the
worker performed and interest-pruned, and ``interest`` (on
register/unregister acks) is the shard's refreshed
:class:`~repro.service.interest.InterestSummary`, from which the
coordinator decides which shards each ingest batch must visit at all.
``routed`` keeps the coordinator's ``events_routed`` counter in
lockstep with a single-process :class:`~repro.service.MatchService`;
``skipped`` only covers events the worker actually received, so under
shard routing the coordinator's ``events_skipped`` runs *below* the
single-process value — the remainder is what the coordinator's own
``events_unshipped`` counter measures, as (event, shard) shipments
rather than (event, query) skips.

Edges never travel pickled: ingest sub-batches and migration tickets
are packed binary frames (:mod:`repro.cluster.wire`).  The verbs below
remain the canonical protocol — a binary frame decodes to exactly one
of them — and every control verb stays pickled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.graph.temporal_graph import Edge
from repro.query.temporal_query import TemporalQuery
from repro.service.interest import InterestSummary
from repro.service.stats import QueryStats
from repro.streaming.driver import StreamResult

# Request verbs -------------------------------------------------------
REGISTER = "register"        # payload: RegisterSpec
UNREGISTER = "unregister"    # payload: query_id
DESCRIBE = "describe"        # payload: query_id (non-destructive)
QUERY_STATS = "query_stats"  # payload: query_id
QUARANTINE = "quarantine"    # payload: (query_id, error message)
CURSOR = "cursor"            # payload: (now, seq) — checkpoint restore
INTERN = "intern"            # payload: tuple of (code, string) pairs
MIGRATE_OUT = "migrate_out"  # payload: query_id -> MigrationSource
MIGRATE_IN = "migrate_in"    # payload: MigrationTicket
INGEST_BATCH = "ingest_batch"  # payload: edges (see wire.encode_ingest)
INGEST_ROUTED = "ingest_routed"  # payload: RoutedBatch (interest-routed)
ADVANCE = "advance"          # payload: timestamp
DRAIN = "drain"              # payload: None
STATS = "stats"              # payload: None
SNAPSHOT = "snapshot"        # payload: None
STOP = "stop"                # payload: None


@dataclass(frozen=True)
class RoutedBatch:
    """One shard's interest-routed share of a coordinator ingest batch.

    ``pairs`` holds only the edges some query on the shard may care
    about, each with its **global** arrival sequence number;
    ``final_now``/``final_seq`` are the full batch's closing cursor so
    the worker expires due edges and re-synchronizes its stream
    position even when the tail of the batch was routed elsewhere.  An
    empty ``pairs`` is a pure clock-advance (sent only when the shard
    has expirations due).
    """

    pairs: Tuple[Tuple[Edge, int], ...]
    final_now: int
    final_seq: int


@dataclass(frozen=True)
class RegisterSpec:
    """Everything a worker needs to host one query.

    The restore-time extras (``status``/``error``/``stats``) let a
    checkpoint rebuild a query in its quarantined state with its
    historical counters; they are ``None`` for live registrations.
    """

    query_id: str
    query: TemporalQuery
    labels: Dict[int, object]
    engine: object                       # kind name or picklable factory
    edge_label_fn: Optional[Callable] = None
    collect_results: bool = True
    status: Optional[str] = None
    error: Optional[str] = None
    stats: Optional[Dict[str, object]] = None


@dataclass(frozen=True)
class MigrationSource:
    """MIGRATE_OUT reply: everything the source worker knew about one
    query at the moment it was detached.

    ``window`` holds the ``(edge, global seq)`` pairs the query's engine
    currently has inside the sliding window — exactly the subset of the
    worker's live deque the query was eligible for (seq at or after its
    join cursor, interest-positive under routing).  The engine object
    itself is *not* shipped: engine state is derived data, rebuilt on the
    target by replaying ``window`` (the same contract the checkpoint
    modules rely on).  ``result`` moves with the query so collected
    matches survive the hop.
    """

    status: str
    error: Optional[str]
    stats: QueryStats
    result: Optional[StreamResult]
    joined_seq: int
    window: Tuple[Tuple[Edge, int], ...]


@dataclass(frozen=True)
class MigrationTicket:
    """MIGRATE_IN payload: one query's portable state, target-bound.

    Assembled by the coordinator from a :class:`MigrationSource` plus
    the registration spec it already mirrors.  ``tail`` carries the
    events that arrived (and matched the query's interest) while the
    query was detached — empty on the atomic migration path, where the
    hop completes inside one batch boundary.  ``final_now`` is the
    global clock at restore time, so the target can privately expire any
    window/tail edge whose window closed while the query was in flight;
    ``drained`` records that the stream was drained mid-flight (the
    private window must be flushed completely and nothing re-enters the
    live deque).  The ticket is idempotent and retryable: if the target
    dies mid-restore the coordinator re-sends the same ticket to another
    healthy worker.
    """

    spec: RegisterSpec
    joined_seq: int
    status: str
    error: Optional[str]
    stats: QueryStats
    result: Optional[StreamResult]
    window: Tuple[Tuple[Edge, int], ...] = ()
    tail: Tuple[Tuple[Edge, int], ...] = ()
    final_now: Optional[int] = None
    drained: bool = False


@dataclass(frozen=True)
class QueryFinalState:
    """A worker's view of one query: status, counters and results."""

    status: str
    error: Optional[str]
    stats: QueryStats
    result: Optional[StreamResult]


@dataclass(frozen=True)
class Reply:
    """One worker response.

    ``failure`` is ``(exception type name, message)`` when the request
    itself failed (unknown query id, unknown engine kind, ...); the
    coordinator re-raises it via :func:`make_exception`.  Per-query
    engine failures are *not* failures of the request — they arrive in
    ``errors`` while the request succeeds, exactly like the in-process
    service quarantining a query mid-batch.
    """

    payload: object = None
    errors: Tuple[Tuple[str, str], ...] = ()
    routed: int = 0
    skipped: int = 0
    interest: Optional[InterestSummary] = None
    failure: Optional[Tuple[str, str]] = None
    #: Positional integer metric deltas piggybacked on every reply so
    #: the coordinator's observability layer sees worker-side cost
    #: without extra round trips or new verbs: index 0 is the
    #: nanoseconds the worker spent dispatching this request, index 1
    #: the edges it ingested while doing so.  With tracing on, the
    #: worker's completed spans follow from index 2, packed as ints by
    #: :func:`repro.obs.trace.pack_spans` (a count, then fixed-width
    #: records).  Extendable by appending (consumers index
    #: defensively); empty when a worker predates the field or has
    #: nothing to report.
    metrics: Tuple[int, ...] = ()


#: Exception types a worker may legitimately propagate to the caller.
_EXCEPTION_TYPES = {
    "ValueError": ValueError,
    "KeyError": KeyError,
    "TypeError": TypeError,
    "RuntimeError": RuntimeError,
}


def make_exception(failure: Tuple[str, str]) -> Exception:
    """Rebuild a caller-facing exception from a reply's failure pair."""
    name, message = failure
    return _EXCEPTION_TYPES.get(name, RuntimeError)(message)
