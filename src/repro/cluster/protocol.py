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

There are eleven verbs.  Edges travel on two of them, ``INGEST_ROUTED``
(data: one shard's share of a batch, or a bare clock advance) and
``MIGRATE_IN`` (the one way a query reaches a worker — registration,
checkpoint restore, crash recovery and migration all send a
:class:`MigrationTicket`), both as packed binary frames
(:mod:`repro.cluster.wire`); a binary frame decodes to exactly one of
the verbs below, and every other verb stays pickled.  Nothing is synced
ahead of a query: its wire code, its join cursor and its window — cut
from the coordinator's — ride its ticket, and every routed frame
carries the stream cursor it closes on.  No edge travels back: a
worker answers ``UNREGISTER``, ``DESCRIBE`` and ``MIGRATE_OUT`` alike
with a :class:`QueryFinalState`.

Replies piggyback only what the coordinator cannot work out from the
registrations, the placement and the stream it already holds:

* ``errors`` — queries newly quarantined by the worker's inner service
  during the operation: an engine raises inside the worker process;
* ``routed`` / ``skipped`` — the (event, query) routings the worker
  performed and interest-pruned.  They count expirations too, and which
  expirations fall due, for which queries, depends on the worker's live
  deque and each hosted query's join cursor and quarantine state.
  ``routed`` keeps the coordinator's ``events_routed`` in lockstep with
  a single-process :class:`~repro.service.MatchService`; ``skipped``
  only covers events the worker actually received, so the coordinator's
  ``events_skipped`` runs *below* the single-process value — the
  remainder is what ``events_unshipped`` measures, as (event, shard)
  shipments rather than (event, query) skips;
* ``metrics`` — the worker's own clock (busy nanoseconds, packed spans).

Which shards a batch must visit is *not* piggybacked: the coordinator
decides it from its own :class:`~repro.service.interest.
QueryInterestIndex` over the registrations it holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.graph.temporal_graph import Edge
from repro.query.temporal_query import TemporalQuery
from repro.service.stats import QueryStats
from repro.streaming.driver import StreamResult

# Request verbs -------------------------------------------------------
UNREGISTER = "unregister"    # payload: query_id -> QueryFinalState
DESCRIBE = "describe"        # payload: query_id (non-destructive)
QUERY_STATS = "query_stats"  # payload: query_id
QUARANTINE = "quarantine"    # payload: (query_id, error message)
MIGRATE_OUT = "migrate_out"  # payload: query_id -> QueryFinalState
MIGRATE_IN = "migrate_in"    # payload: MigrationTicket
INGEST_BATCH = "ingest_batch"  # payload: edges (see wire.encode_ingest)
INGEST_ROUTED = "ingest_routed"  # payload: RoutedBatch (interest-routed)
DRAIN = "drain"              # payload: None
STATS = "stats"              # payload: None
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
    """The registration a caller made: what a worker needs, besides
    the rest of the :class:`MigrationTicket` it rides in, to build one
    query's engine."""

    query_id: str
    query: TemporalQuery
    labels: Dict[int, object]
    engine: object                       # kind name or picklable factory
    edge_label_fn: Optional[Callable] = None
    collect_results: bool = True


@dataclass(frozen=True)
class MigrationTicket:
    """MIGRATE_IN payload: one query's portable state, target-bound —
    how every query reaches a worker.

    Assembled by the coordinator from the registration spec it mirrors,
    what the query's previous host knew (``status`` / ``error`` /
    ``stats`` / ``result``: a :class:`QueryFinalState`, from the source
    worker or from the coordinator's mirror) and the query's cut of the
    coordinator's window (:mod:`repro.cluster.migration`, "How every
    query reaches a worker").  ``window`` holds the ``(edge, global
    seq)`` pairs the query's engine has inside the sliding window; the
    engine object itself is *not* shipped — engine state is derived
    data, rebuilt on the target by replaying ``window`` — and
    ``result`` moves with the query so collected matches survive the
    hop (a crashed worker's are gone).  A query that is not active
    ships no window and no tail.
    ``code`` is the query id's interned code on the reply wire.
    ``joined_seq`` is the query's **global** join cursor: the stream
    position it first registered at, kept across migrations, restores
    and recoveries — never the target worker's own position, which lags
    on a shard the router has not contacted.  ``tail`` carries the
    events that arrived (and matched the query's interest) while the
    query was nowhere — detached by a staged migration, or stranded on
    a worker whose reply was lost; empty on the atomic migration path,
    where the hop completes inside one batch boundary.  ``final_now``
    is the global clock at restore time, so the target can privately
    expire any window/tail edge whose window closed in the meantime;
    ``drained`` records that the stream was drained mid-flight (the
    private window must be flushed completely and nothing re-enters the
    live deque).  The ticket is idempotent and retryable: if the target
    dies mid-restore the coordinator re-sends the same ticket to another
    healthy worker.
    """

    spec: RegisterSpec
    code: int
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
    """A worker's view of one query: status, counters and results (the
    reply to ``UNREGISTER``, ``DESCRIBE`` and ``MIGRATE_OUT``)."""

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
    failure: Optional[Tuple[str, str]] = None
    #: Positional integer metric deltas piggybacked on every reply so
    #: the coordinator's observability layer sees worker-side cost
    #: without extra round trips or new verbs: index 0 is the
    #: nanoseconds the worker spent dispatching this request, index 1
    #: the edges it ingested while doing so.  With tracing on, the
    #: worker's completed spans follow from index 2, packed as ints by
    #: :func:`repro.obs.trace.pack_spans` (a count, then fixed-width
    #: records).  Extendable by appending (consumers index
    #: defensively); empty when there is nothing to report.
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
