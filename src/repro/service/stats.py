"""Counters for the multi-query matching service.

Two levels of bookkeeping: :class:`QueryStats` counts what one registered
query saw (events routed to its engine, matches reported, wall-clock time
spent inside its engine), :class:`ServiceStats` counts what the service as
a whole ingested.  Both are plain dataclasses so callers can snapshot,
serialize, or diff them freely.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict


@dataclass
class QueryStats:
    """Per-query counters, updated as events are fanned out.

    ``elapsed_seconds`` is the cumulative wall-clock time spent inside
    this query's engine (and its subscribers), so the service can report
    which registered queries dominate the cost of a batch.
    ``events_skipped`` counts events the interest index pruned before
    they reached the engine (see :mod:`repro.service.interest`); a
    skipped event costs no engine dispatch, no timing, and no
    error-isolation bookkeeping.
    """

    query_id: str = ""
    engine: str = ""
    events_processed: int = 0
    events_skipped: int = 0
    batches_processed: int = 0
    occurred: int = 0
    expired: int = 0
    errors: int = 0
    elapsed_seconds: float = 0.0
    peak_structure_entries: int = 0

    @property
    def matches(self) -> int:
        """Total deltas reported (occurrences plus expirations)."""
        return self.occurred + self.expired

    def note_structure_size(self, entries: int) -> None:
        """Record a high-water mark for the engine's stored entries."""
        if entries > self.peak_structure_entries:
            self.peak_structure_entries = entries

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (used by checkpoints and reports)."""
        return asdict(self)


@dataclass
class ServiceStats:
    """Service-level counters across the lifetime of one service.

    ``batches`` counts the calls that offer edges — ``ingest`` /
    ``process_batch`` / ``ingest_routed``, an empty or partly rejected
    batch included — in both services.  ``advance_to`` and ``drain``
    move the clock, not the stream: they add to ``elapsed_seconds`` and
    to the ``service_ingest_seconds`` histogram, not to ``batches``.
    """

    edges_ingested: int = 0
    batches: int = 0
    events_routed: int = 0
    events_skipped: int = 0
    elapsed_seconds: float = 0.0
    registered_total: int = 0
    unregistered_total: int = 0
    errored_queries: int = 0

    @property
    def throughput_eps(self) -> float:
        """Ingested edges per second of total processing wall-clock
        (``elapsed_seconds`` spans ingest, advance_to, and drain: the
        stream's expirations are part of serving it, exactly as
        :class:`~repro.streaming.driver.StreamDriver` counts them)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.edges_ingested / self.elapsed_seconds

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (used by checkpoints and reports)."""
        return asdict(self)
