"""The engine interface shared by TCM and all baselines.

Every matching engine processes edge events — one at a time through
:meth:`MatchEngine.on_edge_insert` / :meth:`MatchEngine.on_edge_expire`,
or a chronological batch at a time through :meth:`MatchEngine.on_batch`
— and reports the *delta* of time-constrained embeddings: embeddings
that occur on an arrival and embeddings that expire on an expiration.
Engines own their copy of the within-window data graph; the driver only
feeds events.

Each event reports one canonical-order (sorted) *sequence* of ``Match``
— a list from the baselines, a :class:`~repro.streaming.match.MatchBlock`
from TCM, which builds its matches only when read — so the two ingestion
paths are byte-identical: ``on_batch`` must produce, for every event, a
sequence equal to the one the per-event methods would have produced.
The default ``on_batch`` is the trivial loop; TCM overrides it to
defer and dedupe its filter maintenance across the batch.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.graph.temporal_graph import Edge, TemporalGraph
from repro.query.temporal_query import TemporalQuery
from repro.streaming.events import Event
from repro.streaming.match import Match


@dataclass
class EngineStats:
    """Counters every engine keeps for the evaluation harness.

    ``backtrack_nodes`` counts search-tree node expansions; the structure
    sizes feed the memory comparison (Figure 10) and the filtering-power
    table (Table V).  ``events_processed`` / ``batches_processed`` track
    how much stream the engine has absorbed and through which ingestion
    path (a per-event call counts as an event with no batch): every
    event handed to an engine counts once there and in
    ``extra["events"]``, on both paths, admitted or not, duplicate or
    not, as ``StreamResult.events_processed`` counts it.
    ``filter_flushes`` / ``arrivals_deferred`` say how often a batched
    engine brought its filter up to date and how many relevant arrivals
    it answered without doing so (TCM's flush gate).  ``match_groups``
    counts the distinct vertex maps per reporting event, summed:
    ``matches_emitted / match_groups`` is the parallel-edge multiplicity
    of the output (TCM only; the baselines leave it 0).
    ``ledger_rows`` / ``peak_ledger_rows`` are the embeddings a batched
    TCM engine holds to answer expirations from, now and at most (0
    once it dropped them; not part of ``structure_entries()``, the
    filter's space).
    """

    matches_emitted: int = 0
    match_groups: int = 0
    backtrack_nodes: int = 0
    candidates_pruned: int = 0
    peak_structure_entries: int = 0
    events_processed: int = 0
    batches_processed: int = 0
    filter_flushes: int = 0
    arrivals_deferred: int = 0
    ledger_rows: int = 0
    peak_ledger_rows: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    def note_structure_size(self, entries: int) -> None:
        """Record a high-water mark for stored structure entries."""
        if entries > self.peak_structure_entries:
            self.peak_structure_entries = entries


class MatchEngine(abc.ABC):
    """Abstract continuous-matching engine.

    Subclasses implement :meth:`on_edge_insert` and :meth:`on_edge_expire`;
    both return one sequence of the time-constrained embeddings that
    occur/expire because of the event (every match contains the event
    edge), in canonical sorted order.  :meth:`on_batch` processes a
    chronological event batch and returns the per-event sequences aligned
    with the input; its output must be byte-identical to feeding the
    events one at a time.
    """

    name = "abstract"

    def __init__(self, query: TemporalQuery, labels: Dict[int, object],
                 edge_label_fn: Optional[Callable[[Edge], object]] = None):
        self.query = query
        self.labels = labels
        self.edge_label_fn = edge_label_fn
        self.stats = EngineStats()

    def _window_graph(self) -> TemporalGraph:
        """The engine's window graph.  It is the one admission decision:
        ``insert_edge`` stores an edge only if its endpoint-label pair is
        in ``query.relevant_label_pairs()`` (every edge of an embedding
        is) and answers False, as for a duplicate, otherwise; a missing
        label raises ``KeyError`` before anything changed."""
        return TemporalGraph(label_fn=self.labels.__getitem__,
                             directed=self.query.directed,
                             label_pairs=self.query.relevant_label_pairs())

    def _edge_label(self, edge: Edge) -> object:
        """The stream-supplied label of a data edge (None = unlabeled)."""
        if self.edge_label_fn is None:
            return None
        return self.edge_label_fn(edge)

    @abc.abstractmethod
    def on_edge_insert(self, edge: Edge) -> Sequence[Match]:
        """Process an arriving edge; return newly occurring embeddings."""

    @abc.abstractmethod
    def on_edge_expire(self, edge: Edge) -> Sequence[Match]:
        """Process an expiring edge; return embeddings that expire with it."""

    def on_batch(self, events: Sequence[Event]) -> List[Sequence[Match]]:
        """Process a chronological event batch; return one match sequence
        per event, aligned with ``events``.

        The default implementation is the per-event loop, correct for
        every engine.  TCM, whose per-event cost is dominated by
        incremental index maintenance, overrides this to batch that
        maintenance while keeping the output identical.
        """
        out: List[Sequence[Match]] = []
        for event in events:
            if event.is_arrival:
                out.append(self.on_edge_insert(event.edge))
            else:
                out.append(self.on_edge_expire(event.edge))
        self.stats.batches_processed += 1
        return out

    def structure_entries(self) -> int:
        """Current number of stored index-structure entries (memory proxy)."""
        return 0
