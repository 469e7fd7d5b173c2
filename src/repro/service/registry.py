"""Registry of continuous queries hosted by a service.

A :class:`RegisteredQuery` is the one record of a registration, whichever
service holds it: the query, the vertex labels of the shared data
stream, the engine kind (any name from the benchmark engine registry,
or a custom factory), the stream sequence number at which the query
joined (so mid-stream registrations only see post-registration events),
its status, subscribers, counters and collected results.  A checkpoint
serialises it, a migration ticket carries it, and a shard worker
answers with its :meth:`~RegisteredQuery.outcome`.

Engines are constructed lazily: registering a query is cheap, and the
engine only materializes when the first event reaches it.  This also
means a query that is registered and unregistered between batches never
pays engine-construction cost.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.query.temporal_query import TemporalQuery
from repro.service.interest import QueryInterestIndex
from repro.service.stats import QueryStats
from repro.streaming.driver import StreamResult
from repro.streaming.engine import MatchEngine

#: An engine factory: ``factory(query, labels, edge_label_fn) -> engine``.
EngineFactory = Callable[..., MatchEngine]


def _default_factories() -> Dict[str, EngineFactory]:
    """The benchmark engine registry (imported lazily: ``repro.bench``
    itself depends on the service for the multi-query harness)."""
    from repro.bench.runner import ENGINE_FACTORIES
    return ENGINE_FACTORIES


class QueryStatus(enum.Enum):
    """Lifecycle of a registered query."""

    ACTIVE = "active"
    ERRORED = "errored"


@dataclass
class RegisteredQuery:
    """One continuous query: what it is, where it joined, what it did.

    Pickled (a ticket, a worker's answer), it leaves its engine and its
    subscribers behind, and its factory unless that is a custom one:
    the receiving registry resolves the kind again (:meth:`QueryRegistry.
    adopt`).  ``result`` is ``None`` when results are not collected."""

    query_id: str
    query: TemporalQuery
    labels: Dict[int, object]
    engine_kind: str
    joined_seq: int
    factory: Optional[EngineFactory]
    edge_label_fn: Optional[Callable] = None
    custom_factory: bool = False
    status: QueryStatus = QueryStatus.ACTIVE
    error: Optional[str] = None
    subscribers: List[Callable] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)
    result: Optional[StreamResult] = None
    _engine: Optional[MatchEngine] = None

    @property
    def engine(self) -> MatchEngine:
        """The query's engine, constructed on first access."""
        if self._engine is None:
            self._engine = self.factory(self.query, self.labels,
                                        self.edge_label_fn)
        return self._engine

    @property
    def engine_started(self) -> bool:
        """True once the lazy engine has been constructed."""
        return self._engine is not None

    @property
    def active(self) -> bool:
        return self.status is QueryStatus.ACTIVE

    def __getstate__(self) -> Dict[str, object]:
        return dict(self.__dict__, _engine=None, subscribers=[],
                    factory=self.factory if self.custom_factory else None)

    def outcome(self) -> Tuple[str, Optional[str], QueryStats,
                               Optional[StreamResult]]:
        """What a host reports of this record to the front that holds
        the rest of it: ``(status, error, stats, result)``.  The query
        and its labels (a vertex-to-label map as large as the stream's)
        stay behind."""
        return self.status.value, self.error, self.stats, self.result

    def with_outcome(self, outcome: tuple) -> "RegisteredQuery":
        """A copy of this record carrying a host's :meth:`outcome`."""
        status, error, stats, result = outcome
        return replace(self, status=QueryStatus(status), error=error,
                       stats=stats, result=result)


class QueryRegistry:
    """Registered queries of one service: register/unregister/list.

    The registry is deliberately independent of the service so that a
    checkpoint can rebuild it, and so tests can inspect it directly.
    """

    def __init__(self,
                 engine_factories: Optional[Dict[str, EngineFactory]] = None):
        self._factories = engine_factories
        self._entries: Dict[str, RegisteredQuery] = {}
        self._ids = itertools.count()
        #: Label-triple -> interested-query index, maintained on every
        #: register/unregister (this is the single choke point for
        #: membership, including checkpoint restores).
        self.interest = QueryInterestIndex()
        # Entry snapshot reused by the per-event fan-out loop; rebuilt
        # only when membership changes (register/unregister), never per
        # event.
        self._entry_cache: Optional[List[RegisteredQuery]] = None

    # ------------------------------------------------------------------
    # Engine kinds
    # ------------------------------------------------------------------
    def engine_factories(self) -> Dict[str, EngineFactory]:
        """The engine-kind registry in effect (benchmark registry unless
        custom factories were supplied)."""
        if self._factories is not None:
            return self._factories
        return _default_factories()

    def resolve_factory(self, engine: object) -> "tuple[str, EngineFactory]":
        """Resolve ``engine`` (a kind name or a callable factory) to a
        ``(kind_name, factory)`` pair."""
        if callable(engine) and not isinstance(engine, str):
            name = getattr(engine, "__name__", "custom")
            return name, engine
        factories = self.engine_factories()
        try:
            return str(engine), factories[engine]
        except KeyError:
            raise ValueError(
                f"unknown engine kind {engine!r}; "
                f"known: {sorted(factories)}") from None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def new(self, query: TemporalQuery, labels: Dict[int, object],
            engine: object = "tcm", *,
            query_id: Optional[str] = None,
            joined_seq: int = 0,
            edge_label_fn: Optional[Callable] = None,
            subscriber: Optional[Callable] = None,
            collect_results: bool = True) -> RegisteredQuery:
        """A fresh record for ``query``, not yet registered: the one id
        allocator.

        ``engine`` is an engine-kind name (``"tcm"``, ``"symbi"``, ...)
        or a factory callable.  ``joined_seq`` is the stream sequence
        number at registration time; the service routes an expiration to
        a query only if it also saw the arrival.  ``subscriber`` is an
        optional first callback; ``collect_results`` keeps a per-query
        :class:`StreamResult` for later inspection (switch off for
        long-running services that only need the counters).
        """
        if query_id is None:
            query_id = f"q{next(self._ids)}"
            while query_id in self._entries:  # skip explicit-name clashes
                query_id = f"q{next(self._ids)}"
        kind, factory = self.resolve_factory(engine)
        return RegisteredQuery(
            query_id=query_id,
            query=query,
            labels=dict(labels),
            engine_kind=kind,
            joined_seq=joined_seq,
            factory=factory,
            custom_factory=callable(engine) and not isinstance(engine, str),
            edge_label_fn=edge_label_fn,
            subscribers=[subscriber] if subscriber is not None else [],
            stats=QueryStats(query_id=query_id, engine=kind),
            result=StreamResult() if collect_results else None,
        )

    def adopt(self, entry: RegisteredQuery) -> RegisteredQuery:
        """Register ``entry`` — fresh, restored or shipped — and return
        it: the one way into the registry."""
        if entry.query_id in self._entries:
            raise ValueError(
                f"query id {entry.query_id!r} already registered")
        if entry.factory is None:
            entry.factory = self.resolve_factory(entry.engine_kind)[1]
        self._entries[entry.query_id] = entry
        # Custom factories stay un-indexed (always routed): a duck-typed
        # engine may not interpret the query's labels like the stock
        # engines, so pruning on their behalf would be unsound.
        self.interest.add(entry.query_id, entry.query, entry.labels,
                          entry.edge_label_fn,
                          indexable=not entry.custom_factory)
        self._entry_cache = None
        return entry

    def register(self, query: TemporalQuery, labels: Dict[int, object],
                 engine: object = "tcm", **options) -> RegisteredQuery:
        """:meth:`new` + :meth:`adopt`; ``options`` are :meth:`new`'s."""
        return self.adopt(self.new(query, labels, engine, **options))

    def unregister(self, query_id: str) -> RegisteredQuery:
        """Remove and return the entry; raises ``KeyError`` if absent."""
        try:
            entry = self._entries.pop(query_id)
        except KeyError:
            raise KeyError(f"no registered query {query_id!r}") from None
        self.interest.remove(query_id)
        self._entry_cache = None
        return entry

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, query_id: str) -> RegisteredQuery:
        """The entry for ``query_id``; raises ``KeyError`` if absent."""
        try:
            return self._entries[query_id]
        except KeyError:
            raise KeyError(f"no registered query {query_id!r}") from None

    def list(self) -> List[RegisteredQuery]:
        """All entries in registration order."""
        return list(self._entries.values())

    def entries(self) -> List[RegisteredQuery]:
        """Cached entry snapshot for the fan-out hot path.

        Callers must not mutate the returned list; its contents go
        stale only on register/unregister (status flips like
        a quarantine are visible through the shared entries, so
        hot-path callers re-check ``entry.active`` themselves).
        """
        if self._entry_cache is None:
            self._entry_cache = list(self._entries.values())
        return self._entry_cache

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[RegisteredQuery]:
        return iter(self._entries.values())
