"""Multi-query service harness: single runs and scaling sweeps.

The single-query benchmarks (:mod:`repro.bench.runner`) answer "how fast
is one engine on one query"; this module answers the deployment
question: how does throughput degrade as a service hosts more and more
concurrent queries over the same stream?  ``run_multi_query`` drives one
:class:`~repro.service.MatchService` over one generated stream in
batches; ``multi_query_scaling`` sweeps the number of registered queries
per engine kind.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.datasets import DATASET_SPECS, generate_stream
from repro.graph.temporal_graph import TemporalGraph
from repro.query.temporal_query import TemporalQuery
from repro.service import MatchService, QueryStats, save_checkpoint
from repro.workloads import make_mixed_query_set


@dataclass
class MultiQueryConfig:
    """Scale knobs for one multi-query service run.

    ``workers=1`` (the default) drives the in-process
    :class:`~repro.service.MatchService`; ``workers>1`` drives the
    sharded multi-process :class:`~repro.cluster.ShardedMatchService`
    with that many worker processes.
    """

    dataset: str = "superuser"
    stream_edges: int = 1000
    num_queries: int = 4
    batch_size: int = 100
    query_sizes: Sequence[int] = (3, 4, 5)
    density: float = 0.5
    window_fraction: float = 0.3
    seed: int = 0
    workers: int = 1
    #: Attach a :class:`~repro.obs.MetricsRegistry` to the service (and,
    #: when sharded, to every worker).  The run's merged snapshot lands
    #: in :attr:`MultiQueryRun.metrics`.  Off by default: the
    #: uninstrumented hot path is the benchmarked artifact.
    metrics: bool = False
    #: Sharded runs only: live-migrate the first registered query to the
    #: least-loaded other shard after this many batches (0 = never).
    #: Exercises the migration path under load; merged output is
    #: unchanged by construction.
    migrate_at: int = 0
    #: Sharded runs only: call ``service.rebalance()`` every N batches
    #: (0 = never), letting per-shard load skew drive live migrations
    #: mid-run.
    rebalance_every: int = 0

    @property
    def delta(self) -> int:
        return max(2, int(self.stream_edges * self.window_fraction))


@dataclass
class MultiQueryRun:
    """Outcome of one service run: totals plus per-query counters."""

    dataset: str
    engine: str
    num_queries: int          # actually registered (see requested_queries)
    requested_queries: int
    batch_size: int
    edges_ingested: int
    batches: int
    elapsed_seconds: float
    throughput_eps: float
    occurred: int
    expired: int
    errored_queries: int
    workers: int = 1
    events_routed: int = 0
    events_skipped: int = 0
    per_query: List[QueryStats] = field(default_factory=list)
    #: (event, shard) shipments the cluster router elided entirely
    #: (always 0 for the in-process service).
    events_unshipped: int = 0
    #: Per-shard routing breakdown (sharded runs only): one dict per
    #: shard with ``shard``/``shipped``/``unshipped``/``routed``/
    #: ``skipped`` keys, in shard order.
    per_shard: List[Dict[str, int]] = field(default_factory=list)
    #: Merged metrics snapshot (see :mod:`repro.obs`) when the run was
    #: configured with ``metrics=True``; ``None`` otherwise.
    metrics: Optional[Dict[str, object]] = None
    #: Final live placement map (sharded runs only; see
    #: ``ShardedMatchService.placement_snapshot``).
    placement: Optional[Dict[str, object]] = None
    #: Migration state at the end of the run (sharded runs only; see
    #: ``ShardedMatchService.migration_state``).
    migrations: Optional[Dict[str, object]] = None


def dataset_workload(config: MultiQueryConfig) -> Tuple[object,
                                                        TemporalGraph]:
    """The generated stream for ``config`` plus its full data graph
    (the query workload is random-walked on the latter)."""
    stream = generate_stream(DATASET_SPECS[config.dataset],
                             config.stream_edges, seed=config.seed)
    graph = TemporalGraph(labels=stream.labels, directed=stream.directed)
    elabels = stream.edge_labels or {}
    for e in stream.edges:
        graph.insert_edge(e, label=elabels.get(e))
    return stream, graph


def build_service(config: MultiQueryConfig, engine: str = "tcm",
                  stream=None, graph: Optional[TemporalGraph] = None,
                  tracer=None,
                  queries: Optional[Sequence[TemporalQuery]] = None):
    """Generate the stream and a registered service for ``config``.

    Returns ``(service, stream)``; all ``config.num_queries`` queries
    are registered up front with mixed sizes and engine kind
    ``engine``.  Separated from :func:`run_multi_query` so callers (the
    CLI's checkpoint demo, tests) can drive ingestion themselves.
    ``stream``/``graph`` optionally reuse an already-generated workload
    (the scaling sweep replays one stream across every cell);
    ``queries`` registers exactly these over ``stream`` instead of
    random-walking a set on ``graph`` (the selectivity sweep controls
    its queries' label overlap).
    ``tracer`` attaches a :class:`~repro.obs.Tracer`.

    With ``config.workers > 1`` the returned service is a
    :class:`~repro.cluster.ShardedMatchService`; the caller owns its
    worker processes (``service.close()``, or let
    :func:`run_multi_query` manage the lifecycle).
    """
    if queries is None:
        if stream is None or graph is None:
            stream, graph = dataset_workload(config)
        queries = [instance.query for instance in make_mixed_query_set(
            graph, config.num_queries, sizes=tuple(config.query_sizes),
            density=config.density, seed=config.seed)]
        if len(queries) < config.num_queries:
            print(f"warning: only {len(queries)} of {config.num_queries} "
                  f"requested queries could be generated on "
                  f"{config.dataset!r} (random walks kept failing)",
                  file=sys.stderr)
    registry = None
    if config.metrics:
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
    if config.workers > 1:
        from repro.cluster import ShardedMatchService
        service = ShardedMatchService(
            config.delta, workers=config.workers, metrics=registry,
            tracer=tracer)
    else:
        service = MatchService(config.delta, metrics=registry,
                               tracer=tracer)
    for query in queries:
        service.register(query, stream.labels, engine,
                         edge_label_fn=stream.edge_label_fn(),
                         collect_results=False)
    return service, stream


def run_multi_query(config: Optional[MultiQueryConfig] = None,
                    engine: str = "tcm",
                    checkpoint_path: Optional[str] = None,
                    stream=None,
                    graph: Optional[TemporalGraph] = None,
                    progress: Optional[Callable] = None,
                    tracer=None,
                    on_service: Optional[Callable] = None,
                    queries: Optional[Sequence[TemporalQuery]] = None
                    ) -> MultiQueryRun:
    """Drive a freshly built service over its stream in batches.

    ``checkpoint_path`` optionally saves a JSON snapshot of the final
    service state (after the stream is drained).  ``stream``/``graph``
    /``queries`` reuse a pre-made workload (see :func:`build_service`).
    ``progress`` is called after every ingested batch as
    ``progress(service, edges_done, edges_total)`` — the CLI's
    ``--metrics`` live table hangs off it; note it runs inside the
    timed region, so leave it ``None`` for throughput measurements.
    ``tracer`` attaches a :class:`~repro.obs.Tracer` to the service;
    ``on_service`` is called once with the freshly built service before
    ingestion starts (the CLI wires the admin endpoint here).
    """
    config = config or MultiQueryConfig()
    service, stream = build_service(config, engine, stream, graph,
                                    tracer=tracer, queries=queries)
    sharded = config.workers > 1
    try:
        if on_service is not None:
            on_service(service)
        if checkpoint_path is not None and stream.edge_labels is not None:
            # The per-run edge-label dict lives only in this process; a
            # checkpoint of these queries could never be restored (restore
            # requires a replacement edge_label_fn).  Fail before running.
            raise ValueError(
                f"dataset {config.dataset!r} attaches per-edge labels, "
                f"whose in-memory mapping a JSON checkpoint cannot "
                f"persist; --checkpoint is only supported for "
                f"vertex-labeled datasets")
        edges = stream.edges
        step = max(1, config.batch_size)
        batch_no = 0
        for lo in range(0, len(edges), step):
            # process_batch feeds each engine the chunk's whole event
            # list through one on_batch call (same output as ingest,
            # the filter maintenance deduped across the chunk); the
            # sharded service routes it to its workers' batch path.
            service.process_batch(edges[lo:lo + step])
            batch_no += 1
            if sharded:
                if config.migrate_at and batch_no == config.migrate_at:
                    from repro.cluster import MigrationError
                    ids = service.registered_ids()
                    if ids:
                        try:
                            service.migrate(ids[0], reason="bench")
                        except MigrationError:
                            pass  # single live shard: nothing to do
                if (config.rebalance_every
                        and batch_no % config.rebalance_every == 0):
                    service.rebalance()
            if progress is not None:
                progress(service, min(lo + step, len(edges)), len(edges))
        service.drain()
        if checkpoint_path is not None:
            save_checkpoint(service, checkpoint_path)
        per_query = service.all_query_stats()
        per_shard: List[Dict[str, int]] = []
        if sharded:
            per_shard = [
                {"shard": shard,
                 "shipped": service.shard_shipped[shard],
                 "unshipped": service.shard_unshipped[shard],
                 "routed": service.shard_routed[shard],
                 "skipped": service.shard_skipped[shard]}
                for shard in range(service.num_workers)]
        snapshot = None
        if config.metrics:
            # Workers ship their registries on STATS; grab the merged
            # snapshot before close() reaps them.
            snapshot = (service.metrics_snapshot() if sharded
                        else service.metrics.snapshot())
        return MultiQueryRun(
            dataset=config.dataset,
            engine=engine,
            num_queries=len(per_query),
            requested_queries=config.num_queries,
            batch_size=step,
            edges_ingested=service.stats.edges_ingested,
            batches=service.stats.batches,
            elapsed_seconds=service.stats.elapsed_seconds,
            throughput_eps=service.stats.throughput_eps,
            occurred=sum(s.occurred for s in per_query),
            expired=sum(s.expired for s in per_query),
            errored_queries=service.stats.errored_queries,
            workers=config.workers,
            events_routed=service.stats.events_routed,
            events_skipped=service.stats.events_skipped,
            per_query=per_query,
            events_unshipped=getattr(service, "events_unshipped", 0),
            per_shard=per_shard,
            metrics=snapshot,
            placement=(service.placement_snapshot() if sharded
                       else None),
            migrations=(service.migration_state() if sharded
                        else None),
        )
    finally:
        if sharded:
            service.close()


def multi_query_scaling(engines: Sequence[str],
                        query_counts: Sequence[int],
                        config: Optional[MultiQueryConfig] = None,
                        worker_counts: Optional[Sequence[int]] = None
                        ) -> List[MultiQueryRun]:
    """Throughput vs number of registered queries, per engine kind.

    Every run replays the same stream with the same query workload
    prefix, so the only varying factor is the fan-out width — and,
    when ``worker_counts`` sweeps more than one value, the number of
    shard worker processes hosting it.
    """
    base = config or MultiQueryConfig()
    worker_counts = tuple(worker_counts) if worker_counts else (
        base.workers,)
    # One stream and data graph serve every cell: generation is outside
    # the timed ingest region, so rebuilding it per cell only wastes
    # sweep wall-clock.
    stream, graph = dataset_workload(base)
    runs: List[MultiQueryRun] = []
    for engine in engines:
        for workers in worker_counts:
            for count in query_counts:
                runs.append(run_multi_query(
                    replace(base, num_queries=count, workers=workers),
                    engine, stream=stream, graph=graph))
    return runs


def format_multi_run(run: MultiQueryRun) -> str:
    """Render one run as the service summary table the CLI prints."""
    workers = f" workers={run.workers}" if run.workers > 1 else ""
    unshipped = (f" / {run.events_unshipped} unshipped"
                 if run.workers > 1 else "")
    lines = [
        f"service run: dataset={run.dataset} engine={run.engine} "
        f"queries={run.num_queries} batch={run.batch_size}{workers}",
        f"  {run.edges_ingested} edges in {run.batches} batches, "
        f"{run.elapsed_seconds * 1000.0:.1f} ms "
        f"({run.throughput_eps:.0f} edges/s), "
        f"{run.occurred} occurrences / {run.expired} expirations, "
        f"{run.events_routed} events routed / "
        f"{run.events_skipped} skipped{unshipped}, "
        f"{run.errored_queries} errored",
        f"  {'query':<8}{'engine':<12}{'events':>8}{'skip':>8}"
        f"{'batches':>8}{'occ':>7}{'exp':>7}{'ms':>9}{'peak':>7}",
    ]
    for s in run.per_query:
        lines.append(
            f"  {s.query_id:<8}{s.engine:<12}{s.events_processed:>8}"
            f"{s.events_skipped:>8}"
            f"{s.batches_processed:>8}{s.occurred:>7}{s.expired:>7}"
            f"{s.elapsed_seconds * 1000.0:>9.1f}"
            f"{s.peak_structure_entries:>7}")
    if run.per_shard:
        lines.append(
            f"  {'shard':<8}{'shipped':>9}{'unshipped':>11}"
            f"{'routed':>9}{'skipped':>9}")
        for row in run.per_shard:
            lines.append(
                f"  {row['shard']:<8}{row['shipped']:>9}"
                f"{row['unshipped']:>11}{row['routed']:>9}"
                f"{row['skipped']:>9}")
    if run.placement is not None:
        counts = {shard: len(state["queries"])
                  for shard, state in run.placement["shards"].items()}
        assignment = " ".join(f"{shard}:{count}"
                              for shard, count in sorted(counts.items()))
        lines.append(f"  placement ({run.placement['policy']}): "
                     f"{assignment}")
    if run.migrations and run.migrations.get("completed"):
        lines.append(f"  migrations: {run.migrations['completed']} "
                     f"completed")
        for m in run.migrations["history"]:
            lines.append(
                f"    {m['query_id']}: shard {m['source']} -> "
                f"{m['target']} ({m['reason']}, "
                f"window={m['window_edges']}, tail={m['tail_events']})")
    return "\n".join(lines)


def format_scaling(runs: Sequence[MultiQueryRun]) -> str:
    """Render a scaling sweep as a throughput table.

    Rows are engines (split per worker count when the sweep varied it);
    columns key on the *requested* query count so that two cells whose
    generation fell short of different targets cannot collapse into
    one.
    """
    counts = sorted({r.requested_queries for r in runs})
    multi_worker = len({r.workers for r in runs}) > 1
    by_key: Dict[object, MultiQueryRun] = {
        (r.engine, r.workers, r.requested_queries): r for r in runs}
    rows = list(dict.fromkeys((r.engine, r.workers) for r in runs))
    header = "edges/s by #queries"
    lines = [header,
             "  " + f"{'engine':<16}"
             + "".join(f"{c:>10}" for c in counts)]
    for engine, workers in rows:
        label = f"{engine} w={workers}" if multi_worker else engine
        cells = []
        for c in counts:
            run = by_key.get((engine, workers, c))
            cells.append(f"{run.throughput_eps:>10.0f}" if run else
                         f"{'-':>10}")
        lines.append("  " + f"{label:<16}" + "".join(cells))
    return "\n".join(lines)
