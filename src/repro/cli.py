"""Command-line interface: run experiments without writing code.

Usage::

    python -m repro.cli table3
    python -m repro.cli fig7 --datasets yahoo superuser --sizes 4 5 6
    python -m repro.cli fig8 --densities 0 0.5 1
    python -m repro.cli fig9 --fractions 0.1 0.3 0.5
    python -m repro.cli fig10
    python -m repro.cli fig11
    python -m repro.cli table5
    python -m repro.cli multi --queries 8 --batch-size 100
    python -m repro.cli multi --queries 8 --workers 4
    python -m repro.cli multi --scaling 4 8 16 --workers 1 2 4

The figure/table subcommands regenerate the corresponding evaluation
artifact of the paper's Section VI at the configured scale and print
the rendered rows/series.  ``multi`` instead drives the multi-query
matching service: it registers N mixed-size queries over one generated
stream, ingests the stream in batches, and prints the per-query and
service-level counters (optionally saving a JSON checkpoint of the
final service state).  ``--workers 1`` (default) hosts everything in
the in-process :class:`~repro.service.MatchService`; ``--workers K``
shards the queries across K worker processes via
:class:`~repro.cluster.ShardedMatchService`; with ``--scaling``,
multiple ``--workers`` values sweep the worker count.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench import (
    ExperimentConfig, MultiQueryConfig, ablation_sweep, dataset_table,
    density_sweep, engine_names, filtering_power_table, format_cells,
    format_multi_run, format_scaling, format_table3, format_table5,
    memory_sweep, multi_query_scaling, query_size_sweep, run_multi_query,
    window_sweep,
)
from repro.datasets import dataset_names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Regenerate the paper's evaluation artifacts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--datasets", nargs="+",
                       default=["superuser", "yahoo", "lsbench"],
                       help="dataset stand-ins to run on")
        p.add_argument("--stream-edges", type=int, default=1000,
                       help="edges per generated stream")
        p.add_argument("--queries", type=int, default=3,
                       help="queries per cell")
        p.add_argument("--time-limit", type=float, default=5.0,
                       help="per-query time limit in seconds")
        p.add_argument("--engines", nargs="+", default=None,
                       help=f"engines (default: all of {engine_names()})")
        p.add_argument("--seed", type=int, default=0)

    p7 = sub.add_parser("fig7", help="time/#solved vs query size")
    add_common(p7)
    p7.add_argument("--sizes", nargs="+", type=int, default=[4, 5, 6])

    p8 = sub.add_parser("fig8", help="time/#solved vs order density")
    add_common(p8)
    p8.add_argument("--densities", nargs="+", type=float,
                    default=[0.0, 0.5, 1.0])

    p9 = sub.add_parser("fig9", help="time/#solved vs window size")
    add_common(p9)
    p9.add_argument("--fractions", nargs="+", type=float,
                    default=[0.1, 0.3, 0.5])

    p10 = sub.add_parser("fig10", help="peak memory vs query size")
    add_common(p10)
    p10.add_argument("--sizes", nargs="+", type=int, default=[3, 4, 5, 6])

    p11 = sub.add_parser("fig11", help="ablation study")
    add_common(p11)
    p11.add_argument("--sizes", nargs="+", type=int, default=[4, 5, 6])

    p5 = sub.add_parser("table5", help="filtering power ratios")
    add_common(p5)
    p5.add_argument("--sizes", nargs="+", type=int, default=[3, 4, 5, 6])

    p3 = sub.add_parser("table3", help="dataset characteristics")
    p3.add_argument("--stream-edges", type=int, default=3000)
    p3.add_argument("--seed", type=int, default=0)

    pm = sub.add_parser(
        "multi", help="drive the multi-query matching service")
    pm.add_argument("--dataset", default="superuser",
                    choices=dataset_names(),
                    help="dataset stand-in generating the shared stream")
    pm.add_argument("--stream-edges", type=int, default=1000,
                    help="edges in the generated stream")
    pm.add_argument("--queries", type=int, default=4,
                    help="number of concurrently registered queries")
    pm.add_argument("--batch-size", type=int, default=100,
                    help="edges per ingest batch")
    pm.add_argument("--engine", default="tcm", choices=engine_names(),
                    help="engine kind for every query")
    pm.add_argument("--query-sizes", nargs="+", type=int,
                    default=[3, 4, 5],
                    help="query sizes cycled over the registrations")
    pm.add_argument("--density", type=float, default=0.5,
                    help="temporal-order density of generated queries")
    pm.add_argument("--window-fraction", type=float, default=0.3,
                    help="window size as a fraction of the stream")
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--workers", nargs="+", type=int, default=[1],
                    metavar="N",
                    help="shard worker processes (default 1 = the "
                         "in-process service; >1 = the sharded "
                         "multi-process service); with --scaling, "
                         "multiple values sweep the worker count")
    pm.add_argument("--migrate-at", type=int, default=0, metavar="N",
                    help="with --workers >1: live-migrate the first "
                         "registered query to another shard after N "
                         "batches (0 = never); merged output is "
                         "unchanged by construction")
    pm.add_argument("--rebalance-every", type=int, default=0,
                    metavar="N",
                    help="with --workers >1: rebalance query placement "
                         "every N batches, migrating queries off "
                         "event-hot shards (0 = never)")
    pm.add_argument("--scaling", nargs="+", type=int, default=None,
                    metavar="N",
                    help="instead of one run, sweep these query counts "
                         "and print throughput vs fan-out width")
    pm.add_argument("--checkpoint", default=None, metavar="PATH",
                    help="save a JSON checkpoint of the final service "
                         "state to PATH")
    pm.add_argument("--metrics", action="store_true",
                    help="attach the repro.obs metrics registry to the "
                         "service (and every shard worker): print a "
                         "live per-query/per-shard table while the "
                         "stream ingests, then write metrics.json and "
                         "metrics.prom artifacts")
    pm.add_argument("--metrics-dir", default=".", metavar="DIR",
                    help="where the --metrics/--trace artifacts are "
                         "written (default: current directory)")
    pm.add_argument("--trace", action="store_true",
                    help="trace the run: every batch becomes a span "
                         "tree (coordinator stages + per-shard worker "
                         "spans when --workers >1); writes a Chrome "
                         "trace_event JSON (load at ui.perfetto.dev) "
                         "and a slow-batch JSONL log to --metrics-dir")
    pm.add_argument("--slow-ms", type=float, default=250.0,
                    metavar="MS",
                    help="with --trace, batches slower than this land "
                         "in slow_batches.jsonl with their span tree "
                         "inline (default 250)")
    pm.add_argument("--admin-port", type=int, default=None, metavar="N",
                    help="serve the live admin endpoint on "
                         "127.0.0.1:N while the stream ingests "
                         "(/metrics /healthz /varz /tracez; 0 binds "
                         "an ephemeral port)")
    return parser


def _live_metrics_table(ticks: int = 5):
    """A ``run_multi_query`` progress callback printing a per-query
    (and, when sharded, per-shard) table roughly ``ticks`` times over
    the stream."""
    state = {"tick": -1}

    def progress(service, done: int, total: int) -> None:
        tick = done * ticks // max(total, 1)
        if tick == state["tick"] and done != total:
            return
        state["tick"] = tick
        sharded = hasattr(service, "num_workers")
        stats = service.stats
        line = (f"[{100 * done // max(total, 1):>3}%] {done}/{total} "
                f"edges, {stats.events_routed} routed / "
                f"{stats.events_skipped} skipped")
        if sharded:
            line += f" / {service.events_unshipped} unshipped"
        print(line)
        for s in service.all_query_stats():
            print(f"  {s.query_id:<8}{s.engine:<12}"
                  f"{s.events_processed:>8} ev{s.matches:>8} m"
                  f"{s.elapsed_seconds * 1000.0:>9.1f} ms")
        if sharded:
            for shard in range(service.num_workers):
                print(f"  shard {shard}: "
                      f"{service.shard_shipped[shard]} shipped, "
                      f"{service.shard_unshipped[shard]} unshipped, "
                      f"{service.shard_routed[shard]} routed, "
                      f"{service.shard_skipped[shard]} skipped")

    return progress


def _run_multi_single(args, mconfig) -> int:
    """The ``multi`` subcommand's single-run path: one service
    lifetime, optionally metered (``--metrics``), traced (``--trace``)
    and scraped live (``--admin-port``)."""
    import json
    import os

    tracer = server = None
    if args.trace:
        from repro.obs import SlowLog, Tracer
        os.makedirs(args.metrics_dir, exist_ok=True)
        slowlog = SlowLog(
            args.slow_ms / 1000.0,
            path=os.path.join(args.metrics_dir, "slow_batches.jsonl"))
        tracer = Tracer(max_finished=50_000, slowlog=slowlog)
    if args.admin_port is not None:
        from repro.obs.server import AdminServer
        server = AdminServer(tracer=tracer, port=args.admin_port)
    table = _live_metrics_table() if args.metrics else None

    def progress(service, done: int, total: int) -> None:
        if table is not None:
            table(service, done, total)
        if server is not None and service.metrics is not None:
            # The admin thread never talks to the workers itself; the
            # ingest loop publishes a merged snapshot between batches
            # for /metrics to serve.
            server.publish(service.metrics_snapshot()
                           if hasattr(service, "metrics_snapshot")
                           else service.metrics.snapshot())

    def on_service(service) -> None:
        server.registry = getattr(service, "metrics", None)
        server.health = service.health
        if hasattr(service, "placement_snapshot"):
            # Sharded runs expose the live placement map and migration
            # state on /varz (both read only coordinator-side mirrors,
            # so the admin thread can serve them mid-ingest).
            server.varz = lambda: {
                "placement": service.placement_snapshot(),
                "migrations": service.migration_state()}
        port = server.start()
        print(f"admin endpoint at http://127.0.0.1:{port}/")

    try:
        run = run_multi_query(
            mconfig, args.engine,
            checkpoint_path=args.checkpoint,
            progress=(progress if table is not None or server is not None
                      else None),
            tracer=tracer,
            on_service=on_service if server is not None else None)
    finally:
        if server is not None:
            server.stop()
    print(format_multi_run(run))
    if args.metrics:
        for path in _write_metrics(run.metrics, args.metrics_dir):
            print(f"wrote {path}")
    if tracer is not None:
        trace_path = os.path.join(args.metrics_dir, "trace.json")
        with open(trace_path, "w") as handle:
            json.dump(tracer.chrome_trace(), handle)
            handle.write("\n")
        slow = tracer.slowlog.total
        print(f"wrote {trace_path} ({len(tracer.finished)} spans, "
              f"{tracer.dropped} dropped, {slow} slow batches over "
              f"{args.slow_ms:g} ms)")
    if args.checkpoint:
        print(f"checkpoint saved to {args.checkpoint}")
    return 0


def _write_metrics(snapshot, out_dir: str) -> List[str]:
    """Write a metrics snapshot as ``metrics.json`` (host metadata +
    metric families) and ``metrics.prom`` (Prometheus text exposition);
    returns the written paths."""
    import json
    import os

    from repro.obs import host_metadata, render_prometheus

    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "metrics.json")
    with open(json_path, "w") as handle:
        json.dump({"host": host_metadata(), "metrics": snapshot},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    prom_path = os.path.join(out_dir, "metrics.prom")
    with open(prom_path, "w") as handle:
        handle.write(render_prometheus(snapshot))
    return [json_path, prom_path]


def _config(args) -> ExperimentConfig:
    return ExperimentConfig(
        datasets=tuple(args.datasets),
        stream_edges=args.stream_edges,
        queries_per_cell=args.queries,
        time_limit=args.time_limit,
        seed=args.seed,
    )


def _engines(args) -> List[str]:
    return list(args.engines) if args.engines else engine_names()


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command

    if command == "table3":
        print(format_table3(dataset_table(args.stream_edges, args.seed)))
        return 0

    if command == "multi":
        if any(w < 1 for w in args.workers):
            print("error: --workers values must be >= 1", file=sys.stderr)
            return 2
        if len(args.workers) > 1 and not args.scaling:
            print("error: multiple --workers values need --scaling "
                  "(a single run uses exactly one worker count)",
                  file=sys.stderr)
            return 2
        mconfig = MultiQueryConfig(
            dataset=args.dataset,
            stream_edges=args.stream_edges,
            num_queries=args.queries,
            batch_size=args.batch_size,
            query_sizes=tuple(args.query_sizes),
            density=args.density,
            window_fraction=args.window_fraction,
            seed=args.seed,
            workers=args.workers[0],
            metrics=args.metrics,
            migrate_at=args.migrate_at,
            rebalance_every=args.rebalance_every,
        )
        if ((args.migrate_at or args.rebalance_every)
                and args.workers[0] < 2):
            print("error: --migrate-at/--rebalance-every need "
                  "--workers >1 (there is nowhere to migrate to)",
                  file=sys.stderr)
            return 2
        try:
            if args.scaling:
                if args.checkpoint:
                    print("error: --checkpoint applies to a single run, "
                          "not a --scaling sweep", file=sys.stderr)
                    return 2
                if args.metrics:
                    print("error: --metrics applies to a single run, "
                          "not a --scaling sweep (the live table and "
                          "artifacts describe one service lifetime)",
                          file=sys.stderr)
                    return 2
                if args.trace or args.admin_port is not None:
                    print("error: --trace/--admin-port apply to a "
                          "single run, not a --scaling sweep",
                          file=sys.stderr)
                    return 2
                runs = multi_query_scaling([args.engine], args.scaling,
                                           mconfig,
                                           worker_counts=args.workers)
                print(format_scaling(runs))
            else:
                return _run_multi_single(args, mconfig)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    config = _config(args)
    if command == "fig7":
        cells = query_size_sweep(_engines(args), config, tuple(args.sizes))
        print(format_cells(cells, "Figure 7a: elapsed vs query size",
                           "elapsed"))
        print()
        print(format_cells(cells, "Figure 7b: solved vs query size",
                           "solved"))
    elif command == "fig8":
        cells = density_sweep(_engines(args), config,
                              tuple(args.densities))
        print(format_cells(cells, "Figure 8a: elapsed vs density",
                           "elapsed"))
        print()
        print(format_cells(cells, "Figure 8b: solved vs density",
                           "solved"))
    elif command == "fig9":
        cells = window_sweep(_engines(args), config,
                             tuple(args.fractions))
        print(format_cells(cells, "Figure 9a: elapsed vs window",
                           "elapsed"))
        print()
        print(format_cells(cells, "Figure 9b: solved vs window", "solved"))
    elif command == "fig10":
        cells = memory_sweep(("tcm", "timing"), config, tuple(args.sizes))
        print(format_cells(cells, "Figure 10: peak structure entries",
                           "memory"))
    elif command == "fig11":
        cells = ablation_sweep(config, tuple(args.sizes))
        print(format_cells(cells, "Figure 11a: ablation elapsed",
                           "elapsed"))
        print()
        print(format_cells(cells, "Figure 11b: ablation solved", "solved"))
    elif command == "table5":
        rows = filtering_power_table(config, tuple(args.sizes))
        print(format_table5(rows))
    else:  # pragma: no cover - argparse guards this
        raise AssertionError(command)
    return 0


if __name__ == "__main__":
    sys.exit(main())
