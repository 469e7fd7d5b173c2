"""Multi-query service scaling: throughput vs registered queries.

Beyond the paper's single-query evaluation, this benchmark measures the
deployment scenario of the `repro.service` subsystem: one shared stream
fanned out to a growing number of concurrently registered queries, for
TCM and the baselines.  Ideal scaling halves throughput when the query
count doubles; super-linear degradation exposes per-query overheads in
the fan-out path.

The second half is the *selectivity sweep*: N queries with a controlled
label-overlap fraction.  It reports, per overlap, the share of (event,
query) dispatches the interest index pruned and the ingest rate.  The
share is a property of the workload — exactly ``1 - fan-out / N`` with
the fan-out the workload's docstring derives — so it is asserted, not
just printed; as the overlap approaches 1 every query is interested in
every event and nothing is pruned.
"""

from __future__ import annotations

from repro.bench import (
    MultiQueryConfig, format_scaling, multi_query_scaling, run_multi_query,
)
from repro.datasets import GeneratedStream
from repro.workloads import make_selectivity_workload

QUERY_COUNTS = (1, 2, 4, 8)
ENGINES = ("tcm", "symbi", "timing")
OVERLAPS = (0.125, 0.25, 0.5, 1.0)


def test_multi_query_scaling(write_result):
    config = MultiQueryConfig(
        dataset="superuser",
        stream_edges=600,
        batch_size=100,
        query_sizes=(3, 4),
        density=0.5,
        window_fraction=0.3,
        seed=0,
    )
    runs = multi_query_scaling(ENGINES, QUERY_COUNTS, config)

    assert len(runs) == len(ENGINES) * len(QUERY_COUNTS)
    for run in runs:
        assert run.errored_queries == 0
        assert run.edges_ingested == config.stream_edges
        assert run.num_queries in QUERY_COUNTS
        assert run.throughput_eps > 0

    # Same stream, same workload prefix: a wider fan-out can only add
    # matches, never lose them.
    for engine in ENGINES:
        by_count = {r.num_queries: r for r in runs if r.engine == engine}
        counts = sorted(by_count)
        for small, large in zip(counts, counts[1:]):
            assert (by_count[large].occurred
                    >= by_count[small].occurred)

    # The random-walk queries share much of the label space, so the
    # interest index prunes less here than on the selectivity sweep
    # below.
    wide = next(r for r in runs if r.engine == "tcm"
                and r.num_queries == max(QUERY_COUNTS))
    dispatches = wide.events_routed + wide.events_skipped

    table = (format_scaling(runs)
             + f"\n  interest index (tcm, {wide.num_queries} random-walk "
             f"queries): {wide.events_skipped} of {dispatches} (event, "
             f"query) dispatches pruned "
             f"({wide.events_skipped / dispatches:.0%})"
             "\n  (see multi_query_selectivity.txt for workloads with "
             "a controlled label overlap)")
    write_result("multi_query_scaling.txt", table)


def test_selectivity_sweep(write_result):
    num_queries = 32
    config = MultiQueryConfig(
        dataset="selectivity", stream_edges=1000, num_queries=num_queries,
        batch_size=256, window_fraction=0.1, seed=0)
    lines = ["interest pruning by label-overlap fraction",
             "  " + f"{'overlap':<10}{'queries':>8}{'shared':>8}"
             f"{'routed':>10}{'skipped':>10}{'pruned':>8}{'edges/s':>10}"]
    for overlap in OVERLAPS:
        workload = make_selectivity_workload(
            num_queries=num_queries, overlap=overlap,
            stream_edges=config.stream_edges, seed=config.seed,
            group_vertices=24)
        run = run_multi_query(
            config, "tcm", queries=workload.queries,
            stream=GeneratedStream(labels=workload.labels,
                                   edges=workload.edges))
        assert run.errored_queries == 0
        assert run.num_queries == num_queries
        # Arrival and expiration of every edge, offered to every query.
        dispatches = 2 * config.stream_edges * num_queries
        assert run.events_routed + run.events_skipped == dispatches
        # An edge of the shared group interests the shared queries, any
        # other edge exactly one query.
        shared = workload.shared_queries
        in_shared = sum(1 for e in workload.edges
                        if workload.labels[e.u] < 3)
        assert run.events_routed == 2 * (
            in_shared * shared + (len(workload.edges) - in_shared))
        lines.append(
            "  " + f"{overlap:<10}{num_queries:>8}{shared:>8}"
            f"{run.events_routed:>10}{run.events_skipped:>10}"
            f"{run.events_skipped / dispatches:>8.1%}"
            f"{run.throughput_eps:>10.0f}")
    write_result("multi_query_selectivity.txt", "\n".join(lines))
