"""Multi-query service scaling: throughput vs registered queries.

Beyond the paper's single-query evaluation, this benchmark measures the
deployment scenario of the `repro.service` subsystem: one shared stream
fanned out to a growing number of concurrently registered queries, for
TCM and the baselines.  Ideal scaling halves throughput when the query
count doubles; super-linear degradation exposes per-query overheads in
the fan-out path.

The second half is the *selectivity sweep*: N queries with a controlled
label-overlap fraction, routed (interest index, the default) versus
broadcast fan-out.  On low-overlap workloads — the multi-tenant regime
— routed ingest must stay ≥ 2x the broadcast rate; as the overlap
approaches 1 every query is interested in every event and the two modes
converge.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench import (
    MultiQueryConfig, ThroughputConfig, format_scaling,
    format_selectivity, multi_query_scaling, run_multi_query,
    selectivity_sweep,
)
from repro.bench.multi import dataset_workload

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

    # Routed vs broadcast on the widest fan-out cell: the random-walk
    # queries share much of the label space, so the interest index wins
    # little here — the selectivity sweep below is where the routing
    # regime lives.  Both modes must agree on what was matched.
    stream, graph = dataset_workload(config)
    wide = replace(config, num_queries=max(QUERY_COUNTS))
    routed_run = run_multi_query(wide, "tcm", stream=stream, graph=graph)
    broadcast_run = run_multi_query(replace(wide, routed=False), "tcm",
                                    stream=stream, graph=graph)
    assert routed_run.occurred == broadcast_run.occurred
    assert routed_run.expired == broadcast_run.expired

    table = (format_scaling(runs)
             + f"\n  routed vs broadcast (tcm, {wide.num_queries} "
             f"random-walk queries): {routed_run.throughput_eps:.0f} vs "
             f"{broadcast_run.throughput_eps:.0f} edges/s, "
             f"{routed_run.events_skipped} events interest-skipped "
             f"of {routed_run.events_routed + routed_run.events_skipped}"
             "\n  (see multi_query_selectivity.txt for the low-overlap "
             "workload where routing pays off)")
    write_result("multi_query_scaling.txt", table)


def test_selectivity_sweep_routed_vs_broadcast(write_result):
    reports = selectivity_sweep(
        ThroughputConfig(stream_edges=1000, repeats=3),
        num_queries=32, overlaps=OVERLAPS)

    for report in reports:
        modes = report["modes"]
        # measure_selectivity already asserts identical match output;
        # routing must also have pruned work on every partial overlap.
        if report["workload"]["overlap"] < 1.0:
            assert modes["routed"]["events_skipped"] > 0
    low_overlap = reports[1]
    assert low_overlap["workload"]["overlap"] == 0.25
    # The acceptance bar: ≥ 2x on the committed low-overlap workload.
    assert low_overlap["routed_speedup"] >= 2.0, low_overlap

    write_result("multi_query_selectivity.txt",
                 format_selectivity(reports))
