"""Sharded service scaling: throughput vs worker process count.

The cluster answers the paper's "parallelizing our approach" future
work for the service deployment model: one shared stream, a mixed
8-query workload, and a growing number of shard worker processes.

The sweep runs both wire/routing modes.  *Broadcast* (the PR-2 design)
pickles every batch once per worker, so on a single-core container it
measures pure coordination overhead — the table this benchmark
committed before interest routing existed documented exactly that.
*Routed* (the default) splits each batch by shard interest, ships the
packed binary frames of ``repro.cluster.wire`` instead of pickle, and
skips uninterested shards entirely, so the per-worker cost no longer
grows with the worker count.  On multi-core hardware routed shards
scale with cores; on a single-core container the routed rows quantify
how much of the broadcast overhead the routing fabric removed, which is
why the rendered table records the core count it ran on.

Correctness is asserted unconditionally: every worker count, in every
mode, must produce the same total occurrence/expiration counts —
sharding may never change what is matched.
"""

from __future__ import annotations

import os
from dataclasses import replace

from repro.bench import (
    MultiQueryConfig, format_scaling, multi_query_scaling,
)

WORKER_COUNTS = (1, 2, 4)
QUERY_COUNTS = (8,)


def test_cluster_scaling(write_result):
    config = MultiQueryConfig(
        dataset="superuser",
        stream_edges=600,
        batch_size=150,
        query_sizes=(3, 4, 5),
        density=0.5,
        window_fraction=0.3,
        seed=0,
    )
    routed_runs = multi_query_scaling(("tcm",), QUERY_COUNTS, config,
                                      worker_counts=WORKER_COUNTS)
    broadcast_runs = multi_query_scaling(
        ("tcm",), QUERY_COUNTS, replace(config, routed=False),
        worker_counts=WORKER_COUNTS)

    baseline = next(r for r in routed_runs if r.workers == 1)
    for runs in (routed_runs, broadcast_runs):
        assert len(runs) == len(WORKER_COUNTS) * len(QUERY_COUNTS)
        assert {r.workers for r in runs} == set(WORKER_COUNTS)
        for run in runs:
            assert run.errored_queries == 0
            assert run.edges_ingested == config.stream_edges
            assert run.throughput_eps > 0
            # Sharding/routing must not change what is matched.
            assert run.occurred == baseline.occurred
            assert run.expired == baseline.expired

    cores = os.cpu_count() or 1
    sections = []
    for label, runs in (("routed + binary wire (default)", routed_runs),
                        ("broadcast + pickle fan-out (routed=False)",
                         broadcast_runs)):
        sections.append(f"[{label}]\n" + format_scaling(runs))
    table = (
        "\n\n".join(sections)
        + f"\n  ({cores} CPU core(s) available; speedup over w=1 "
        f"requires >= 2 cores)"
        + "\n  note: the pre-routing committed table showed w=2/w=4 "
        "*slower* than w=1 — every batch was pickled to every worker, "
        "so adding workers only added serialization.  With interest "
        "routing + binary frames each worker now receives just its "
        "shard's slice, so the single-core penalty shrinks and "
        "multi-core runs can scale.")
    write_result("cluster_scaling.txt", table)
