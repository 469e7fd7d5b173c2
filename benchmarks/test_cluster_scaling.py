"""Sharded service scaling: throughput vs worker process count.

The cluster answers the paper's "parallelizing our approach" future
work for the service deployment model: one shared stream, a mixed
8-query workload, and a growing number of shard worker processes.

The coordinator splits each batch by shard interest, ships the packed
binary frames of ``repro.cluster.wire`` and skips uninterested shards
entirely, so the per-worker cost does not grow with the worker count.
``w=1`` is the in-process ``MatchService``: the gap to ``w=2`` on a
single core is what the wire, the pipes and the merge cost.  On
multi-core hardware shards scale with cores, which is why the rendered
table records the core count it ran on.

Correctness is asserted unconditionally: every worker count must
produce the same total occurrence/expiration counts — sharding may
never change what is matched.
"""

from __future__ import annotations

import os

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
    runs = multi_query_scaling(("tcm",), QUERY_COUNTS, config,
                               worker_counts=WORKER_COUNTS)

    baseline = next(r for r in runs if r.workers == 1)
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
    table = (format_scaling(runs)
             + f"\n  ({cores} CPU core(s) available; speedup over w=1 "
             f"requires >= 2 cores)")
    write_result("cluster_scaling.txt", table)
