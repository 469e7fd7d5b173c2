"""Table III: characteristics of the generated dataset stand-ins.

Checks that the generators reproduce the paper's relative shapes:
Netflow's single label and extreme multiplicity, Wiki-talk's large label
alphabet, LSBench's sparsity and lack of parallel edges, Yahoo's
density.
"""

import pytest

from repro.bench import dataset_table, format_table3


def test_table3_regenerate(benchmark, write_result):
    rows = benchmark.pedantic(lambda: dataset_table(stream_edges=3000),
                              rounds=1, iterations=1)
    write_result("table3_datasets.txt", format_table3(rows))

    by_name = {r["dataset"]: r for r in rows}
    assert by_name["netflow"]["num_labels"] == 1
    assert by_name["netflow"]["avg_multiplicity"] == max(
        r["avg_multiplicity"] for r in rows)
    assert by_name["lsbench"]["avg_multiplicity"] == pytest.approx(
        1.0, abs=0.1)
    assert by_name["lsbench"]["avg_degree"] == min(
        r["avg_degree"] for r in rows)
    assert by_name["wikitalk"]["num_labels"] > 50
    assert (by_name["yahoo"]["avg_degree"]
            > by_name["superuser"]["avg_degree"])
