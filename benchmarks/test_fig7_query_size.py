"""Figure 7: query processing time and #solved queries vs query size.

Paper shape to reproduce: TCM is fastest and solves the most queries on
every dataset, with the gap to SymBi/RapidFlow/Timing widening as the
query size grows.
"""

import pytest

from repro.bench import engine_names, format_cells, query_size_sweep

SIZES = (4, 5, 6)


def test_fig7_regenerate(benchmark, quick_config, write_result):
    """Regenerates both panels of Figure 7 (elapsed time + solved)."""
    cells = benchmark.pedantic(
        lambda: query_size_sweep(engine_names(), quick_config, SIZES),
        rounds=1, iterations=1)
    text = "\n\n".join([
        format_cells(cells, "Figure 7a: avg elapsed time vs query size",
                     "elapsed"),
        format_cells(cells, "Figure 7b: solved queries vs query size",
                     "solved"),
    ])
    write_result("fig7_query_size.txt", text)

    # Shape assertions (who wins at the largest size, per dataset).
    largest = max(SIZES)
    for dataset in quick_config.datasets:
        at = {c.engine: c for c in cells
              if c.dataset == dataset and c.x == largest}
        assert at["tcm"].solved >= max(
            at[e].solved for e in ("symbi", "rapidflow", "timing"))


def test_fig7_heavy_datasets(benchmark, heavy_config, write_result):
    """The netflow/stackoverflow/wikitalk panel."""
    cells = benchmark.pedantic(
        lambda: query_size_sweep(engine_names(), heavy_config, (4, 5)),
        rounds=1, iterations=1)
    text = "\n\n".join([
        format_cells(cells, "Figure 7a (heavy datasets): avg elapsed time",
                     "elapsed"),
        format_cells(cells, "Figure 7b (heavy datasets): solved queries",
                     "solved"),
    ])
    write_result("fig7_query_size_heavy.txt", text)
