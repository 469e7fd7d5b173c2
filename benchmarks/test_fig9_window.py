"""Figure 9: query processing time and #solved vs window size.

Paper shapes to reproduce: all engines slow down as the window grows
(more live edges, more embeddings), and TCM stays fastest / solves the
most queries at the largest windows.
"""

import pytest

from repro.bench import engine_names, format_cells, window_sweep

FRACTIONS = (0.1, 0.3, 0.5)


def test_fig9_regenerate(benchmark, quick_config, write_result):
    cells = benchmark.pedantic(
        lambda: window_sweep(engine_names(), quick_config, FRACTIONS),
        rounds=1, iterations=1)
    text = "\n\n".join([
        format_cells(cells, "Figure 9a: avg elapsed time vs window "
                     "(fraction of stream)", "elapsed"),
        format_cells(cells, "Figure 9b: solved queries vs window",
                     "solved"),
    ])
    write_result("fig9_window.txt", text)

    # Shape: a larger window is never *much* cheaper for any engine.
    # The generous factor absorbs index-maintenance-dominated cells on
    # sparse datasets (lsbench), where a small window causes more entry
    # churn than a large one while search cost stays near zero.
    for dataset in quick_config.datasets:
        for engine in engine_names():
            series = {c.x: c for c in cells
                      if c.dataset == dataset and c.engine == engine}
            if 0.1 in series and 0.5 in series:
                assert (series[0.5].avg_elapsed_ms
                        >= 0.25 * series[0.1].avg_elapsed_ms)
