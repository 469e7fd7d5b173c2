"""Figure 8: query processing time and #solved vs temporal-order density.

Paper shapes to reproduce:

* SymBi and RapidFlow ignore the order during search, so their time is
  (roughly) flat in the density;
* TCM's time *decreases* as the density grows (more constraints = more
  filtering and pruning);
* TCM beats Timing at every density, the gap widening with density.
"""

import pytest

from repro.bench import density_sweep, engine_names, format_cells

DENSITIES = (0.0, 0.5, 1.0)


def test_fig8_regenerate(benchmark, quick_config, write_result):
    cells = benchmark.pedantic(
        lambda: density_sweep(engine_names(), quick_config, DENSITIES),
        rounds=1, iterations=1)
    text = "\n\n".join([
        format_cells(cells, "Figure 8a: avg elapsed time vs density",
                     "elapsed"),
        format_cells(cells, "Figure 8b: solved queries vs density",
                     "solved"),
    ])
    write_result("fig8_density.txt", text)

    # Shape: TCM at density 1 is no slower than TCM at density 0
    # (more temporal constraints help TCM), modulo a generous factor
    # for noise at this scale.
    for dataset in quick_config.datasets:
        tcm = {c.x: c for c in cells
               if c.dataset == dataset and c.engine == "tcm"}
        assert tcm[1.0].avg_elapsed_ms <= 3.0 * tcm[0.0].avg_elapsed_ms
