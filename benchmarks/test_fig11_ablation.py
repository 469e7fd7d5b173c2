"""Figure 11: effectiveness of each technique (SymBi vs TCM-Pruning vs
TCM).

Paper shapes to reproduce: TCM-Pruning (TC-matchable filtering only)
already beats SymBi substantially; the time-constrained pruning rules
add a further improvement on top (1.0x-2.6x in the paper, dataset
dependent).
"""

import pytest

from repro.bench import ablation_sweep, format_cells

SIZES = (4, 5, 6)


def test_fig11_regenerate(benchmark, quick_config, write_result):
    cells = benchmark.pedantic(
        lambda: ablation_sweep(quick_config, SIZES),
        rounds=1, iterations=1)
    text = "\n\n".join([
        format_cells(cells, "Figure 11a: ablation, avg elapsed time",
                     "elapsed"),
        format_cells(cells, "Figure 11b: ablation, solved queries",
                     "solved"),
    ])
    write_result("fig11_ablation.txt", text)

    # Shape (aggregate over all cells; single cells are noisy at 3
    # queries each): full TCM solves at least as many queries overall
    # as the no-pruning variant, which is at least competitive with
    # SymBi (paper Figure 11b).
    def total_solved(engine):
        return sum(c.solved for c in cells if c.engine == engine)

    # One query of slack: near the time limit a single borderline query
    # can fall either side of it between engines.
    assert total_solved("tcm") >= total_solved("tcm-pruning") - 1
    assert total_solved("tcm") >= total_solved("symbi") - 1
