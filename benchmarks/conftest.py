"""Shared scale configuration for the benchmark suite.

Every benchmark regenerates one figure/table of the paper's Section VI
at laptop scale.  Rendered tables are printed to stdout and written
under pytest's session temp directory; ``pytest benchmarks/
--update-results`` rewrites the committed copies under
``benchmarks/results/`` instead, so that a plain test run leaves the
working tree as it found it.

The scales here keep the full suite in the minutes range on pure
Python.  Increase ``stream_edges``/``queries_per_cell``/sizes for
closer-to-paper settings.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import ExperimentConfig

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--update-results", action="store_true", default=False,
        help="rewrite the committed tables under benchmarks/results/")


@pytest.fixture(scope="session")
def write_result(request, tmp_path_factory):
    """``write_result(name, text)``: print a rendered table and persist
    it — under the session temp directory, or over the committed copy
    with ``--update-results``.  The option is only registered when
    ``benchmarks/`` is on the command line (pytest reads options from
    the conftest files of its arguments), hence the default."""
    if request.config.getoption("--update-results", default=False):
        folder = RESULTS_DIR
        folder.mkdir(exist_ok=True)
    else:
        folder = tmp_path_factory.mktemp("results")

    def write(name: str, text: str) -> None:
        (folder / name).write_text(text + "\n")
        print()
        print(text)

    return write


@pytest.fixture(scope="session")
def quick_config() -> ExperimentConfig:
    """Main sweep scale: three datasets spanning the multiplicity range."""
    return ExperimentConfig(
        datasets=("superuser", "yahoo", "lsbench"),
        stream_edges=1000,
        queries_per_cell=3,
        default_query_size=5,
        default_density=0.5,
        default_window_fraction=0.3,
        time_limit=4.0,
        seed=0,
    )


@pytest.fixture(scope="session")
def heavy_config() -> ExperimentConfig:
    """The remaining three datasets.  Netflow is generated directed with
    a scaled-down edge-label alphabet (the real CAIDA data has 346k edge
    labels), which is what keeps single-vertex-label matching tractable
    - see README.md, "Synthetic datasets"."""
    return ExperimentConfig(
        datasets=("netflow", "stackoverflow", "wikitalk"),
        stream_edges=800,
        queries_per_cell=3,
        default_query_size=5,
        default_density=0.5,
        default_window_fraction=0.3,
        time_limit=4.0,
        seed=0,
    )
