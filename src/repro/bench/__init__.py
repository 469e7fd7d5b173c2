"""Evaluation harness: engines registry, runners, and experiment sweeps."""

from repro.bench.runner import (
    ENGINE_FACTORIES, QueryResult, engine_names, make_engine, run_query,
)
from repro.bench.experiments import (
    CellResult, ExperimentConfig, ablation_sweep, dataset_table,
    density_sweep, filtering_power_table, memory_sweep, query_size_sweep,
    window_sweep,
)
from repro.bench.report import format_cells, format_table3, format_table5
from repro.bench.multi import (
    MultiQueryConfig, MultiQueryRun, build_service, format_multi_run,
    format_scaling, multi_query_scaling, run_multi_query,
)

__all__ = [
    "ENGINE_FACTORIES", "QueryResult", "engine_names", "make_engine",
    "run_query",
    "CellResult", "ExperimentConfig", "ablation_sweep", "dataset_table",
    "density_sweep", "filtering_power_table", "memory_sweep",
    "query_size_sweep", "window_sweep",
    "format_cells", "format_table3", "format_table5",
    "MultiQueryConfig", "MultiQueryRun", "build_service",
    "format_multi_run", "format_scaling", "multi_query_scaling",
    "run_multi_query",
]
