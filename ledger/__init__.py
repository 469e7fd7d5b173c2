"""The performance ledger: one benchmark protocol for the whole pipeline.

``ledger/run.py`` is the entry point (``BENCHMARK.json`` names it);
``ledger/README.md`` explains the workloads, the metrics and how to
read a trace.  Nothing under ``src/`` imports this package.
"""
