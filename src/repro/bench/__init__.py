"""Canonical workloads: deterministic YETs and portfolios at any scale.

The paper-experiment definitions (``benchmarks/bench_eNN_*.py``), the
benchmark of record (``benchmarks/e2e``), the examples and the tests all
build their inputs here, so every number comes from the same shapes.
"""

from repro.bench.workloads import (
    Workload,
    build_elt,
    build_layer_workload,
    build_portfolio_workload,
    companion_study_workload,
    dfa_workload,
    typical_contract_workload,
    warehouse_fact_table,
)

__all__ = [
    "Workload",
    "build_elt",
    "build_layer_workload",
    "build_portfolio_workload",
    "companion_study_workload",
    "typical_contract_workload",
    "dfa_workload",
    "warehouse_fact_table",
]
