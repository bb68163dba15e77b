"""Benchmark support: workload generators and the experiment harness.

``benchmarks/`` (pytest-benchmark) and EXPERIMENTS.md are both generated
from this package so that the numbers in the document and the numbers in
the bench output come from the same code paths.
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
from repro.bench.harness import time_call

__all__ = [
    "Workload",
    "build_elt",
    "build_layer_workload",
    "build_portfolio_workload",
    "companion_study_workload",
    "typical_contract_workload",
    "dfa_workload",
    "warehouse_fact_table",
    "time_call",
]
