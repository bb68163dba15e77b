"""Stage 2 — portfolio risk management (aggregate analysis).

This package is the computational core of the reproduction: the Monte
Carlo *aggregate analysis* of §II, which re-plays a pre-simulated
Year-Event Table (YET) of alternative contractual years against a
portfolio of reinsurance layers, producing Year-Loss Tables (YLTs).  The
algorithm follows the companion study the paper cites for its GPU results
(Bahl et al., WHPCF @ SC12 [7]): per event-occurrence ELT lookups,
occurrence-level financial terms, per-year aggregation, aggregate-level
terms.

Six interchangeable engines execute the same analysis (see
:mod:`repro.core.engines`); their numerical equivalence is a tested
invariant, and their relative performance is the subject of experiments
E3-E5 and E7.
"""

from repro.core.tables import (
    ELT_SCHEMA,
    YET_SCHEMA,
    YELT_SCHEMA,
    YLT_SCHEMA,
    EltTable,
    StoredYet,
    YetHandles,
    YetTable,
    YeltTable,
    YltTable,
    YelltModel,
)
from repro.core.kernels import KernelHandles, PortfolioKernel
from repro.core.terms import LayerTerms
from repro.core.lookup import LossLookup
from repro.core.layer import Layer
from repro.core.portfolio import Portfolio
from repro.core.engines import available_engines, get_engine
from repro.core.uncertainty import (
    SecondaryUncertainty,
    sample_occurrence_losses,
    sampled_aggregate_analysis,
)
from repro.core.reinstatements import (
    apply_reinstatement_limit,
    reinstatement_premiums,
)
from repro.core.yellt import YelltTable, materialize_yellt, yellt_to_yelt

__all__ = [
    "ELT_SCHEMA",
    "YET_SCHEMA",
    "YELT_SCHEMA",
    "YLT_SCHEMA",
    "EltTable",
    "StoredYet",
    "YetHandles",
    "YetTable",
    "YeltTable",
    "YltTable",
    "YelltModel",
    "KernelHandles",
    "PortfolioKernel",
    "LayerTerms",
    "LossLookup",
    "Layer",
    "Portfolio",
    "available_engines",
    "get_engine",
    "SecondaryUncertainty",
    "sample_occurrence_losses",
    "sampled_aggregate_analysis",
    "apply_reinstatement_limit",
    "reinstatement_premiums",
    "YelltTable",
    "materialize_yellt",
    "yellt_to_yelt",
]
