"""Stage 3 — dynamic financial analysis (DFA) and enterprise risk.

"The aggregate YLTs of catastrophe risks are integrated with investment,
reserving, interest rate, market cycle, counter-party, and operational
risks in the simulation ... From a YLT, a reinsurer can derive important
portfolio risk metrics such as the Probable Maximum Loss (PML) and the
Tail Value at Risk (TVAR) which are used for both internal risk
management and reporting to regulators and rating agencies" (§II).

This package provides each of those named risk sources as a YLT
generator (:mod:`repro.dfa.risks`), copula-based correlation for their
combination (:mod:`repro.dfa.correlation`, :mod:`repro.dfa.combine`),
the metric set (:mod:`repro.dfa.metrics`), regulator-style reporting
(:mod:`repro.dfa.reporting`), the enterprise roll-up
(:mod:`repro.dfa.erm`), and the quote record and premium arithmetic
(:mod:`repro.dfa.quote`) behind the real-time pricing that the paper's
"1 million trial ... 25 seconds" claim is about
(:meth:`RiskSession.quote <repro.session.RiskSession.quote>`).
"""

from repro.dfa.metrics import RiskMetrics, probable_maximum_loss, tail_value_at_risk, value_at_risk
from repro.dfa.risks import (
    RiskSource,
    counterparty_risk,
    interest_rate_risk,
    investment_risk,
    market_cycle_risk,
    operational_risk,
    reserve_risk,
)
from repro.dfa.correlation import GaussianCopula
from repro.dfa.combine import combine_ylts
from repro.dfa.allocation import allocation_report_rows, co_tvar_allocation
from repro.dfa.reporting import regulator_report
from repro.dfa.erm import BusinessUnit, Enterprise
from repro.dfa.quote import PricingQuote

__all__ = [
    "RiskMetrics",
    "value_at_risk",
    "tail_value_at_risk",
    "probable_maximum_loss",
    "RiskSource",
    "investment_risk",
    "reserve_risk",
    "interest_rate_risk",
    "market_cycle_risk",
    "counterparty_risk",
    "operational_risk",
    "GaussianCopula",
    "combine_ylts",
    "co_tvar_allocation",
    "allocation_report_rows",
    "regulator_report",
    "BusinessUnit",
    "Enterprise",
    "PricingQuote",
]
