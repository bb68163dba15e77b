"""Treaty-desk features: secondary uncertainty, reinstatements, allocation.

Three extensions a production aggregate-analysis system layers on top of
the §II pipeline, demonstrated on one book:

1. **Secondary uncertainty** — occurrence losses sampled from the ELT's
   (mean, sigma) distribution instead of taken at the mean; through a
   convex excess layer this *raises* the expected ceded loss (Jensen),
   which is why pricing high layers in expected mode under-charges.
2. **Reinstatements** — the layer's occurrence limit is usable
   ``1 + n`` times per year; burned limit is bought back pro rata.
3. **Capital allocation** — Euler/co-TVaR attribution of the enterprise
   tail to the book's layers (allocations provably sum to the total).

Run:  python examples/treaty_features.py
"""

import numpy as np

import repro
from repro.core import (
    apply_reinstatement_limit,
    reinstatement_premiums,
    sampled_aggregate_analysis,
)
from repro.dfa.allocation import allocation_report_rows
from repro.util.tables import render_table

rng = repro.RngHierarchy(99)
wl = repro.bench.build_portfolio_workload(
    n_layers=4, n_trials=20_000, mean_events_per_trial=500.0,
    elts_per_layer=3, elt_rows=4_000, catalog_events=30_000, seed=21,
)
session = repro.RiskSession(wl.yet, wl.portfolio)

# ---- 1. expected mode vs sampled mode ------------------------------------
expected = session.aggregate(engine="vectorized")
sampled = sampled_aggregate_analysis(wl.portfolio, wl.yet,
                                     rng.generator("sampling"))
rows = []
for layer in wl.portfolio:
    e = expected.ylt_by_layer[layer.layer_id].mean()
    s = sampled[layer.layer_id].mean()
    rows.append([f"layer {layer.layer_id}", f"{e:,.0f}", f"{s:,.0f}",
                 f"{(s / e - 1):+.1%}"])
print(render_table(
    ["layer", "expected-mode EAL", "sampled-mode EAL", "Jensen uplift"],
    rows,
    title="Secondary uncertainty: pricing an excess layer at the mean under-charges",
))
print()

# ---- 2. reinstatements ------------------------------------------------------
layer = wl.portfolio.layers[0]
res = session.aggregate(engine="vectorized", emit_yelt=True)
session.close()
yelt = res.yelt_by_layer[layer.layer_id]
occ_limit = layer.terms.occ_limit
rows = []
for n_reinst in (0, 1, 2, 5):
    limited = apply_reinstatement_limit(yelt, occ_limit, n_reinst)
    ceded = limited.to_ylt().mean()
    premiums = reinstatement_premiums(yelt, limited, occ_limit,
                                      rate_on_line=0.15,
                                      n_reinstatements=n_reinst)
    rows.append([n_reinst, f"{ceded:,.0f}", f"{premiums.mean():,.0f}",
                 f"{(ceded - premiums.mean()):,.0f}"])
print(render_table(
    ["reinstatements", "ceded EAL", "reinst. premium income", "net cost"],
    rows,
    title=f"Reinstatement structures on layer 0 (occ limit {occ_limit:,.0f})",
))
print()

# ---- 3. capital allocation ---------------------------------------------------
unit_ylts = {
    f"layer {lid}": ylt for lid, ylt in expected.ylt_by_layer.items()
}
print(render_table(
    ["unit", "standalone TVaR99", "allocated capital", "diversification"],
    allocation_report_rows(unit_ylts, q=0.99),
    title="Euler/co-TVaR capital allocation across the book",
))
total_alloc = sum(
    v for v in repro.dfa.co_tvar_allocation(unit_ylts, 0.99).values()
)
combined = repro.YltTable.sum(list(unit_ylts.values()))
print(f"\nallocations sum to {total_alloc:,.0f} "
      f"= enterprise TVaR99 {repro.tail_value_at_risk(combined, 0.99):,.0f}")
