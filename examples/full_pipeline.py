"""The full three-stage §II pipeline on synthetic data.

Stage 1 — catastrophe modelling: a stochastic event catalogue and a
clustered exposure database are pushed through the hazard /
vulnerability / financial modules to produce one ELT per contract.

Stage 2 — portfolio risk management: a pre-simulated Year-Event Table
re-plays 5,000 alternative contractual years against the layered book,
on two different engines (and checks they agree).

Stage 3 — dynamic financial analysis: the catastrophe YLT is combined
with the six §II risk sources under a Gaussian copula, and the
enterprise view (economic capital, diversification benefit) is printed.

Run:  python examples/full_pipeline.py
"""

import numpy as np

import repro
from repro.catmod import (
    CatModPipeline,
    assign_contracts,
    generate_catalog,
    generate_exposure,
    standard_perils,
)
from repro.catmod.geography import Region
from repro.dfa.correlation import GaussianCopula

rng = repro.RngHierarchy(2012)
region = Region(25.0, 33.0, -98.0, -80.0, name="gulf-coast")
perils = standard_perils()

# ---- Stage 1: risk modelling --------------------------------------------
print("=== Stage 1: catastrophe modelling ===")
catalog = generate_catalog(perils, region, n_events=1_000,
                           rng=rng.generator("catalog"))
exposure = generate_exposure(region, n_sites=3_000, rng=rng.generator("exposure"))
contracts = assign_contracts(exposure, n_contracts=12,
                             rng=rng.generator("contracts"))
elts, stats = CatModPipeline(perils).run(catalog, exposure, contracts)
print(f"catalogue: {catalog.n_events:,} events "
      f"({catalog.total_rate:.1f} expected occurrences/yr)")
print(f"exposure:  {exposure.n_sites:,} sites, "
      f"total insured value {exposure.total_value:,.0f}")
print(f"pipeline:  {stats.event_site_pairs:,} event-site pairs in "
      f"{stats.seconds:.2f}s ({stats.pairs_per_second:,.0f}/s)")
print(f"ELTs:      {len(elts)} contracts, "
      f"{sum(e.n_events for e in elts):,} total rows")
print()

# ---- Stage 2: portfolio risk management ---------------------------------
print("=== Stage 2: aggregate analysis ===")
yet = repro.YetTable.simulate(
    catalog.event_ids, catalog.rates, n_trials=5_000,
    rng=rng.generator("yet"),
)
terms = repro.LayerTerms(occ_retention=2e5, occ_limit=5e7,
                         agg_retention=5e5, agg_limit=5e8,
                         participation=0.85)
layers = [repro.Layer(i, [elts[2 * i], elts[2 * i + 1]], terms)
          for i in range(6)]
portfolio = repro.Portfolio(layers)
with repro.RiskSession(yet, portfolio) as session:
    res_vec = session.aggregate(engine="vectorized")
    res_dev = session.aggregate(engine="device")
agree = np.array_equal(res_vec.portfolio_ylt.losses,
                       res_dev.portfolio_ylt.losses)
print(f"YET: {yet.n_occurrences:,} occurrences over {yet.n_trials:,} trials "
      f"(~{yet.mean_events_per_trial():.0f} events/trial)")
print(f"vectorized engine: {res_vec.seconds * 1e3:.1f} ms; "
      f"device engine: {res_dev.seconds * 1e3:.1f} ms; agree: {agree}")
for lid, eal in sorted(res_vec.layer_expected_losses().items()):
    print(f"  layer {lid}: expected annual loss {eal:,.0f}")
print()

# ---- Stage 3: DFA / ERM ----------------------------------------------------
print("=== Stage 3: dynamic financial analysis ===")
cat_ylt = res_vec.portfolio_ylt
sources = repro.bench.dfa_workload(cat_ylt, seed=7)
ylts = [cat_ylt] + [s.ylt for s in sources]
names = ["catastrophe"] + [s.name for s in sources]
corr = GaussianCopula.uniform(len(ylts), 0.25).correlation
combined = repro.combine_ylts(ylts, "copula", correlation=corr,
                              rng=rng.generator("copula"))
print(f"combined {len(ylts)} risk YLTs under a Gaussian copula (rho=0.25)")
metrics = repro.RiskMetrics.from_ylt(combined)
print(repro.regulator_report(metrics, title="Enterprise book"))
print()

units = [repro.BusinessUnit(n, y) for n, y in zip(names, ylts)]
enterprise = repro.Enterprise(units)
cap = enterprise.economic_capital(q=0.99)
benefit = enterprise.diversification_benefit(q=0.99)
print(f"economic capital (TVaR99, trial-aligned): {cap:,.0f}")
print(f"diversification benefit:                  {benefit:.1%}")
