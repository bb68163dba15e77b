"""The telemetry plane: one scrape sees the whole request path.

A mixed workload — an aggregate run, a planned run, a burst of quotes
(some duplicated, so the cache earns its keep), and an EP curve — flows
through one :class:`RiskSession`.  Everything the session builds
(planner, dispatcher, pool, pricing service) shares the session's
:class:`~repro.obs.Telemetry` plane, so afterwards a single pull-based
scrape shows:

- the flat dot-keyed metric snapshot (requests, cache hits, batches,
  latency percentiles, engine rows swept);
- the span tree of the request path (session.plan → session.sweep,
  serve.batch → stack/dispatch/merge) with wall *and* CPU time;
- the structured event log (plan decisions, shed/degradation events);
- the same numbers rendered as standard Prometheus exposition text.

Run:  python examples/observability_demo.py
"""

import repro
from repro.serve import BatchPolicy
from repro.util.tables import render_table

workload = repro.bench.typical_contract_workload(n_trials=5_000)
base = workload.portfolio.layers[0]
mean_loss = 5e5

candidates = [
    repro.Layer(
        300 + i,
        base.elts,
        repro.LayerTerms(
            occ_retention=(1.0 + 0.5 * i) * mean_loss,
            occ_limit=40 * mean_loss,
            agg_retention=10 * mean_loss,
            agg_limit=3000 * mean_loss,
            participation=0.9,
        ),
    )
    for i in range(6)
]

with repro.RiskSession(workload.yet, workload.portfolio) as session:
    # A planned aggregate (emits a plan.decision event), a quote burst
    # with duplicates (cache hits), and an EP curve — one substrate.
    session.aggregate()
    svc = session.pricing_service(batch=BatchPolicy(max_batch=16))
    svc.quote_many(candidates)
    # Repeats of already-priced structures come straight from the
    # content-addressed cache — no sweep, just a hit counter bump.
    for layer in candidates[:3]:
        svc.quote(layer)
    svc.ep_curve(candidates[0])

    scrape = session.telemetry.snapshot()

    # ---- metrics: the flat dot-keyed schema -----------------------------
    print("=== metrics (selected) ===")
    metrics = scrape["metrics"]
    rows = [(name, f"{metrics[name]:.6g}") for name in sorted(metrics)
            if name.split(".")[0] in ("session", "serve", "planner")
            and not name.startswith("span.")]
    print(render_table(("metric", "value"), rows))

    # ---- spans: the request path, wall vs CPU ---------------------------
    print("\n=== spans (most recent 8) ===")
    spans = scrape["spans"][-8:]
    print(render_table(
        ("span", "parent", "wall ms", "cpu ms"),
        [(s["name"], s["parent_id"] or "-",
          f"{s['wall_seconds'] * 1e3:.2f}", f"{s['cpu_seconds'] * 1e3:.2f}")
         for s in spans],
    ))

    # ---- events: what happened, in order --------------------------------
    print("\n=== events ===")
    for event in scrape["events"]:
        fields = {k: v for k, v in event["fields"].items()
                  if k in ("workload", "engine", "reason")}
        print(f"  {event['at_seconds']:8.3f}s  {event['kind']:<18} {fields}")

    # ---- prometheus: the operator-facing export -------------------------
    print("\n=== prometheus exposition (first 12 lines) ===")
    for line in session.telemetry.to_prometheus_text().splitlines()[:12]:
        print("  " + line)

    served = int(metrics.get("serve.requests", 0))
    hits = int(metrics.get("serve.cache.hits", 0))
    batches = int(metrics.get("serve.batches", 0))
    print(f"\n{served} requests answered by {batches} fused sweeps "
          f"({hits} straight from cache); "
          f"p95 request latency "
          f"{metrics.get('serve.request.seconds.p95', 0.0) * 1e3:.2f} ms")
