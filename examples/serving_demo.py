"""The serving layer: many concurrent quote requests, few fused sweeps.

Four "underwriter" threads hammer one shared :class:`PricingService`
with candidate excess-of-loss structures — some unique, some duplicates
of structures a colleague already asked about.  The broker thread takes
whatever is queued the moment it is free — the first request is priced
at once, and everything that arrives while that sweep runs is stacked
into one ephemeral portfolio kernel and priced in a single YET pass;
repeat structures come straight from the content-addressed cache
without any sweep at all.

Run:  python examples/serving_demo.py
"""

import threading
import time

import numpy as np

import repro
import repro.errors
from repro.serve import BatchPolicy
from repro.util.tables import render_table

N_THREADS = 4
REQUESTS_PER_THREAD = 24

# The shared trial set and contract book (the "consistent lens").
workload = repro.bench.typical_contract_workload(n_trials=20_000)
base_layer = workload.portfolio.layers[0]
mean_loss = 5e5

# A menu of candidate structures.  Threads pick overlapping subsets, so
# the same structure is quoted by more than one underwriter — cache food.
menu = [
    repro.Layer(
        200 + i,
        base_layer.elts,
        repro.LayerTerms(
            occ_retention=(1.0 + 0.75 * i) * mean_loss,
            occ_limit=40 * mean_loss,
            agg_retention=10 * mean_loss,
            agg_limit=3000 * mean_loss,
            participation=0.9,
        ),
    )
    for i in range(12)
]

# Batches form from load, not from a timer: the broker takes what is
# queued the moment it is free, so no window is configured.
session = repro.RiskSession(workload.yet)
service = session.pricing_service(
    engine="inline",
    batch=BatchPolicy(max_batch=64, auto_flush=True),
    slo_seconds=30.0,
)
# One warm quote measures the dispatcher's throughput, so admission
# models the burst below from a real sweep (until its substrate has run,
# admission sheds only at the queue cap).
service.quote(menu[0])

quotes_by_thread: dict[int, list] = {}
shed_retries = [0] * N_THREADS


def underwriter(tid: int) -> None:
    rng = np.random.default_rng(tid)
    picks = rng.integers(0, len(menu), size=REQUESTS_PER_THREAD)
    tickets = []
    for i in picks:
        while True:
            try:
                tickets.append(service.submit(menu[i]))
                break
            except repro.errors.AdmissionError:
                # Backpressure: the service says "not now" — wait out
                # roughly one batch and retry.
                shed_retries[tid] += 1
                time.sleep(0.05)
    quotes_by_thread[tid] = [t.result(timeout=60.0) for t in tickets]


threads = [threading.Thread(target=underwriter, args=(tid,))
           for tid in range(N_THREADS)]
for t in threads:
    t.start()
for t in threads:
    t.join()

# Every count is read off the service's telemetry plane; the ratios
# are computed here, by the reader.
metrics = service.telemetry.snapshot()["metrics"]
requests = int(metrics["serve.requests"])
hits = int(metrics["serve.cache.hits"])
batches = int(metrics["serve.batches"])
latencies = np.array([
    q.latency_seconds for quotes in quotes_by_thread.values() for q in quotes
])

rows = [
    ["requests submitted", f"{requests:,}"],
    ["answered from cache", f"{hits:,} ({hits / requests:.0%} hit rate)"],
    ["fused YET sweeps", f"{batches:,}"],
    ["requests per sweep",
     f"{metrics['serve.batched_requests'] / batches:.1f}"],
    ["kernel rows stacked", f"{int(metrics['serve.kernel_rows']):,}"],
    ["quote latency p50", f"{np.percentile(latencies, 50) * 1e3:.1f} ms"],
    ["quote latency p95", f"{np.percentile(latencies, 95) * 1e3:.1f} ms"],
    ["requests shed then retried", f"{sum(shed_retries):,}"],
]
print(render_table(
    ["quantity", "value"], rows,
    title=f"{N_THREADS} underwriters x {REQUESTS_PER_THREAD} quotes over "
          f"{workload.yet.n_trials:,} shared trials",
))

print(
    f"\n{requests} concurrent requests cost {batches} YET pass(es) — "
    f"the pre-serve pricer would have run {requests}."
)
session.close()
