"""Aggregate analysis over "large distributed file space" (MapReduce).

§II's second strategy: when the YET outgrows memory, store it in a
distributed file system and run the analysis Hadoop-style.  This example
writes the YET into the simulated DFS (one packed block per whole-trial
split), runs the analysis as one MapReduce job for the whole portfolio
(each map task one fused sweep of its split), verifies every layer
against the in-memory engine, and shows the simulated worker-count
scaling and a datanode failure + re-replication.

Run:  python examples/mapreduce_portfolio.py
"""

import numpy as np

import repro
from repro.core.engines import MapReduceEngine
from repro.data.dfs import SimDfs
from repro.util.tables import format_bytes, render_table

workload = repro.bench.companion_study_workload(n_trials=20_000)
session = repro.RiskSession(workload.yet, workload.portfolio)

# ---- run the job ----------------------------------------------------------
dfs = SimDfs(n_datanodes=8, replication=3)
engine = MapReduceEngine(dfs=dfs, n_splits=16, n_reducers=8)
res_mr = session.aggregate(engine=engine)
res_ref = session.aggregate(engine="vectorized")


def equal_layers(res):
    return all(np.array_equal(res.ylt_by_layer[lid].losses, ylt.losses)
               for lid, ylt in res_ref.ylt_by_layer.items())


print(f"MapReduce YLTs equal in-memory YLTs: {equal_layers(res_mr)}")
print(f"DFS holds {format_bytes(dfs.total_stored_bytes())} "
      f"across {dfs.n_live_nodes} datanodes (3x replication)")

counters = res_mr.details["counters"]   # one job for every layer
print(f"map input records:  {counters['map_input_records']:,}")
print(f"reduce groups:      {counters['reduce_input_groups']:,}")
print(f"shuffle:            {format_bytes(counters['shuffle_bytes'])}")
print()

# ---- simulated worker scaling ----------------------------------------------
job = engine.last_job
rows = []
base = job.makespan(1)
for w in (1, 2, 4, 8, 16):
    mk = job.makespan(w)
    rows.append([w, f"{mk * 1e3:.0f} ms", f"{base / mk:.2f}x",
                 f"{base / mk / w:.2f}"])
print(render_table(["workers", "makespan", "speedup", "efficiency"], rows,
                   title="Worker scaling (LPT makespan over measured tasks)"))
print()

# ---- failure injection -------------------------------------------------------
print("killing datanode 3 ...")
dfs.kill_node(3)
created = dfs.re_replicate()
print(f"re-replication created {created} new replicas; "
      f"{dfs.n_live_nodes} datanodes live")
res_after = session.aggregate(engine=engine)
print(f"job result unchanged after failure: {equal_layers(res_after)}")
session.close()
