"""Distributed-memory engine over the simulated cluster.

The "thousands of processors" path (§II): trial blocks are scattered
across cluster nodes, the layer lookup is broadcast (every node prices
every event), each node computes the YLT slice for its trials, and the
slices are gathered at the root.  Node memory is accounted through each
node's :class:`~repro.hpc.memory.MemorySpace`, and the collectives charge
modelled communication time to the cluster ledger — both appear in the
result's details so E9 can reason about scale.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.engines.base import Engine, EngineResult
from repro.core.lookup import LossLookup
from repro.core.portfolio import Portfolio
from repro.core.tables import YetTable, YltTable
from repro.core.terms import LayerTerms
from repro.errors import EngineError
from repro.hpc.cluster import SimCluster
from repro.hpc.collectives import Collectives

__all__ = ["DistributedEngine"]


class DistributedEngine(Engine):
    """Scatter/broadcast/gather aggregate analysis on :class:`SimCluster`."""

    name = "distributed"

    def __init__(self, cluster: SimCluster | None = None,
                 n_nodes: int = 8) -> None:
        self.cluster = cluster or SimCluster(n_nodes)
        self.collectives = Collectives(self.cluster)

    def run(self, portfolio: Portfolio, yet: YetTable, *,
            emit_yelt: bool = False) -> EngineResult:
        self._validate(portfolio, yet)
        if emit_yelt:
            raise EngineError(
                "distributed engine does not emit YELTs; use the vectorized "
                "engine for event-granularity output"
            )
        t0 = time.perf_counter()
        cluster = self.cluster
        co = self.collectives
        n_nodes = cluster.n_nodes
        n_trials = yet.n_trials

        # Static trial-block decomposition (one block per node).
        n_blocks = min(n_nodes, n_trials)
        bounds = np.linspace(0, n_trials, n_blocks + 1).astype(int)
        parts = []
        for rank in range(n_nodes):
            if rank < n_blocks and bounds[rank + 1] > bounds[rank]:
                block = yet.slice_trials(int(bounds[rank]), int(bounds[rank + 1]))
                parts.append({
                    "trials": block.trials,
                    "events": block.event_ids,
                    "n_trials": block.n_trials,
                })
            else:
                parts.append(None)
        co.scatter("yet_block", parts)

        ylt_by_layer: dict[int, YltTable] = {}
        for layer in portfolio:
            lookup = layer.lookup()
            t = layer.terms
            co.bcast("lookup_ids", lookup.ids)
            co.bcast("lookup_vals", lookup.values)
            co.bcast("terms", (t.occ_retention, t.occ_limit, t.agg_retention,
                               t.agg_limit, t.participation))

            def node_work(node):
                part = node.store["yet_block"]
                if part is None:
                    return None
                # Account the node-resident working set against its memory.
                node.memory.put("yet_trials", part["trials"], copy=False)
                node.memory.put("yet_events", part["events"], copy=False)
                try:
                    local_lookup = LossLookup.from_arrays(
                        node.store["lookup_ids"], node.store["lookup_vals"])
                    terms = LayerTerms(*node.store["terms"])
                    retained = terms.apply_occurrence(local_lookup(part["events"]))
                    annual = np.bincount(
                        part["trials"], weights=retained, minlength=part["n_trials"]
                    )
                    return terms.apply_aggregate(annual)
                finally:
                    node.memory.free("yet_trials")
                    node.memory.free("yet_events")

            results = cluster.run(node_work)
            for rank, res in enumerate(results):
                cluster.node(rank).store["ylt_slice"] = (
                    res if res is not None else np.zeros(0)
                )
            slices = co.gather("ylt_slice")
            ylt_by_layer[layer.layer_id] = YltTable(
                np.concatenate([s for s in slices if s.size])
            )

        portfolio_ylt = YltTable.sum(list(ylt_by_layer.values()))
        return EngineResult(
            engine=self.name,
            ylt_by_layer=ylt_by_layer,
            portfolio_ylt=portfolio_ylt,
            seconds=time.perf_counter() - t0,
            details={
                "n_nodes": n_nodes,
                "comm_seconds_model": cluster.comm_seconds,
                "comm_bytes": cluster.comm_bytes,
            },
        )
