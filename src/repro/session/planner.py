"""The execution planner: resolve ``engine="auto"`` into a priced plan.

This module owns what ``auto`` chooses between, and at what rates:
:data:`_SUBSTRATES` is the whole table — the two substrates that really
execute on this host, each one row naming the registry engine that runs
an aggregate on it, the session dispatcher that runs a serving batch on
it, and its cost-model seeds.  The engine a plan names and the
dispatcher a serving workload gets are read off the same row, so they
cannot disagree.  The registry's other engines (the scalar oracle and
the simulated device / MapReduce / cluster of the paper's E5/E7) stay
constructible and runnable by name; they run as host NumPy, cannot win
work from the host substrates, and are not something ``auto`` resolves
to.

A workload is ``work_items`` layer-occurrence lanes.  A row whose
session dispatcher has run is priced at what that dispatcher measured
(:attr:`Dispatcher.throughput <repro.serve.dispatch.Dispatcher.throughput>`,
fed by every aggregate and quote batch it runs — the rate serve
admission sheds by), which :meth:`RiskSession.plan
<repro.session.RiskSession.plan>` hands to :meth:`EnginePlanner.plan`:
that rate is wall time per processor, everything a run cost included, so
the row's runtime is ``lanes / (rate × processors)``, the inverse of
:meth:`~repro.hpc.cost_model.ThroughputEstimate.observe`.  A row that
has not run is priced by the HPC cost model that sizes processor bursts
at paper scale (:class:`~repro.hpc.cost_model.StageSpec`): its seed
per-processor throughput under Amdahl plus a communication term.  Either
way a cold pool is charged its startup cost (worker spawn, payload
staging) — which is exactly why a session that keeps its substrate warm
gets different, better plans than per-call entry points.  The planner
itself keeps no rate.

Every decision is auditable: :meth:`ExecutionPlan.explain` renders the
candidate table — throughput, processors, Amdahl fraction, startup,
modelled seconds — so ``engine="auto"`` is never a black box.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.hpc.cost_model import StageSpec
from repro.hpc.pool import available_parallelism
from repro.obs import Telemetry

__all__ = ["EngineEstimate", "ExecutionPlan", "EnginePlanner",
           "dispatcher_for"]

#: Workload kinds the planner understands.
_WORKLOADS = ("aggregate", "serving")

#: Nominal micro-batch size used to shape a "serving" plan: the cost of
#: one coalesced sweep is what the dispatcher choice should optimise.
_NOMINAL_BATCH = 8


@dataclass(frozen=True)
class _Substrate:
    """One row of what ``auto`` prices.

    ``seed_rate`` is the lanes/s per processor a row is priced at until
    its dispatcher has run (an order-of-magnitude prior), and the next
    two feed the :class:`~repro.hpc.cost_model.StageSpec` it is priced
    through until then; a measured rate already holds what they model.
    ``pooled`` marks the row that runs on the session's worker pool: it
    is priced at the host's worker count, pays ``startup_seconds`` while
    the pool is cold, is ineligible on a single-core host and prices as
    one processor once the pool has degraded.
    """

    engine: str
    dispatcher: str
    seed_rate: float
    parallel_fraction: float = 1.0
    comm_overhead_per_proc_s: float = 0.0
    startup_seconds: float = 0.0
    pooled: bool = False


_SUBSTRATES = {row.engine: row for row in (
    _Substrate("vectorized", "inline", seed_rate=2.5e7),
    _Substrate("multicore", "pooled", seed_rate=2.2e7,
               parallel_fraction=0.92, comm_overhead_per_proc_s=0.01,
               startup_seconds=0.35, pooled=True),
)}


def dispatcher_for(name: str) -> str:
    """The dispatcher name a substrate's engine name stands for
    (``"multicore"`` → ``"pooled"``); any other name passes through."""
    return next((row.dispatcher for row in _SUBSTRATES.values()
                 if row.engine == name), name)


@dataclass(frozen=True)
class EngineEstimate:
    """One candidate engine's modelled cost for a workload."""

    engine: str
    n_procs: int
    throughput_per_proc: float
    calibrated: bool
    runtime_seconds: float
    startup_seconds: float
    eligible: bool = True
    note: str = ""

    @property
    def total_seconds(self) -> float:
        return self.runtime_seconds + self.startup_seconds


@dataclass(frozen=True)
class ExecutionPlan:
    """A resolved ``engine="auto"`` decision, with its evidence.

    Attributes
    ----------
    workload:
        What is being planned (``"aggregate"`` or ``"serving"``).
    engine:
        The chosen registry engine name.
    n_procs:
        Parallelism the choice was priced at.
    transport:
        ``"shm"`` when the plan runs on a working pool (the
        shared-memory data plane), ``"inline"`` when it sweeps in
        process.
    n_trials / n_occurrences / n_layers / work_items:
        The data shape the plan was priced against (``work_items`` =
        occurrence lanes = occurrences x layers).
    estimates:
        Every candidate's :class:`EngineEstimate`, eligible or not —
        the full evidence :meth:`explain` renders.
    """

    workload: str
    engine: str
    n_procs: int
    transport: str
    n_trials: int
    n_occurrences: int
    n_layers: int
    work_items: float
    estimates: tuple[EngineEstimate, ...] = field(default_factory=tuple)

    @property
    def chosen(self) -> EngineEstimate:
        """The winning candidate's estimate."""
        for est in self.estimates:
            if est.engine == self.engine:
                return est
        raise ConfigurationError(
            f"plan chose {self.engine!r} but carries no estimate for it"
        )

    @property
    def modelled_seconds(self) -> float:
        return self.chosen.total_seconds

    @property
    def dispatcher(self) -> str:
        """The session dispatcher that runs a serving batch on the
        chosen substrate — the same table row as :attr:`engine`."""
        return dispatcher_for(self.engine)

    def explain(self) -> str:
        """Human-readable account of why this engine was chosen."""
        lines = [
            f"ExecutionPlan(workload={self.workload!r}, engine={self.engine!r})",
            f"  data shape: {self.n_trials:,} trials x "
            f"{self.n_occurrences:,} occurrences x {self.n_layers} "
            f"layer{'s' if self.n_layers != 1 else ''} = "
            f"{self.work_items:,.0f} lanes",
            f"  transport:  {self.transport}",
            "  cost model (lanes/s per proc; Amdahl + comm + startup):",
        ]
        for est in self.estimates:
            marker = "*" if est.engine == self.engine else " "
            origin = "measured" if est.calibrated else "seed"
            detail = (f"throughput {est.throughput_per_proc:.3g} ({origin}), "
                      f"startup {est.startup_seconds:.3f}s")
            if est.note:
                detail += f"; {est.note}"
            if not est.eligible:
                lines.append(f"  {marker} {est.engine:<11} ineligible — {est.note}")
                continue
            lines.append(
                f"  {marker} {est.engine:<11} {est.n_procs:>2} proc"
                f"{'s' if est.n_procs != 1 else ' '} "
                f"est {est.total_seconds:.4f}s  ({detail})"
            )
        runners_up = [e for e in self.estimates
                      if e.eligible and e.engine != self.engine]
        if runners_up:
            best_other = min(runners_up, key=lambda e: e.total_seconds)
            lines.append(
                f"  chosen: {self.engine} — modelled "
                f"{self.modelled_seconds:.4f}s vs {best_other.engine} "
                f"{best_other.total_seconds:.4f}s"
            )
        else:
            lines.append(f"  chosen: {self.engine} — only eligible candidate")
        return "\n".join(lines)


class EnginePlanner:
    """Prices the substrates of :data:`_SUBSTRATES` for a session's
    workloads.

    Parameters
    ----------
    n_workers:
        Host parallelism the pooled substrate is priced at (``None`` =
        the machine's available parallelism).
    telemetry:
        An :class:`~repro.obs.Telemetry` plane to report into (a session
        passes its own).  Each plan emits a ``plan.decision`` event with
        the chosen engine and every priced alternative.  ``None`` = a
        private plane.  The rates a plan prices at are its caller's
        (:meth:`plan`'s ``rates``); what a run measured is exported by
        the dispatcher that ran it (``dispatch.<name>.lanes_per_second``).
    """

    def __init__(self, n_workers: int | None = None,
                 telemetry: Telemetry | None = None) -> None:
        self.n_workers = (n_workers if n_workers is not None
                          else available_parallelism())
        if self.n_workers < 1:
            self.n_workers = 1
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._m_plans = self.telemetry.counter("planner.plans")

    def plan(self, workload: str, *, n_trials: int, n_occurrences: int,
             n_layers: int = 1, pool_warm: bool = False,
             pool_degraded: bool = False,
             rates: dict[str, float | None] | None = None) -> ExecutionPlan:
        """Price every substrate and choose the cheapest.

        ``rates`` maps a row's dispatcher name to its measured lanes/s
        per processor, at which the row's lanes take ``lanes / (rate ×
        processors)``; a row missing from it (or ``None``) is priced at
        its seed through the cost model.  ``pool_warm`` waives the pool's startup (the session
        already paid it); ``pool_degraded`` prices the pooled substrate
        as the serial fallback it has become — one processor, no warm
        credit, noted in ``explain()`` — so a degraded pool is never
        charged as parallel capacity; the plan's ``transport`` reads
        ``"shm"`` only when the pooled substrate is chosen on a working
        pool, and ``"inline"`` otherwise.  Every substrate emits
        YELTs, so a run that asks for them is planned like any other.
        """
        if workload not in _WORKLOADS:
            raise ConfigurationError(
                f"unknown workload {workload!r}; expected one of {_WORKLOADS}"
            )
        n_layers = max(int(n_layers), 1)
        if workload == "serving":
            # A serving plan prices one coalesced micro-batch: the
            # request's own layer count is 1, but the dispatcher will
            # sweep a whole window's worth of candidates at once.
            n_layers = max(n_layers, _NOMINAL_BATCH)
        lanes = float(max(n_occurrences, 1) * n_layers)

        rates = rates or {}
        estimates: list[EngineEstimate] = []
        for row in _SUBSTRATES.values():
            measured = rates.get(row.dispatcher)
            rate = measured if measured is not None else row.seed_rate
            procs = self.n_workers if row.pooled else 1
            startup, eligible, note = 0.0, True, ""
            if row.pooled and self.n_workers <= 1:
                eligible, note = False, "single-core host (no pool to win on)"
            elif row.pooled and pool_degraded:
                # The pool has fallen back to serial inline execution:
                # price what will actually run (one processor, no spawn
                # to pay — and no warm parallel capacity to credit).
                procs, note = 1, "pool degraded — priced as serial fallback"
            elif row.pooled and not pool_warm:
                startup = row.startup_seconds
            if not eligible:
                runtime = float("inf")
            elif measured is not None:
                runtime = lanes / (rate * procs)
            else:
                runtime = StageSpec(
                    row.engine, lanes, rate,
                    parallel_fraction=row.parallel_fraction,
                    comm_overhead_per_proc_s=row.comm_overhead_per_proc_s,
                ).runtime_seconds(procs)
            estimates.append(EngineEstimate(
                engine=row.engine, n_procs=procs,
                throughput_per_proc=rate, calibrated=measured is not None,
                runtime_seconds=runtime, startup_seconds=startup,
                eligible=eligible, note=note,
            ))
        eligible = [e for e in estimates if e.eligible]
        if not eligible:
            raise ConfigurationError(
                "no substrate is eligible on this host"
            )
        chosen = min(eligible, key=lambda e: e.total_seconds)
        self._m_plans.inc()
        self.telemetry.counter(f"planner.chosen.{chosen.engine}").inc()
        self.telemetry.event(
            "plan.decision",
            workload=workload, engine=chosen.engine,
            modelled_seconds=chosen.total_seconds,
            n_procs=chosen.n_procs,
            alternatives={e.engine: (e.total_seconds if e.eligible else None)
                          for e in estimates if e.engine != chosen.engine},
        )
        return ExecutionPlan(
            workload=workload,
            engine=chosen.engine,
            n_procs=chosen.n_procs,
            transport=("shm" if _SUBSTRATES[chosen.engine].pooled
                       and chosen.n_procs > 1 else "inline"),
            n_trials=int(n_trials),
            n_occurrences=int(n_occurrences),
            n_layers=n_layers,
            work_items=lanes,
            estimates=tuple(estimates),
        )
