"""The execution planner: resolve ``engine="auto"`` into a priced plan.

The registry (:mod:`repro.core.engines.registry`) declares what each
engine *can* do and roughly what it costs; the planner turns that plus
the data shape into a decision.  The estimator is the same HPC cost
model that sizes processor bursts at paper scale
(:class:`~repro.hpc.cost_model.StageSpec`): a workload is ``work_items``
layer-occurrence lanes, each candidate engine prices them at its
(EWMA-calibrated) per-processor throughput under Amdahl plus a
communication term, and cold substrates are charged their startup cost
(worker spawn, payload staging) — which is exactly why a session that
keeps its substrate warm gets different, better plans than per-call
entry points.  Simulated substrates (device, cluster) are priced too:
they start from conservative seed rates and pay their per-run payload
transfer (H2D upload, trial scatter) in the startup column on *every*
run — a bus earns no warm credit — so ``engine="auto"`` only routes
work onto them once a measured run has calibrated them faster than the
host engines at a shape where the transfer amortises.

Every decision is auditable: :meth:`ExecutionPlan.explain` renders the
candidate table — throughput, processors, Amdahl fraction, startup,
modelled seconds — so ``engine="auto"`` is never a black box.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.engines.registry import auto_candidates, engine_spec
from repro.errors import ConfigurationError
from repro.hpc.cost_model import ThroughputEstimate
from repro.hpc.pool import available_parallelism
from repro.obs import Telemetry

__all__ = ["EngineEstimate", "ExecutionPlan", "EnginePlanner"]

#: Workload kinds the planner understands.
_WORKLOADS = ("aggregate", "serving", "sensitivity")

#: Nominal micro-batch size used to shape a "serving" plan: the cost of
#: one coalesced sweep is what the dispatcher choice should optimise.
_NOMINAL_BATCH = 8


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
        What is being planned (``"aggregate"``, ``"serving"``,
        ``"sensitivity"``).
    engine:
        The chosen registry engine name.
    n_procs:
        Parallelism the choice was priced at.
    transport:
        Payload transport the substrate will use (``"shm"``,
        ``"pickle"``, or ``"inline"`` for in-process sweeps).
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
    """Prices auto-candidate engines for a session's workloads.

    Parameters
    ----------
    n_workers:
        Host parallelism pooled substrates are priced at (``None`` =
        the machine's available parallelism).
    smoothing:
        EWMA weight for throughput calibration; each observed staged run
        (:meth:`observe`) sharpens later plans.
    telemetry:
        An :class:`~repro.obs.Telemetry` plane to report into (a session
        passes its own).  Each plan emits a ``plan.decision`` event with
        the chosen engine and every priced alternative; each calibration
        update emits ``plan.calibration``.  ``None`` = a private plane.
    """

    def __init__(self, n_workers: int | None = None,
                 smoothing: float = 0.3,
                 telemetry: Telemetry | None = None) -> None:
        self.n_workers = (n_workers if n_workers is not None
                          else available_parallelism())
        if self.n_workers < 1:
            self.n_workers = 1
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._m_plans = self.telemetry.counter("planner.plans")
        self._m_calibrations = self.telemetry.counter("planner.calibrations")
        #: Per-engine calibrated throughput, seeded from the registry.
        self._estimates: dict[str, ThroughputEstimate] = {}

    def _estimate_for(self, name: str) -> ThroughputEstimate:
        est = self._estimates.get(name)
        if est is None:
            est = ThroughputEstimate(engine_spec(name).lane_throughput)
            self._estimates[name] = est
        return est

    def throughput(self, name: str) -> float:
        """Current lanes/s/proc estimate for one engine."""
        return self._estimate_for(name).rate

    def observe(self, engine: str, lanes: float, seconds: float,
                n_procs: int = 1) -> None:
        """Calibrate one engine's throughput from a measured run."""
        est = self._estimate_for(engine)
        est.observe(lanes, seconds, n_procs)
        self._m_calibrations.inc()
        self.telemetry.gauge(
            f"planner.throughput.{engine}").set(est.rate)
        self.telemetry.event("plan.calibration", engine=engine,
                             lanes_per_second_per_proc=est.rate,
                             n_procs=n_procs)

    def plan(self, workload: str, *, n_trials: int, n_occurrences: int,
             n_layers: int = 1, pool_warm: bool = False,
             pool_degraded: bool = False, transport: str = "shm",
             require_emit_yelt: bool = False) -> ExecutionPlan:
        """Price every auto candidate and choose the cheapest.

        ``pool_warm`` waives process-pool startup (the session already
        paid it); ``pool_degraded`` prices process-pool candidates as
        the serial fallback they have become — one processor, no warm
        credit, noted in ``explain()`` — so a degraded pool is never
        charged as parallel capacity; ``transport`` is recorded for the
        chosen substrate (in-process engines always report
        ``"inline"``); ``require_emit_yelt`` marks engines without YELT
        support ineligible (a capability constraint, visible in
        ``explain()``).
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

        estimates: list[EngineEstimate] = []
        for spec in auto_candidates():
            est = self._estimate_for(spec.name)
            procs = spec.procs_for(self.n_workers)
            if require_emit_yelt and not spec.supports_emit_yelt:
                estimates.append(EngineEstimate(
                    engine=spec.name, n_procs=procs,
                    throughput_per_proc=est.rate, calibrated=est.calibrated,
                    runtime_seconds=float("inf"), startup_seconds=0.0,
                    eligible=False, note="does not emit YELTs",
                ))
                continue
            if spec.parallelism == "process-pool" and self.n_workers <= 1:
                estimates.append(EngineEstimate(
                    engine=spec.name, n_procs=1,
                    throughput_per_proc=est.rate, calibrated=est.calibrated,
                    runtime_seconds=float("inf"), startup_seconds=0.0,
                    eligible=False, note="single-core host (no pool to win on)",
                ))
                continue
            note = ""
            if spec.parallelism == "process-pool" and pool_degraded:
                # The pool has fallen back to serial inline execution:
                # price what will actually run (one processor, no spawn
                # to pay — and no warm parallel capacity to credit).
                procs = 1
                note = "pool degraded — priced as serial fallback"
            runtime = spec.stage_spec(lanes, est.rate).runtime_seconds(procs)
            startup = 0.0
            if (spec.parallelism == "process-pool" and not pool_warm
                    and not pool_degraded):
                startup = spec.startup_seconds
            elif spec.parallelism in ("simulated-device", "simulated-cluster"):
                # A device/cluster run re-ships the YET over its link
                # every time — unlike a warm pool, a bus earns no warm
                # credit, so launch + transfer are charged on every run.
                transfer = spec.transfer_seconds(max(n_occurrences, 1))
                startup = spec.startup_seconds + transfer
                if transfer > 0:
                    note = "per-run payload transfer charged in startup"
            estimates.append(EngineEstimate(
                engine=spec.name, n_procs=procs,
                throughput_per_proc=est.rate, calibrated=est.calibrated,
                runtime_seconds=runtime, startup_seconds=startup,
                note=note,
            ))
        eligible = [e for e in estimates if e.eligible]
        if not eligible:
            raise ConfigurationError(
                "no auto-candidate engine is eligible on this host"
            )
        chosen = min(eligible, key=lambda e: e.total_seconds)
        chosen_spec = engine_spec(chosen.engine)
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
            transport=(transport if chosen_spec.parallelism == "process-pool"
                       else "inline"),
            n_trials=int(n_trials),
            n_occurrences=int(n_occurrences),
            n_layers=n_layers,
            work_items=lanes,
            estimates=tuple(estimates),
        )
