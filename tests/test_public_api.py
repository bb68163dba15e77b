"""The public import surface: everything advertised must resolve.

A release-gating test: every name in each package's ``__all__`` must be
importable and be the object its module defines — no stale exports, no
circular-import landmines hiding until a user's first import.
"""

import ast
import importlib
import pathlib

import pytest

PACKAGES = [
    "repro",
    "repro.util",
    "repro.data",
    "repro.hpc",
    "repro.catmod",
    "repro.core",
    "repro.core.engines",
    "repro.dfa",
    "repro.analytics",
    "repro.bench",
    "repro.serve",
    "repro.session",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    mod = importlib.import_module(package)
    assert hasattr(mod, "__all__"), f"{package} must declare __all__"
    for name in mod.__all__:
        assert hasattr(mod, name), f"{package}.{name} is exported but missing"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_quickstart_docstring_code_path():
    """The README/package-docstring quickstart must actually run."""
    import repro

    wl = repro.bench.companion_study_workload(n_trials=200)
    with repro.RiskSession(wl.yet, wl.portfolio) as session:
        result = session.aggregate()
        assert result.details["plan"].explain()
        quotes = session.quote_many(list(wl.portfolio))
        assert len(quotes) == wl.portfolio.n_layers
    report = repro.regulator_report(
        repro.RiskMetrics.from_ylt(result.portfolio_ylt)
    )
    assert "Probable Maximum Loss" in report


def test_engine_registry_matches_docs():
    import repro

    assert repro.available_engines() == [
        "device", "mapreduce", "multicore", "sequential", "vectorized",
    ]


def test_errors_hierarchy():
    from repro import errors

    for name in ("ConfigurationError", "SchemaError", "CapacityError",
                 "StorageError",
                 "MapReduceError", "EngineError", "AnalysisError",
                 "AdmissionError"):
        exc_type = getattr(errors, name)
        assert issubclass(exc_type, errors.ReproError)


def test_serve_names_exported_from_root():
    """The serving layer's facade and configs ride the root namespace."""
    import repro

    assert repro.PricingService is repro.serve.PricingService
    assert repro.BatchPolicy is repro.serve.BatchPolicy
    assert repro.CachePolicy is repro.serve.CachePolicy


def _unresolved_repro_names(path):
    """``repro`` names a script imports or reads off the package that
    the installed package does not have (the script is parsed, never
    run)."""
    import repro

    missing = []

    def resolve(obj, names, label):
        for name in names:
            if not hasattr(obj, name):
                try:
                    importlib.import_module(f"{obj.__name__}.{name}")
                except (ImportError, AttributeError):
                    missing.append(f"{path.name}:{label}")
                    return
            obj = getattr(obj, name)

    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            dotted = [f"{node.module}.{alias.name}" for alias in node.names
                      if node.level == 0]
        elif isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            parts = [node.attr]
            while isinstance(node.value, ast.Attribute):
                node = node.value
                parts.append(node.attr)
            root = node.value.id if isinstance(node.value, ast.Name) else ""
            dotted = [".".join([root, *reversed(parts)])]
        else:
            continue
        for name in dotted:
            head, *rest = name.split(".")
            if head == "repro":
                resolve(repro, rest, name)
    return missing


def test_examples_and_bench_runners_name_only_what_the_package_has():
    """The examples and the ``benchmarks/bench_*.py`` runners are too
    slow for tier-1, so nothing else notices when a PR deletes a public
    name one of them imports: every ``from repro… import name`` and
    every ``repro.a.b`` chain in them must resolve."""
    root = pathlib.Path(__file__).resolve().parents[1]
    scripts = sorted([*root.glob("examples/*.py"),
                      *root.glob("benchmarks/*.py")])
    assert len(scripts) >= 20
    missing = [name for path in scripts
               for name in _unresolved_repro_names(path)]
    assert not missing, missing


def test_a_script_naming_a_deleted_module_is_caught(tmp_path):
    script = tmp_path / "stale.py"
    script.write_text("import repro\n"
                      "from repro.dfa.gone import PricingQuote\n"
                      "from repro.serve import PricingService, Nope\n"
                      "repro.bench.no_such_workload()\n"
                      "repro.RiskSession(1).quote(2)\n")
    assert _unresolved_repro_names(script) == [
        "stale.py:repro.dfa.gone.PricingQuote",
        "stale.py:repro.serve.Nope",
        "stale.py:repro.bench.no_such_workload"]


def test_removed_names_stay_removed(tmp_path):
    """The experiment harness left the library for ``benchmarks/``, and
    the schedulers and the occupancy model went with their error type;
    the simulated GPU's memory spaces, launch model and kernel body went
    when the device engine began pricing through the block task; and
    the entry points that took a YET beside a session went with the YET
    swap and the refusal of a foreign trial set; the settings no caller
    set went to the modules that decide them; the pool initializer
    went when a task began naming its YET as handles; and the second
    slab verb, the one-array arena verb and the slab-generation name
    protocol went when a worker began holding one payload per role; and
    a book's dense table, its kind and the kernel's dense/CSR split
    went when a book began to be stored one way, as its sorted
    entries; and the YET's whole-table index and profile cache, the
    segments' references back to them and the whole-YET profile slice
    went when a trial span began to carry its own stream and what is
    derived from it, with the per-call gather and the device engine's
    second trial cut; and the per-call task policy, the pool's map and
    its health snapshot went when the pool began only to supervise, its
    settings module constants and its counts read off the plane; and
    the out-of-core engine, an engine's close, its pool, the dispatcher
    it built and its YELT flag went when an engine began to ride a
    dispatcher someone else owns."""
    import inspect

    from repro.hpc import WorkPool

    removed = ["repro.bench.experiments", "repro.bench.harness",
               "repro.bench.time_call", "repro.util.timing",
               "repro.hpc.scheduler", "repro.hpc.occupancy",
               "repro.hpc.StaticScheduler", "repro.errors.ClusterError",
               "repro.hpc.kernel", "repro.hpc.memory",
               "repro.hpc.SimulatedGpu", "repro.hpc.MemorySpace",
               "repro.hpc.TransferLedger", "repro.hpc.Kernel",
               "repro.hpc.LaunchStats", "repro.errors.DeviceError",
               "repro.AggregateAnalysis", "repro.core.AggregateAnalysis",
               "repro.core.simulation", "repro.PricingService.resimulate",
               "repro.serve.ResultCache.invalidate_yet",
               "repro.RiskSession.check_yet",
               "repro.config", "repro.DEFAULTS", "repro.ReproConfig",
               "repro.hpc.DeviceProperties.from_config",
               "repro.core.PortfolioKernel.from_portfolio",
               "repro.core.kernels.DEFAULT_BLOCK_OCCURRENCES",
               "repro.hpc.WorkPool.starmap_shared",
               "repro.hpc.shm.HandleShipment",
               "repro.hpc.shm.ShmSlab.pack", "repro.hpc.shm.SharedArena.share",
               "repro.hpc.shm._SLAB_NAME_RE",
               "repro.hpc.shm._evict_stale_slab_mappings",
               "repro.core.LossLookup.kind", "repro.core.LossLookup.table_array",
               "repro.core.LossLookup.nbytes",
               "repro.core.PortfolioKernel.dense_stack",
               "repro.core.PortfolioKernel.sparse_ids",
               "repro.core.PortfolioKernel.sparse_values",
               "repro.core.PortfolioKernel.sparse_offsets",
               "repro.core.PortfolioKernel.dense_source",
               "repro.core.PortfolioKernel.sparse_source",
               "repro.core.PortfolioKernel.n_dense",
               "repro.core.PortfolioKernel.n_sparse",
               "repro.core.lookup.dense_gather_into",
               "repro.core.lookup.sparse_gather_into",
               "repro.core.lookup.gather",
               "repro.core.tables.YetTable.event_index",
               "repro.core.tables.YetTable.profiles",
               "repro.core.tables.YetTable._indexes",
               "repro.core.tables.YetTable._segments",
               "repro.core.tables.YetTable._span_index",
               "repro.core.tables.BookProfile.trial_range",
               "repro.core.tables.TrialSegments._within",
               "repro.core.tables.TrialSegments._events",
               "repro.core.tables.EventIndex.t0",
               "repro.core.tables.EventIndex.builds",
               "repro.core.tables.EventIndex.snapshot",
               "repro.core.tables.TrialSegments.trial_column",
               "repro.core.kernels.PortfolioKernel._gather_store",
               "repro.core.engines.device._trial_chunks",
               "repro.TaskPolicy", "repro.hpc.TaskPolicy",
               "repro.hpc.pool.TaskPolicy", "repro.hpc.WorkPool.map",
               "repro.hpc.PoolHealth.snapshot",
               "repro.hpc.pool.WorkPool._supervised_loop",
               "repro.core.OutOfCoreEngine",
               "repro.core.engines.host.OutOfCoreEngine",
               "repro.core.engines.Engine.emits_yelt",
               "repro.core.engines.MulticoreEngine.close",
               "repro.core.engines.MulticoreEngine.pool",
               "repro.core.engines.VectorizedEngine.close",
               "repro.core.engines.host.HostEngine._build_dispatcher"]
    script = tmp_path / "removed.py"
    script.write_text("import repro\n" + "\n".join(removed) + "\n")
    assert _unresolved_repro_names(script) == [
        f"removed.py:{name}" for name in removed]
    assert "shared" not in inspect.signature(WorkPool.ensure_started).parameters
    assert list(inspect.signature(WorkPool).parameters) == [
        "n_workers", "telemetry"]
    assert list(inspect.signature(WorkPool.starmap).parameters) == [
        "self", "fn", "arg_tuples", "deadline_seconds", "meanwhile"]
    from repro.core.tables import EventIndex, TrialSegments

    assert list(inspect.signature(TrialSegments).parameters) == [
        "offsets", "event_ids"]
    assert list(inspect.signature(EventIndex).parameters) == ["segments"]


def test_one_definition_per_paper_experiment():
    """Each of E1-E12 is defined once, as ``run_eNN`` beside its bench
    file (E1 and E2 share ``run_e01``), and the library defines none."""
    import collections
    import re

    root = pathlib.Path(__file__).resolve().parents[1]

    def defined(paths):
        return [match.group(1) for path in paths
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and (match := re.match(r"run_e(\d+)", node.name))]

    assert defined(sorted((root / "src" / "repro").rglob("*.py"))) == []
    numbers = collections.Counter(
        int(n) for n in defined(sorted((root / "benchmarks").rglob("*.py"))))
    assert numbers == {n: 1 for n in (1, *range(3, 13))}


def test_one_door_from_a_kernel_to_an_answer():
    """``sweep_segments`` is called from the kernel module itself and
    from the dispatchers' one block task — nowhere else under
    ``src/repro``: an engine goes through a ``Dispatcher``, whether its
    YET is in memory or stored."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    calls = {}
    for path in sorted(src.rglob("*.py")):
        n = sum(isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "sweep_segments"
                for node in ast.walk(ast.parse(path.read_text())))
        if n:
            calls[path.relative_to(src).as_posix()] = n
    assert calls.pop("core/kernels.py") >= 1
    assert calls == {"serve/dispatch.py": 1}


def test_no_engine_keeps_a_pricing_loop_of_its_own():
    """No engine applies occurrence terms itself: each prices through the
    fused kernel, so none keeps a per-layer loop beside the block task."""
    engines = (pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
               / "core" / "engines")
    calls = [path.name for path in sorted(engines.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "apply_occurrence"]
    assert calls == []


def test_one_numeric_contract():
    """Every registered engine but the scalar oracle is the host driver:
    it prices through a dispatcher's block task, so its answers are
    ``np.array_equal`` to ``vectorized``'s."""
    from repro.core.engines import available_engines, engine_class
    from repro.core.engines.host import HostEngine

    assert [name for name in available_engines()
            if not issubclass(engine_class(name), HostEngine)] == [
        "sequential"]


def test_one_measured_rate_per_substrate():
    """A ``ThroughputEstimate`` is built by a ``Dispatcher`` and nowhere
    else under ``src/repro``: the planner and serve admission read the
    rate of the dispatcher that runs the work, not a calibrator of
    their own."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    built = [path.relative_to(src).as_posix()
             for path in sorted(src.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "ThroughputEstimate"]
    assert built == ["serve/dispatch.py"]


def test_a_substrate_has_one_owner_the_session():
    """No entry point takes a YET beside a session, so nothing refuses
    a foreign trial set, and neither the session nor the service takes
    a caller-built ``Dispatcher``: every entry point rides a session."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    raisers = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(isinstance(node, ast.Raise)
                   and "different YET" in ast.unparse(node)
                   for node in ast.walk(func)):
                raisers.append(f"{path.relative_to(src).as_posix()}:"
                               f"{func.name}")
        if path.relative_to(src).as_posix() in ("serve/service.py",
                                                "session/session.py"):
            assert not [node for node in ast.walk(tree)
                        if isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "isinstance"
                        and "Dispatcher" in ast.unparse(node.args[1])], path
    assert raisers == []


def test_only_the_root_and_the_session_import_the_session():
    """A workload gets its YET from the session it runs on, so no module
    below the session reaches up for one: ``repro.session`` is imported
    only by the package root and by ``repro.session`` itself."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    importers = set()
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                if node.module == "repro":
                    names += [f"repro.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name == "repro.session"
                   or name.startswith("repro.session.") for name in names):
                importers.add(path.relative_to(src).as_posix())
    assert {path for path in importers
            if not path.startswith("session/")} == {"__init__.py"}


def test_one_transport():
    """A payload reaches a worker one way, the shared-memory data plane:
    no transport is chosen anywhere, and no ``"pickle"`` names one."""
    from repro.hpc import shm

    assert [name for name in dir(shm) if "transport" in name.lower()] == []
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    named = [path.relative_to(src).as_posix()
             for path in sorted(src.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and node.value == "pickle"]
    assert named == []


def test_one_stats_surface(tiny_workload):
    """A serving or session count is read from the telemetry plane and
    nowhere else: no ``*Stats`` view class under ``serve/`` or
    ``session/``, no ``stats`` attribute on the service, the session or
    the cache, and no such name exported."""
    import repro.serve
    import repro.session
    from repro.serve import PricingService, ResultCache
    from repro.session import RiskSession

    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    views = [f"{path.relative_to(src).as_posix()}:{node.name}"
             for package in ("serve", "session")
             for path in sorted((src / package).rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ClassDef)
             and node.name.endswith("Stats")]
    assert views == []
    with RiskSession(tiny_workload.yet) as session:
        service = session.pricing_service()
        assert service.telemetry.snapshot()["metrics"]["serve.batches"] == 0
        for obj in (session, service, ResultCache()):
            assert not hasattr(obj, "stats"), type(obj).__name__
    for name in ("CacheStats", "ServeStats", "SessionStats"):
        assert not hasattr(repro.serve, name)
        assert not hasattr(repro.session, name)


def test_session_surface_locked():
    """The session layer's public names ride the root namespace."""
    import repro

    assert repro.RiskSession is repro.session.RiskSession
    assert repro.ExecutionPlan is repro.session.ExecutionPlan
    # the registry surface the planner is built on
    from repro.core.engines import available_engines, engine_class

    for name in available_engines():
        assert engine_class(name).name == name


def test_legacy_entry_points_resolve_deprecation_free(tiny_workload):
    """The root's entry points — the session, its aggregate run and its
    pricing service, and the engine registry — work without a whisper
    of a deprecation."""
    import warnings

    import repro

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with repro.RiskSession(tiny_workload.yet,
                               tiny_workload.portfolio) as session:
            result = session.aggregate(engine="vectorized")
            assert result.engine == "vectorized"
            svc = session.pricing_service()
            assert isinstance(svc, repro.PricingService)
            assert svc.quote(tiny_workload.portfolio.layers[0]).premium > 0
        assert repro.get_engine("vectorized").name == "vectorized"


def test_kernel_sweep_signatures_locked():
    """A sweep takes a whole-trial block and one routing override, and a
    raw run (sweep plus aggregate terms) takes none; the row-buffer
    bound is the kernel's, set at construction.  A knob may not come
    back without this test changing."""
    import inspect

    from repro.core.engines import VectorizedEngine
    from repro.core.kernels import ROUTING_COUNTERS, PortfolioKernel
    from repro.serve.dispatch import InlineDispatcher

    def params(func):
        return [(p.name, p.kind is p.KEYWORD_ONLY)
                for p in inspect.signature(func).parameters.values()]

    raw = [("self", False), ("trials", False), ("event_ids", False),
           ("n_trials", False), ("sublinear", True)]
    assert params(PortfolioKernel.sweep) == raw
    assert params(PortfolioKernel.run) == raw[:-1]
    assert params(PortfolioKernel.sweep_segments) == [
        ("self", False), ("segments", False), ("sublinear", True)]
    assert not inspect.signature(VectorizedEngine).parameters
    assert list(inspect.signature(InlineDispatcher).parameters) == [
        "telemetry"]
    assert {name for name in ROUTING_COUNTERS if "fallback" in name} == {
        "kernel.fallback.error_bound", "kernel.fallback.sublinear_off"}


def test_lookup_layout_and_row_buffer_are_no_parameters():
    """A book is stored one way, its id range alone decides how it is
    looked up, and the row-buffer bound is a constant of the kernel
    class: no builder, cache or handle carries either.  A knob may not
    come back without this test changing."""
    import dataclasses
    import inspect

    from repro.core import (KernelHandles, Layer, LossLookup, Portfolio,
                            PortfolioKernel, SecondaryUncertainty)
    from repro.core.lookup import DENSE_MAX_ENTRIES

    def params(func):
        return [name for name in inspect.signature(func).parameters
                if name not in ("self", "cls")]

    assert params(LossLookup) == ["ids", "values"]
    assert params(LossLookup.from_arrays) == ["event_ids", "values"]
    assert params(LossLookup.from_elt) == ["elt"]
    assert params(LossLookup.from_elts) == ["elts", "weights"]
    assert params(Layer.lookup) == []
    assert params(Portfolio.kernel) == []
    assert params(PortfolioKernel.from_layers) == ["layers", "layer_ids"]
    assert "block_occurrences" not in params(PortfolioKernel.__init__)
    assert params(SecondaryUncertainty.from_layer) == ["layer"]
    assert [f.name for f in dataclasses.fields(KernelHandles)] == [
        "arrays", "layer_ids", "stamp"]
    assert "block_occurrences" not in PortfolioKernel.__slots__
    assert PortfolioKernel.block_occurrences == 32_768
    assert DENSE_MAX_ENTRIES == 4_000_000


def test_engine_spec_and_planner_knobs_locked():
    """The engine class is the record the code reads (no spec object
    beside it) and the planner takes the host's width and a telemetry
    plane; what ``auto`` prices is the planner's own table.  A knob may
    not come back without this test changing."""
    import inspect

    import repro
    from repro.core.engines import Engine, engine_class
    from repro.session import EnginePlanner

    for module in (repro, repro.core, repro.core.engines):
        for name in ("EngineSpec", "engine_spec", "register_engine"):
            assert not hasattr(module, name), (module.__name__, name)
    # No engine declares a YELT capability: every engine emits them.
    assert not hasattr(Engine, "emits_yelt")
    assert not hasattr(engine_class("multicore"), "emits_yelt")
    assert list(inspect.signature(EnginePlanner.__init__).parameters) == [
        "self", "n_workers", "telemetry"]
    assert not hasattr(EnginePlanner, "observe")
    assert not hasattr(EnginePlanner, "throughput")

    # One measured rate per substrate, owned by its dispatcher: the
    # estimate takes no seed or weight, admission takes the estimate.
    from repro.hpc.cost_model import ThroughputEstimate
    from repro.serve import AdmissionController

    assert not inspect.signature(ThroughputEstimate).parameters
    assert list(inspect.signature(AdmissionController.__init__).parameters
                ) == ["self", "slo_seconds", "max_pending", "throughput"]

    # An engine is configured by building it, the id-range cap where a
    # book is looked up: the drivers and the entry
    # points take neither constructor keywords nor the threshold.
    from repro import PricingService, RiskSession, get_engine
    from repro.core import StoredYet, YetTable
    from repro.core.engines import MulticoreEngine, VectorizedEngine

    def keywords(func):
        return [name for name in inspect.signature(func).parameters
                if name != "self"]

    # An engine owns no pool: the multicore engine takes no worker
    # count, only a dispatcher to ride.
    assert keywords(MulticoreEngine.__init__) == []
    assert keywords(MulticoreEngine.riding) == ["dispatcher"]
    # A staged kernel and a trial span's read are decided by the code,
    # not set: the pooled dispatcher and the index take no new knob.
    from repro.core.tables import EventIndex
    from repro.serve.dispatch import PooledDispatcher

    assert keywords(PooledDispatcher.__init__) == [
        "n_workers", "transport", "telemetry"]
    # One read method: every by-event row of a sweep in one call.
    assert keywords(EventIndex.occurrences) == ["events"]
    assert [name for name in vars(EventIndex)
            if callable(getattr(EventIndex, name))
            and not name.startswith("_")] == ["occurrences"]
    # The output slab is the kernel slab's class, with no knob of its own.
    from repro.hpc.shm import ShmSlab

    assert keywords(ShmSlab.__init__) == ["capacity_bytes"]
    # Out-of-core is the vectorized engine over a stored source: no
    # parameter, and no door beside the host engines' ``run``.
    assert keywords(StoredYet.__init__) == ["store", "table_name"]
    assert keywords(StoredYet.write) == [
        "store", "table_name", "yet", "rows_per_chunk"]
    assert not inspect.signature(VectorizedEngine).parameters

    def surface(cls):
        return {name for name in dir(cls) if not name.startswith("_")}

    # An engine rides a dispatcher someone else owns: no close, no with.
    assert surface(MulticoreEngine) == surface(VectorizedEngine) == {
        "dispatcher", "name", "riding", "run", "source"}
    assert not hasattr(VectorizedEngine, "__enter__")
    assert VectorizedEngine.source == (YetTable, StoredYet)
    assert MulticoreEngine.source == (YetTable,)
    assert keywords(RiskSession.__init__) == [
        "yet", "portfolio", "n_workers", "transport", "telemetry"]
    assert keywords(RiskSession.aggregate) == [
        "portfolio", "engine", "emit_yelt"]
    assert keywords(RiskSession.engine) == ["name"]
    # A workload takes the session it runs on, never a YET of its own.
    assert keywords(PricingService.__init__) == [
        "session", "engine", "volatility_loading", "tail_loading", "batch",
        "cache", "slo_seconds", "max_pending"]
    from repro.analytics import term_sensitivities

    assert keywords(term_sensitivities)[:2] == ["session", "layer"]
    from repro.core.engines import MapReduceEngine

    assert keywords(MapReduceEngine.__init__) == [
        "dfs", "n_splits", "n_reducers"]
    from repro.core.engines import DeviceEngine

    assert keywords(DeviceEngine.__init__) == [
        "properties", "max_rows_per_chunk", "use_constant"]
    for name in ("device", "mapreduce"):
        with pytest.raises(TypeError, match="dense_max_entries"):
            get_engine(name, dense_max_entries=1)
