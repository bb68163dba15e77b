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
                 "DeviceError", "ClusterError", "StorageError",
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
    """The refusal of a foreign trial set is raised from one function,
    the session's own, and neither the session nor the service takes a
    caller-built ``Dispatcher``: every entry point rides a session."""
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
    assert raisers == ["session/session.py:check_yet"]


def test_session_surface_locked():
    """The session layer's public names ride the root namespace."""
    import repro

    assert repro.RiskSession is repro.session.RiskSession
    assert repro.ExecutionPlan is repro.session.ExecutionPlan
    assert repro.EngineSpec is repro.core.engines.EngineSpec
    # the registry surface the planner is built on
    from repro.core.engines import available_engines, engine_spec

    for name in available_engines():
        assert engine_spec(name).name == name


def test_legacy_entry_points_resolve_deprecation_free(tiny_workload):
    """The classic constructors run on a private session now, but must
    keep working without a whisper of a deprecation."""
    import warnings

    import repro

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = repro.AggregateAnalysis(
            tiny_workload.portfolio, tiny_workload.yet
        ).run("vectorized")
        assert result.engine == "vectorized"
        with repro.PricingService(tiny_workload.yet) as svc:
            assert svc.quote(tiny_workload.portfolio.layers[0]).premium > 0
        assert repro.get_engine("vectorized").name == "vectorized"


def test_kernel_sweep_signatures_locked():
    """A sweep takes a whole-trial block and one routing override; the
    row-buffer bound is the kernel's, set at construction.  A knob may
    not come back without this test changing."""
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
    assert params(PortfolioKernel.run) == raw
    assert params(PortfolioKernel.sweep_segments) == [
        ("self", False), ("segments", False), ("event_ids", False),
        ("sublinear", True)]
    assert not inspect.signature(VectorizedEngine).parameters
    assert list(inspect.signature(InlineDispatcher).parameters) == [
        "telemetry"]
    assert {name for name in ROUTING_COUNTERS if "fallback" in name} == {
        "kernel.fallback.error_bound", "kernel.fallback.sublinear_off"}


def test_engine_spec_and_planner_knobs_locked():
    """``EngineSpec`` is the capability record the code reads and the
    planner takes the host's width and a telemetry plane; what ``auto``
    prices is the planner's own table.  A knob may not come back
    without this test changing."""
    import dataclasses
    import inspect

    from repro.core.engines import EngineSpec
    from repro.session import EnginePlanner

    assert [f.name for f in dataclasses.fields(EngineSpec)] == [
        "name", "factory", "summary", "supports_emit_yelt"]
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

    # An engine is configured by building it, a book's dense/CSR
    # threshold where its lookup is built: the drivers and the entry
    # points take neither constructor keywords nor the threshold.
    from repro import (AggregateAnalysis, PricingService, RiskSession,
                       get_engine)
    from repro.core import OutOfCoreEngine, StoredYet
    from repro.core.engines import MulticoreEngine, VectorizedEngine

    def keywords(func):
        return [name for name in inspect.signature(func).parameters
                if name != "self"]

    assert keywords(MulticoreEngine.__init__) == ["n_workers", "transport"]
    assert keywords(MulticoreEngine.riding) == ["dispatcher"]
    # A staged kernel and a trial span's read are decided by the code,
    # not set: the pooled dispatcher and the index take no new knob.
    from repro.core.tables import EventIndex
    from repro.serve.dispatch import PooledDispatcher

    assert keywords(PooledDispatcher.__init__) == [
        "n_workers", "transport", "telemetry"]
    # One read method: every by-event row of a sweep in one call.
    assert keywords(EventIndex.occurrences) == ["events", "t0", "t1"]
    assert [name for name in vars(EventIndex)
            if callable(getattr(EventIndex, name))
            and not name.startswith("_")] == ["occurrences", "snapshot"]
    # The output slab is the kernel slab's class, with no knob of its own.
    from repro.hpc.shm import ShmSlab

    assert keywords(ShmSlab.__init__) == ["capacity_bytes"]
    # Out-of-core is the host engine over a stored source: no parameter,
    # and no door beside the host engines' ``run``.
    assert keywords(StoredYet.__init__) == ["store", "table_name", "n_trials"]
    assert not inspect.signature(OutOfCoreEngine).parameters

    def surface(cls):
        return {name for name in dir(cls) if not name.startswith("_")}

    assert surface(OutOfCoreEngine) == surface(VectorizedEngine) == {
        "close", "dispatcher", "emits_yelt", "name", "riding", "run",
        "source"}
    assert OutOfCoreEngine.source is StoredYet
    assert keywords(RiskSession.__init__) == [
        "yet", "portfolio", "n_workers", "transport", "volatility_loading",
        "tail_loading", "telemetry"]
    assert keywords(RiskSession.aggregate) == [
        "portfolio", "engine", "emit_yelt"]
    assert keywords(RiskSession.engine) == ["name"]
    assert keywords(PricingService.__init__) == [
        "yet", "engine", "volatility_loading", "tail_loading", "batch",
        "cache", "slo_seconds", "max_pending", "session"]
    assert keywords(AggregateAnalysis.run) == ["engine", "emit_yelt"]
    from repro.core.engines import MapReduceEngine

    assert keywords(MapReduceEngine.__init__) == [
        "dfs", "n_splits", "n_reducers"]
    for name in ("device", "mapreduce"):
        with pytest.raises(TypeError, match="dense_max_entries"):
            get_engine(name, dense_max_entries=1)
