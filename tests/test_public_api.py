"""The public import surface: everything advertised must resolve.

A release-gating test: every name in each package's ``__all__`` must be
importable and be the object its module defines — no stale exports, no
circular-import landmines hiding until a user's first import.
"""

import importlib

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
        "device", "distributed", "mapreduce", "multicore", "sequential",
        "vectorized",
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


def test_pricing_quote_importable_from_both_homes():
    """PricingQuote moved to a leaf module; the classic import must hold."""
    from repro.dfa.pricing import PricingQuote as via_pricing
    from repro.dfa.quote import PricingQuote as via_quote

    assert via_pricing is via_quote


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
    """The classic constructors are veneers now, but must keep working
    without a whisper of a deprecation."""
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
        with repro.RealTimePricer(tiny_workload.yet) as pricer:
            assert pricer.quote(tiny_workload.portfolio.layers[0]).premium > 0
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
    assert params(VectorizedEngine.__init__) == [
        ("self", False), ("dense_max_entries", False)]
    assert not inspect.signature(InlineDispatcher).parameters
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
