"""Shared fixtures: deterministic small workloads and RNGs."""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import random

import numpy as np
import pytest

from repro.bench.workloads import build_layer_workload, build_portfolio_workload
from repro.core.layer import Layer
from repro.core.tables import YET_SCHEMA, EltTable, YetTable
from repro.data.columnar import ColumnTable
from repro.util.rng import RngHierarchy

#: One ELT row at event 10**9: a book holding it has a wide id range,
#: past ``DENSE_MAX_ENTRIES`` (looked up by ``searchsorted``, its rows
#: priced by events), and no test YET reads it.
FAR_ROW = EltTable.from_arrays([10**9], [1.0], contract_id=10**6)


def make_yet(trials, event_ids, n_trials) -> YetTable:
    """A YET over raw trial-sorted ``(trial, event_id)`` columns (``seq``
    zeros: nothing prices off it); test modules import it from here."""
    table = ColumnTable.from_arrays(
        YET_SCHEMA, trial=np.asarray(trials, dtype=np.int64),
        seq=np.zeros(len(trials), dtype=np.int32),
        event_id=np.asarray(event_ids, dtype=np.int64))
    return YetTable(table, n_trials)


@contextlib.contextmanager
def multicore(n_workers=None):
    """A ``MulticoreEngine`` riding a ``PooledDispatcher`` of its own,
    closed on exit (an engine owns no pool); test modules import it
    from here."""
    from repro.core.engines import MulticoreEngine
    from repro.serve.dispatch import PooledDispatcher

    with PooledDispatcher(n_workers=n_workers) as dispatcher:
        yield MulticoreEngine.riding(dispatcher)


def csr_elts(elts) -> tuple:
    """``elts`` plus :data:`FAR_ROW`: the same losses for every event a
    test YET holds, in a book of a wide id range."""
    return (*elts, FAR_ROW)


def as_csr(layer: Layer) -> Layer:
    """``layer`` priced off its book's twin of a wide id range (same id,
    terms and losses); layers over one book keep sharing one twin."""
    weights = None if layer.weights is None else (*layer.weights, 1.0)
    return Layer(layer.layer_id, csr_elts(layer.elts), layer.terms,
                 weights=weights)

def _probe_in_worker(probe, yet_handles):  # pragma: no cover - in a worker
    from repro.serve import dispatch

    return os.getpid(), probe(dispatch._attach_yet(yet_handles))


def worker_probes(dispatcher, probe, n_tasks=8) -> dict:
    """``{pid: probe(yet)}`` over ``n_tasks`` tasks on a pooled
    ``dispatcher``'s workers, through ``pool.starmap`` with the staged
    YET handles: ``yet`` is the copy a worker keeps for them, the one
    its block tasks sweep.  No answer may come from the calling
    process."""
    seen = dict(dispatcher.pool.starmap(
        _probe_in_worker, [(probe, dispatcher._yet_handles)] * n_tasks))
    assert os.getpid() not in seen, "probe must run in the workers"
    return seen


def _segments_mapped():  # pragma: no cover - in a worker
    """``{segment name: deleted?}`` over the shared-memory segments this
    process maps (``/proc/self/maps``; the pool's semaphores aside)."""
    mapped = {}
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.rstrip("\n").split(maxsplit=5)[5:]
            if path and path[0].startswith("/dev/shm/"):
                name = path[0][len("/dev/shm/"):]
                deleted = name.endswith(" (deleted)")
                name = name.removesuffix(" (deleted)")
                if not name.startswith("sem."):
                    mapped[name] = mapped.get(name, False) or deleted
    return mapped


def _mapped_after_a_block_task(payload, _yet):  # pragma: no cover - in a worker
    from repro.serve import dispatch

    dispatch._sweep_trials_handles(payload, 0, 1)
    return _segments_mapped()


def worker_mappings(dispatcher) -> dict:
    """``{pid: {segment name: deleted?}}``: what each worker of a pooled
    ``dispatcher`` maps, read off its ``/proc/self/maps`` through
    :func:`worker_probes` right after it runs a block task (trial 0, the
    same bytes again) naming the staged YET, the staged kernel and the
    output slab — so a worker the last run's tasks missed is read on
    the same footing as one they reached."""
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps on this host")
    kernel, kernel_handles = dispatcher._staged
    yet_handles = dispatcher._yet_handles
    output = dispatcher._output.reserve((kernel.n_layers,
                                         yet_handles.n_trials))
    payload = pickle.dumps((yet_handles, kernel_handles, output))
    return worker_probes(dispatcher, functools.partial(
        _mapped_after_a_block_task, payload))


def pytest_addoption(parser):
    parser.addoption(
        "--shuffle-seed", type=int, default=None, metavar="N",
        help="run the collected tests in a pseudo-random order seeded by N "
             "(the order-independence audit; pytest-randomly is not "
             "installed here)")


def pytest_collection_modifyitems(config, items):
    seed = config.getoption("--shuffle-seed")
    if seed is not None:
        # From the sorted node ids, so a seed names one order whatever
        # the collection order was.
        items.sort(key=lambda item: item.nodeid)
        random.Random(seed).shuffle(items)


def pytest_report_header(config):
    seed = config.getoption("--shuffle-seed")
    return None if seed is None else f"shuffle-seed: {seed}"


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture()
def hier() -> RngHierarchy:
    return RngHierarchy(12345)


@pytest.fixture(scope="session")
def tiny_workload():
    """1 layer, 2 small ELTs, 200 trials — fast enough for every engine."""
    return build_layer_workload(
        n_trials=200, mean_events_per_trial=25.0, n_elts=2,
        elt_rows=150, catalog_events=500, seed=99,
    )


@pytest.fixture(scope="session")
def small_portfolio_workload():
    """3 layers x 2 ELTs, 300 trials — multi-layer coverage."""
    return build_portfolio_workload(
        n_layers=3, n_trials=300, mean_events_per_trial=30.0,
        elts_per_layer=2, elt_rows=120, catalog_events=600, seed=101,
    )


@pytest.fixture(scope="session", autouse=True)
def no_leaked_shm_segments():
    """The whole suite must unlink every shared-memory segment it created.

    Arenas and slabs are owned by engines, dispatchers, services, and
    sessions; a test that forgets to close one would leave its segment
    in /dev/shm past process exit on a crash.  The atexit safety net
    hides such leaks from users, so this fixture is where they get
    caught.  (The ``risk_session`` factory below closes its sessions for
    exactly this reason.)
    """
    yield
    from repro.hpc import shm

    leaked = shm.active_segment_names()
    assert not leaked, (
        f"shared-memory segments leaked by the suite: {sorted(leaked)}"
    )


@pytest.fixture(autouse=True)
def _chaos_retries_without_backoff(request, monkeypatch):
    """A ``chaos`` test retries without the pool's backoff sleeps: its
    recovery is asserted in counts, never in wall time."""
    if request.node.get_closest_marker("chaos") is not None:
        from repro.hpc import pool

        monkeypatch.setattr(pool, "BACKOFF_SECONDS", 0.0)


@pytest.fixture()
def risk_session():
    """Factory for RiskSessions that are guaranteed closed at test end.

    Usage: ``session = risk_session(yet, portfolio, n_workers=2)``.  The
    teardown close is idempotent, so tests exercising explicit ``close()``
    / context-manager paths can still use the factory.
    """
    from repro.session import RiskSession

    sessions = []

    def make(yet, portfolio=None, **kwargs) -> RiskSession:
        session = RiskSession(yet, portfolio, **kwargs)
        sessions.append(session)
        return session

    yield make
    for session in sessions:
        session.close()


@pytest.fixture()
def pricing_service(risk_session):
    """Factory for a pricing service on its own session, closed at test
    end.  Usage: ``svc = pricing_service(yet, cache=CachePolicy(0))``;
    the keywords are ``RiskSession.pricing_service``'s, with the inline
    dispatcher unless ``engine`` says otherwise."""

    def make(yet, **kwargs):
        kwargs.setdefault("engine", "inline")
        return risk_session(yet).pricing_service(**kwargs)

    return make
