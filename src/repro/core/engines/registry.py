"""The engine registry: one table from a name to its engine class.

The class is the record: its ``name``, what it reads (``source``) and
its docstring.  Every registered engine emits YELTs on request, so no
capability is declared beside them.  What ``engine="auto"`` chooses
between, and at what cost, is not declared here: that table lives in
:mod:`repro.session.planner`.

Unknown names fail *here*, in :func:`engine_class`, with the available
list — not deep inside a run.
"""

from __future__ import annotations

from repro.core.engines.device import DeviceEngine
from repro.core.engines.host import MulticoreEngine, VectorizedEngine
from repro.core.engines.mapreduce_engine import MapReduceEngine
from repro.core.engines.sequential import SequentialEngine
from repro.errors import EngineError

__all__ = ["engine_class", "available_engines", "get_engine"]

_ENGINES = {cls.name: cls for cls in (
    SequentialEngine, VectorizedEngine, DeviceEngine, MulticoreEngine,
    MapReduceEngine)}


def engine_class(name: str) -> type:
    """The engine class registered under ``name``.

    This is the boundary where unknown engine names surface: the error
    carries the available list instead of failing deep inside a run.
    """
    try:
        return _ENGINES[name]
    except KeyError:
        raise EngineError(
            f"unknown engine {name!r}; available: {available_engines()}"
        ) from None


def available_engines() -> list[str]:
    """Names accepted by :func:`get_engine`."""
    return sorted(_ENGINES)


def get_engine(name: str, **kwargs):
    """Construct an engine by registry name (the classic entry point)."""
    return engine_class(name)(**kwargs)
