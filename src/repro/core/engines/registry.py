"""The declarative engine registry.

One frozen :class:`EngineSpec` per engine: the constructor plus the
capability surface callers read before they run anything —
``supports_emit_yelt`` (the engine class's) gates event-granularity
requests in the session and the planner.  :func:`get_engine` keeps the
classic constructor behaviour for existing callers.  What ``engine="auto"`` chooses between,
and at what cost, is not declared here: that table lives in
:mod:`repro.session.planner`.

Unknown names fail *here*, at the registry boundary, with the available
list — not deep inside a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import EngineError

__all__ = [
    "EngineSpec",
    "register_engine",
    "engine_spec",
    "available_engines",
    "get_engine",
]


@dataclass(frozen=True)
class EngineSpec:
    """Capability record for one registered engine.

    Attributes
    ----------
    name:
        Registry name (``"vectorized"``, ``"multicore"``...).
    factory:
        Constructor; ``factory(**kwargs)`` must return an
        :class:`~repro.core.engines.base.Engine`.
    summary:
        One-line description of the execution substrate.
    """

    name: str
    factory: Callable = field(repr=False)
    summary: str = ""

    #: Whether ``run(..., emit_yelt=True)`` is accepted (read-only): the
    #: factory's :attr:`~repro.core.engines.base.Engine.emits_yelt`.
    supports_emit_yelt = property(lambda self: self.factory.emits_yelt)

    def __post_init__(self):
        if not self.name:
            raise EngineError("engine spec needs a non-empty name")
        if not callable(self.factory):
            raise EngineError(f"engine {self.name!r}: factory must be callable")


_SPECS: dict[str, EngineSpec] = {}


def register_engine(spec: EngineSpec, *, replace: bool = False) -> EngineSpec:
    """Add a spec to the registry (idempotent only with ``replace``)."""
    if spec.name in _SPECS and not replace:
        raise EngineError(f"engine {spec.name!r} is already registered")
    _SPECS[spec.name] = spec
    return spec


def engine_spec(name: str) -> EngineSpec:
    """The spec registered under ``name``.

    This is the boundary where unknown engine names surface: the error
    carries the available list instead of failing deep inside a run.
    """
    try:
        return _SPECS[name]
    except KeyError:
        raise EngineError(
            f"unknown engine {name!r}; available: {available_engines()}"
        ) from None


def available_engines() -> list[str]:
    """Names accepted by :func:`get_engine`."""
    return sorted(_SPECS)


def get_engine(name: str, **kwargs):
    """Construct an engine by registry name (the classic entry point)."""
    return engine_spec(name).factory(**kwargs)
