"""Exception hierarchy for the :mod:`repro` risk-analytics library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming
errors (``TypeError`` etc. are still allowed to escape where appropriate).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class SchemaError(ReproError):
    """A table was given data inconsistent with its declared schema."""


class CapacityError(ReproError):
    """A device plan or allocation exceeded its configured capacity."""


class StorageError(ReproError):
    """A DFS / chunk-store operation failed (missing file, corrupt block)."""


class MapReduceError(ReproError):
    """A MapReduce job was misconfigured or a task failed permanently."""


class EngineError(ReproError):
    """An aggregate-analysis engine received an unsupported workload."""


class AnalysisError(ReproError):
    """A statistical analysis was requested on insufficient or invalid data."""


class AdmissionError(ReproError):
    """The serving layer shed a request (queue full or latency SLO at risk)."""


class ExecutionError(ReproError):
    """A supervised parallel execution failed terminally.

    Raised by :class:`~repro.hpc.pool.WorkPool` (and surfaced unchanged
    by the dispatchers, engines, and the pricing service) once a task's
    retry budget (:data:`repro.hpc.pool.MAX_RETRIES`) is exhausted —
    never for a transient worker death or deadline miss, which
    supervision absorbs by resubmitting.
    Carries the *failure chain*: every underlying exception observed
    across the attempts, oldest first, so operators see the whole story
    instead of the last raw executor traceback.
    """

    def __init__(self, message: str, *, attempts: int = 0,
                 failures: tuple = ()) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.failures = tuple(failures)

    @property
    def failure_chain(self) -> tuple[str, ...]:
        """One ``"ExcType: message"`` line per observed failure."""
        return tuple(f"{type(f).__name__}: {f}" for f in self.failures)
