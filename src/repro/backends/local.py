"""The local engine behind the backend interface.

``LocalBackend`` is the identity element of the backend family: ``sync``
just adopts the storage reference (no copy — the engine already owns the
data), a *hinted* execution runs the given tree verbatim through the
planner/executor, and a *native* execution runs the full optimizer
pipeline through :func:`~repro.optimizer.pipeline.optimize_and_run`, so
it executes the strategy the optimizer chose.  It exists so routers can
treat every destination uniformly; the service's default ``local`` route
does not go through this class but reaches the same
:func:`repro.engine.executor.execute` dispatch directly.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.algebra.relation import Relation
from repro.backends.base import BackendCapabilities, ExecutionBackend, register_backend
from repro.core.expressions import Expression
from repro.engine.storage import Storage
from repro.util.errors import EvaluationError

_CAPS = BackendCapabilities(
    name="local",
    dialect="none",
    supports_hints=True,
    native_optimizer=False,
    persistent=True,
)


class LocalBackend(ExecutionBackend):
    """Run queries on the in-process engine through the backend interface."""

    def __init__(self) -> None:
        self._storage: Optional[Storage] = None
        self._generation: Optional[tuple] = None
        self.counters: Dict[str, int] = {
            "syncs": 0,
            "sync_hits": 0,
            "queries": 0,
            "hinted_queries": 0,
        }

    @property
    def capabilities(self) -> BackendCapabilities:
        return _CAPS

    def sync(self, storage: Storage) -> bool:
        self.counters["syncs"] += 1
        generation = storage.generation
        if storage is self._storage and generation == self._generation:
            self.counters["sync_hits"] += 1
            return False
        self._storage = storage
        self._generation = generation
        return True

    def execute(
        self,
        expr: Expression,
        hint: Optional[Expression] = None,
        fingerprint: Optional[str] = None,
    ) -> Relation:
        if self._storage is None:
            raise EvaluationError("local backend has no data; call sync() first")
        self.counters["queries"] += 1
        if hint is not None:
            from repro.engine.executor import execute

            self.counters["hinted_queries"] += 1
            return execute(hint, self._storage).relation
        from repro.optimizer.pipeline import optimize_and_run

        _plan, execution = optimize_and_run(expr, self._storage)
        return execution.relation

    def close(self) -> None:
        self._storage = None

    def snapshot(self) -> Dict[str, object]:
        return {"backend": "local", **self.counters}


register_backend("local", LocalBackend)
