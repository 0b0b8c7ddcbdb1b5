"""Layer tracing from outside the program: wrappers installed for one run.

Each wrapper replaces a name where its caller looks it up (for example
``repro.service.service.optimize_query``, the name ``QueryService`` calls)
and restores it afterwards.  Timed wrappers record a span
``[name, start, end, parent, request]`` in memory; the spans of one
service query share a request id.  Counting wrappers only bump
per-thread counters, because they sit on per-row paths.

A target that no longer exists is skipped and listed in
:attr:`Tracer.missing`, so a refactor of the program degrades the traced
run to zeros for that layer instead of breaking it.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Timed layer boundaries: (span name, targets).  A target is
#: ``"module:attribute"`` or ``"module:Class.method"``.
SPANS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("service.query", ("repro.service.service:QueryService._run",)),
    ("optimizer.simplify", ("repro.optimizer.pipeline:simplify_outerjoins",)),
    ("optimizer.pushdown", ("repro.optimizer.pipeline:push_restrictions",)),
    ("optimizer.graph", (
        "repro.optimizer.pipeline:graph_of",
        "repro.optimizer.pipeline:plan_cache_key",
    )),
    ("optimizer.cache_lookup", ("repro.optimizer.plancache:PlanCache.lookup",)),
    ("optimizer.niceness", ("repro.optimizer.pipeline:theorem1_applies",)),
    ("optimizer.dp", ("repro.optimizer.dp:DPOptimizer.optimize",)),
    ("optimizer.gate", (
        "repro.optimizer.pipeline:join_tree_of",
        "repro.optimizer.pipeline:wcoj_spec_of",
    )),
    ("engine.physical_plan", ("repro.engine.planner:Planner.plan",)),
    ("storage.stats", ("repro.engine.storage:Table.stats",)),
)

#: ``optimize_query`` where the service and ``optimize_and_run`` call it.
PLAN_TARGETS = (
    "repro.service.service:optimize_query",
    "repro.optimizer.pipeline:optimize_query",
)
#: Plan execution, wherever a query's plan is run.
EXEC_TARGETS = (
    "repro.service.service:execute",
    "repro.engine.executor:execute_plan",
    "repro.optimizer.pipeline:execute",
    "repro.optimizer.pipeline:execute_plan",
)
INSERT_TARGET = "repro.engine.storage:Table.insert"
#: Row constructions: ``Row(...)`` and the engine's slot-filling fast path,
#: which skips ``__init__``.
ROW_CONSTRUCTORS = (
    "repro.algebra.tuples:Row.__init__",
    "repro.engine.batch.columns:_fast_row",
    "repro.engine.goj_op:_fast_row",
)
BATCH_CLASS = "repro.engine.batch.columns:ColumnBatch"

#: Root operator class name -> executed strategy (anything else is "dp").
EXECUTED_BY_ROOT = {"YannakakisOp": "yannakakis", "LeapfrogTriejoinOp": "wcoj"}
STRATEGIES = ("dp", "yannakakis", "wcoj")


def _resolve(target: str) -> Tuple[Any, str]:
    """``"module:Owner.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[list] = []
        self.request = 0
        self.in_plan = 0
        self.in_conversion = 0
        self.counts: Optional[Counter] = None


class Tracer:
    """Installs the wrappers; collects spans, counters and per-request facts."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.missing: List[str] = []
        #: request id -> {"chosen": strategy, "executed": strategy}
        self.requests: Dict[int, Dict[str, str]] = defaultdict(dict)
        self._state = _ThreadState()
        self._ids = itertools.count(1)
        self._undo: List[Tuple[Any, str, Any]] = []
        self._all_counts: List[Counter] = []
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------------

    def _counts(self) -> Counter:
        st = self._state
        if st.counts is None:
            st.counts = Counter()
            with self._lock:
                self._all_counts.append(st.counts)
        return st.counts

    def counters(self) -> Counter:
        total: Counter = Counter()
        with self._lock:
            for counts in self._all_counts:
                total.update(counts)
        return total

    def _timed(self, name: str, fn: Callable, on_return=None, flag: Optional[str] = None) -> Callable:
        """Wrap ``fn`` in a span; a call nested in a span of the same name is not a new span."""
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state
            stack = st.stack
            if any(rec[0] == name for rec in stack):
                return fn(*args, **kwargs)
            if stack:
                parent: Optional[list] = stack[-1]
            else:
                parent = None
                st.request = next(tracer._ids)
            rec = [name, perf_counter(), 0.0, parent, st.request]
            tracer.spans.append(rec)
            stack.append(rec)
            if flag:
                setattr(st, flag, getattr(st, flag) + 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if flag:
                    setattr(st, flag, getattr(st, flag) - 1)
            if on_return is not None:
                on_return(rec[4], result)
            return result

        return wrapper

    # -- wrappers with side facts ---------------------------------------------

    def _planned(self, request: int, result: Any) -> None:
        strategy = getattr(result, "strategy", "dp")
        self._counts()[f"optimizer.strategy.{strategy}"] += 1
        self.requests[request]["chosen"] = strategy

    def _executed(self, request: int, result: Any) -> None:
        counts = self._counts()
        root = type(getattr(result, "plan", None)).__name__
        strategy = EXECUTED_BY_ROOT.get(root, "dp")
        counts[f"engine.executed.{strategy}"] += 1
        self.requests[request]["executed"] = strategy
        metrics = getattr(result, "metrics", None)
        if metrics is not None:
            counts["engine.rows_emitted"] += sum(metrics.rows_emitted.values())
            counts["engine.tuples_retrieved"] += metrics.total_retrieved
        relation = getattr(result, "relation", None)
        if relation is not None:
            counts["engine.output_rows"] += len(relation)

    def _insert(self, fn: Callable) -> Callable:
        timed = self._timed("storage.insert", fn)
        tracer = self

        def insert(table, row):
            if tracer._state.in_plan:
                tracer._counts()["optimizer.rows_copied"] += 1
                return fn(table, row)
            return timed(table, row)

        return insert

    def _row_counter(self, fn: Callable) -> Callable:
        """Count Row constructions made inside a traced span."""
        tracer = self

        def construct(*args):
            if tracer._state.stack:
                tracer._counts()["algebra.rows_built"] += 1
            return fn(*args)

        return construct

    def _conversion(self, fn: Callable, size: Callable[[tuple], int], outer: bool) -> Callable:
        tracer = self

        def convert(*args):
            st = tracer._state
            if st.in_conversion:
                return fn(*args)
            counts = tracer._counts()
            counts["engine.batch_conversions"] += 1
            counts["engine.batch_conversions.rows"] += size(args)
            if not outer:
                return fn(*args)
            st.in_conversion += 1
            try:
                return fn(*args)
            finally:
                st.in_conversion -= 1

        return convert

    # -- install / remove -----------------------------------------------------

    def _patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        try:
            owner, attr = _resolve(target)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            if target not in self.missing:
                self.missing.append(target)
            return
        if isinstance(raw, classmethod):
            new: Any = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def install(self) -> "Tracer":
        for name, targets in SPANS:
            for target in targets:
                self._patch(target, lambda fn, name=name: self._timed(name, fn))
        for target in PLAN_TARGETS:
            self._patch(target, lambda fn: self._timed(
                "optimizer.plan", fn, on_return=self._planned, flag="in_plan"))
        for target in EXEC_TARGETS:
            self._patch(target, lambda fn: self._timed(
                "engine.exec", fn, on_return=self._executed))
        self._patch(INSERT_TARGET, self._insert)
        self._patch(f"{BATCH_CLASS}.from_rows",
                    lambda fn: self._conversion(fn, lambda a: len(a[-1]), outer=False))
        self._patch(f"{BATCH_CLASS}.iter_rows",
                    lambda fn: self._conversion(fn, lambda a: a[0].num_rows, outer=False))
        self._patch(f"{BATCH_CLASS}.to_rows",
                    lambda fn: self._conversion(fn, lambda a: a[0].num_rows, outer=True))
        for target in ROW_CONSTRUCTORS:
            self._patch(target, self._row_counter)
        return self

    def remove(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.remove()

    # -- reduction ---------------------------------------------------------------

    def busy(self) -> Dict[str, Tuple[float, int, float]]:
        """Per span name: (total ms, calls, self ms).

        Self time is a span's duration minus its direct children's; the
        spans of one thread nest, so children never overlap.
        """
        child_time: Dict[int, float] = defaultdict(float)
        for name, start, end, parent, _request in self.spans:
            if parent is not None:
                child_time[id(parent)] += end - start
        out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0, 0.0])
        for rec in self.spans:
            name, start, end = rec[0], rec[1], rec[2]
            acc = out[name]
            acc[0] += (end - start) * 1e3
            acc[1] += 1
            acc[2] += (end - start - child_time.get(id(rec), 0.0)) * 1e3
        return {name: (v[0], int(v[1]), v[2]) for name, v in out.items()}

    def strategy_mismatches(self) -> int:
        return sum(
            1 for facts in self.requests.values()
            if "chosen" in facts and "executed" in facts and facts["chosen"] != facts["executed"]
        )

    def export(self) -> List[Dict[str, Any]]:
        """Spans as records with integer parent indexes, for writing out."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        return [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": index.get(id(parent)) if parent is not None else None,
                "request": request,
            }
            for name, start, end, parent, request in self.spans
        ]
