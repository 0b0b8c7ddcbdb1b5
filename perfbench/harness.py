"""One benchmark run of one workload, in this process, through ``QueryService``.

``python3 perfbench/run.py`` starts this module in a fresh interpreter
(see ``run.py`` for the isolation it sets up); the benchmark's tests call
:func:`run` directly with small sizes.

A run is: generate the seeded inputs; time set-up (load storage, start
the service) several times; run the workload's round once unmeasured, to
warm the plan cache and pay lazy imports; then repeat the round until
the run's seconds have passed, checking every answer against the algebra
oracle; time set-up again.  Every operation of the round is thus timed
once per round, on the same state, and its latency is its best time over
the rounds (see :class:`Phase`).  With ``trace`` the run measures twice
on fresh set-ups, half the time each: once untraced (the reference for
the tracing overhead) and once with the layer wrappers of :mod:`tracer`
installed around each round's operations.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.algebra.relation import Database
from repro.algebra.tuples import Row
from repro.engine.storage import Storage
from repro.optimizer.plancache import PlanCache
from repro.service import QueryService

import workloads
from tracer import STRATEGIES, Tracer

#: Service threads.  The one client never has two queries in flight, and
#: queries are CPU-bound Python, so a second thread would add no
#: throughput under the interpreter lock.
SERVICE_THREADS = 1
#: Admission queue; the one client never fills it, so nothing is shed.
QUEUE_SIZE = 8
#: Per-query deadline, from submission.  A stalled query fails, not hangs.
DEADLINE_S = 30.0
#: Extra patience for a ticket beyond its deadline before the harness gives up.
GRACE_S = 5.0
#: Set-up is timed in two batches, before and after the measured phase,
#: each of at least SETUP_MIN set-ups and until SETUP_BUDGET_S has passed
#: (at most SETUP_MAX); with fresh state each round, every round's set-up
#: is timed too.  The median of all is reported.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 50, 1.0
#: A measured phase runs at least this many rounds, however short its time.
MIN_ROUNDS = 3
#: Where trace spans are written (relative to the checkout root).
OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_qps": "1/s",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def load(tables: List[workloads.TableSpec]) -> Storage:
    storage = Storage()
    for spec in tables:
        table = storage.create_table(spec.name, spec.attributes, spec.rows)
        for attr in spec.indexes:
            table.create_index(attr)
    return storage


def start_service(storage: Storage) -> QueryService:
    return QueryService(
        storage,
        workers=SERVICE_THREADS,
        queue_size=QUEUE_SIZE,
        plan_cache=PlanCache(),
        default_timeout_s=DEADLINE_S,
    )


def same_bag(answer, expected) -> bool:
    """Bag equality of two relations: same scheme, same row multiplicities."""
    if answer.schema.attributes != expected.schema.attributes:
        return False
    # dict's own comparison: Counter.__eq__ loops in Python.
    return dict.__eq__(answer.counts(), expected.counts())


def percentile(samples: List[float], q: int) -> float:
    """The q-th percentile (q in 1..99), interpolated; 0 for no samples."""
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


@dataclass
class Phase:
    """What one measured phase saw.

    ``best_s[i]`` is the best latency of the round's ``i``-th operation
    over the phase's rounds.  Each round repeats the same operation on the
    same state, so the differences between its times are the machine's,
    not the program's: the shared host runs the same work up to 2x slower
    in spells of seconds to minutes, which moves a median over one run
    far more than its best times (see README.md, Steadiness).
    """

    best_s: List[float]
    rounds: int = 0
    attempted: int = 0
    wrong: int = 0
    statuses: Counter = field(default_factory=Counter)
    queue_wait_s: List[float] = field(default_factory=list)
    exec_s: List[float] = field(default_factory=list)
    #: Plan-cache books over the measured rounds.
    cache: Counter = field(default_factory=Counter)
    #: The process's peak resident set when the measured loop ended.
    peak_rss_mb: float = 0.0

    @property
    def failed(self) -> int:
        return self.attempted - self.statuses["ok"] + self.wrong

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def latencies_s(self) -> List[float]:
        """Each operation's best latency, leaving out any that never succeeded."""
        return [s for s in self.best_s if s != float("inf")]

    def took(self, i: int, seconds: float) -> None:
        self.best_s[i] = min(self.best_s[i], seconds)

    def served(self, outcome) -> None:
        self.statuses["error" if outcome.status == "cancelled" else outcome.status] += 1
        self.queue_wait_s.append(outcome.queue_wait_s)
        self.exec_s.append(outcome.elapsed_s)


def _wait(ticket):
    """The ticket's outcome, or None when it did not resolve in time."""
    try:
        return ticket.result(timeout=DEADLINE_S + GRACE_S)
    except TimeoutError:
        return None


class Oracle:
    """Expected answers, kept per (shape, versions of the tables it reads).

    The oracle reads only the tables a query uses, as algebra relations.
    Every round of a fresh-state workload passes through the same table
    versions, so each expected answer is computed once and then reused.
    """

    def __init__(self, inputs: workloads.Inputs) -> None:
        self.inputs = inputs
        self.tables = [sorted(shape.query.relations()) for shape in inputs.shapes]
        self.expected: Dict[tuple, Any] = {}

    def check(self, storage: Storage, shape: int, answer) -> bool:
        key = (shape, tuple(storage[name].version for name in self.tables[shape]))
        if key not in self.expected:
            db = Database({name: storage[name].to_relation() for name in self.tables[shape]})
            self.expected[key] = self.inputs.shapes[shape].oracle(db)
        return same_bag(answer, self.expected[key])


def run_round(service, storage, inputs: workloads.Inputs, oracle: Oracle, phase: Phase) -> None:
    """One round of the client's operations, each started when the last has finished.

    Each answer is checked, untimed, against the oracle over the storage
    as it is when the read runs; inserts happen only between reads,
    because ``Storage`` has no isolation for writers.
    """
    phase.rounds += 1
    for i, op in enumerate(inputs.round):
        phase.attempted += 1
        if op.is_write:
            start = time.perf_counter()
            try:
                storage[op.table].insert(Row(op.row))
            except Exception as exc:  # noqa: BLE001 - a failed write is a counted failure
                print(f"write failed: {exc!r}", file=sys.stderr)
                phase.statuses["error"] += 1
                continue
            phase.took(i, time.perf_counter() - start)
            phase.statuses["ok"] += 1
            continue
        start = time.perf_counter()
        outcome = _wait(service.submit(inputs.shapes[op.shape].query))
        took = time.perf_counter() - start
        if outcome is None:
            phase.statuses["timeout"] += 1
            continue
        phase.served(outcome)
        if not outcome.ok:
            continue
        if oracle.check(storage, op.shape, outcome.relation):
            phase.took(i, took)
        else:
            phase.wrong += 1


def measure(
    inputs: workloads.Inputs,
    seconds: float,
    setup_times: List[float],
    tracer: Optional[Tracer] = None,
) -> Phase:
    """Set up, run one unmeasured round, then measured rounds for ``seconds``.

    Runs at least MIN_ROUNDS measured rounds.  With fresh state each
    round, every round starts on a newly loaded storage and service,
    whose set-up time joins ``setup_times``.  With a tracer, only the
    rounds' operations are traced.
    """
    phase = Phase(best_s=[float("inf")] * len(inputs.round))
    oracle = Oracle(inputs)
    storage, service = timed_setup(inputs)
    try:
        run_round(service, storage, inputs, oracle, Phase(best_s=list(phase.best_s)))
        end = time.perf_counter() + seconds
        while phase.rounds < MIN_ROUNDS or time.perf_counter() < end:
            if inputs.fresh_each_round:
                service.close()
                storage, service = timed_setup(inputs, setup_times, repeat=False)
            service.plan_cache.reset_stats()
            with tracer if tracer is not None else nullcontext():
                run_round(service, storage, inputs, oracle, phase)
            stats = service.plan_cache.stats()
            phase.cache.update(hits=stats.hits, misses=stats.misses,
                               invalidations=stats.invalidations)
    finally:
        service.close()
    phase.peak_rss_mb = peak_rss_mb()
    return phase


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(phase: Phase, setup_s: float) -> Dict[str, float]:
    latencies = phase.latencies_s
    return {
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "throughput_qps": len(latencies) / sum(latencies) if latencies else 0.0,
        "ok_share": phase.completed / phase.attempted if phase.attempted else 0.0,
        "peak_rss_mb": phase.peak_rss_mb,
        "setup_s": setup_s,
    }


def per_layer(phase: Phase, reference: Phase, tracer: Tracer) -> Dict[str, tuple]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    busy = tracer.busy()
    counts = tracer.counters()
    out: Dict[str, tuple] = {}

    def timer(metric: str, span: str, unit: str = "ms") -> None:
        total_ms, calls, _self_ms = busy.get(span, (0.0, 0, 0.0))
        out[metric] = (total_ms * (1e3 if unit == "us" else 1.0), unit)
        out[f"{span}.calls"] = (calls, "count")

    out["service.queue_wait_ms.p50"] = (percentile(phase.queue_wait_s, 50) * 1e3, "ms")
    out["service.queue_wait_ms.p90"] = (percentile(phase.queue_wait_s, 90) * 1e3, "ms")
    out["service.exec_ms"] = (sum(phase.exec_s) * 1e3, "ms")
    out["service.exec.calls"] = (len(phase.exec_s), "count")
    for status in ("ok", "rejected", "timeout", "error"):
        out[f"service.outcomes.{status}"] = (phase.statuses[status], "count")

    for name in ("plan", "simplify", "pushdown", "graph", "cache_lookup", "niceness", "dp", "gate"):
        timer(f"optimizer.{name}_ms", f"optimizer.{name}")
    out["optimizer.stats_view_ms"] = (busy.get("optimizer.plan", (0.0, 0, 0.0))[2], "ms")
    lookups = phase.cache["hits"] + phase.cache["misses"]
    out["optimizer.plan_cache.hit_rate"] = (
        phase.cache["hits"] / lookups if lookups else 0.0, "ratio")
    out["optimizer.plan_cache.invalidations"] = (phase.cache["invalidations"], "count")
    out["optimizer.rows_copied"] = (counts["optimizer.rows_copied"], "count")
    for strategy in STRATEGIES:
        out[f"optimizer.strategy.{strategy}"] = (counts[f"optimizer.strategy.{strategy}"], "count")

    timer("engine.exec_ms", "engine.exec")
    timer("engine.physical_plan_ms", "engine.physical_plan")
    for strategy in STRATEGIES:
        out[f"engine.executed.{strategy}"] = (counts[f"engine.executed.{strategy}"], "count")
    out["engine.strategy_mismatch"] = (tracer.strategy_mismatches(), "count")
    emitted = counts["engine.rows_emitted"]
    out["engine.rows_emitted"] = (emitted, "count")
    out["engine.tuples_retrieved"] = (counts["engine.tuples_retrieved"], "count")
    out["engine.output_per_emitted"] = (
        counts["engine.output_rows"] / emitted if emitted else 0.0, "ratio")
    out["engine.batch_conversions"] = (counts["engine.batch_conversions"], "count")
    out["engine.batch_conversions.rows"] = (counts["engine.batch_conversions.rows"], "count")

    out["algebra.rows_built"] = (counts["algebra.rows_built"], "count")

    timer("storage.insert_us", "storage.insert", unit="us")
    timer("storage.stats_ms", "storage.stats")

    untraced = percentile(reference.latencies_s, 50)
    traced = percentile(phase.latencies_s, 50)
    out["harness.tracing_overhead_pct"] = (
        (traced / untraced - 1.0) * 100 if untraced else 0.0, "%")
    return out


def timed_setup(inputs: workloads.Inputs, times: Optional[List[float]] = None,
                repeat: bool = True):
    """Set up, appending each set-up's duration to ``times`` when given.

    Returns the last storage and service.  With ``times`` and ``repeat``,
    sets up at least SETUP_MIN times and until SETUP_BUDGET_S has passed,
    at most SETUP_MAX times.
    """
    batch: List[float] = []
    storage = service = None
    while not batch or times is not None and repeat and (
        len(batch) < SETUP_MIN or sum(batch) < SETUP_BUDGET_S and len(batch) < SETUP_MAX
    ):
        if service is not None:
            service.close()
        start = time.perf_counter()
        storage = load(inputs.tables)
        service = start_service(storage)
        batch.append(time.perf_counter() - start)
    if times is not None:
        times.extend(batch)
    return storage, service


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: workloads.Sizes = workloads.FULL,
    trace_path: Optional[Path] = None,
) -> Dict[str, Any]:
    """One run; the result object ``run.py`` prints (see BENCHMARK.json)."""
    inputs = workloads.generate(workload, seed, sizes)
    metrics: Dict[str, tuple]
    if not trace:
        setup_times: List[float] = []
        timed_setup(inputs, setup_times)[1].close()
        phase = measure(inputs, seconds, setup_times)
        # A second batch after the measured phase: the host's speed drifts
        # over tens of seconds, and one batch would sample a single spell.
        timed_setup(inputs, setup_times)[1].close()
        setup_s = statistics.median(setup_times)
        units = END_TO_END_UNITS
        metrics = {name: (value, units[name]) for name, value in end_to_end(phase, setup_s).items()}
        attempted, failed = phase.attempted, phase.failed
    else:
        reference = measure(inputs, seconds / 2, [])
        tracer = Tracer()
        phase = measure(inputs, seconds / 2, [], tracer)
        metrics = per_layer(phase, reference, tracer)
        attempted = reference.attempted + phase.attempted
        failed = reference.failed + phase.failed
        if tracer.missing:
            print(f"trace targets not found: {', '.join(tracer.missing)}", file=sys.stderr)
        if trace_path is not None:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace_path.write_text(json.dumps({"missing": tracer.missing, "spans": tracer.export()}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), trace_path=trace_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
