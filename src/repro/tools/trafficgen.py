"""Open-loop traffic harness for the query service (BENCH_PR9 artifact).

Produces the PR-9 benchmark artifact (``BENCH_PR9.json`` by default)::

    python -m repro.tools.trafficgen --out BENCH_PR9.json
    python -m repro.tools.trafficgen --smoke              # CI-sized
    python -m repro.tools.trafficgen --bench-seed 7       # reseed everything

Unlike :mod:`repro.tools.servicebench` (closed-loop: the next query is
submitted when a slot frees up), this harness is **open-loop**: arrivals
are scheduled from a seeded Poisson process at a fixed offered rate,
*independent of completions*.  When the service falls behind, queries
queue, blow their deadline, or get shed — exactly the regime a saturated
service lives in, and the one closed-loop harnesses famously understate
(coordinated omission).

The ``open_loop`` section is an arrival-rate sweep over a Zipf-skewed
query mix on a join-chain topology, served by the thread-pool service
(rows carry ``mode: "threaded"``).  Per rate: p50/p99 sojourn latency
(queue wait + execution, measured inside the service, so collection
order cannot skew it), achieved throughput, and the deadline/shed
accounting.  The headline is the *saturation throughput* — the best
achieved ok-rate across the sweep.

Determinism: every knob is explicit.  The service worker count is a
constant — never ``os.cpu_count()`` — and every random draw (topology
sampling, Zipf popularity, Poisson interarrivals) threads through
``--bench-seed``, so two runs on different hosts offer the identical
query sequence at the identical scheduled instants.  Wall-clock
*measurements* naturally vary; the workload does not.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from itertools import permutations
from pathlib import Path
from time import monotonic
from typing import Any, Dict, List, Optional, Sequence

from repro.core.enumeration import sample_implementing_tree
from repro.core.expressions import Expression, Restrict
from repro.algebra.predicates import conjunction, lt
from repro.datagen.random_db import random_database
from repro.datagen.topologies import GraphScenario, chain
from repro.engine.storage import Storage
from repro.service import QueryService
from repro.util.rng import make_rng

#: Offered arrival rates (queries/second) for the sweep.  Explicit and
#: constant — the sweep means the same thing on every host.
ARRIVAL_RATES = (4.0, 8.0, 16.0, 32.0)

#: CI-sized sweep used by ``--smoke``.
SMOKE_RATES = (4.0, 12.0)

#: Service thread count for every run.  Pinned (never
#: ``os.cpu_count()``) so artifacts are comparable.
SERVICE_WORKERS = 2

#: Zipf exponent for query-shape popularity: shape k is drawn with
#: weight ``1/(k+1)**SHAPE_SKEW`` — a few hot shapes, a long cold tail.
SHAPE_SKEW = 1.2

#: Join-key domain = rows / this, i.e. per-key multiplicity ~ divisor
#: (times a duplicates factor).  Sets the chain's intermediate fanout.
DOMAIN_DIVISOR = 3

#: Chain length for the open-loop sweep.  Shorter chain + modest rows
#: keeps per-query cost in the tens of milliseconds, so the fixed
#: ARRIVAL_RATES actually bracket the service's capacity.
SWEEP_RELATIONS = 4

def build_scenario(relations: int = 5) -> GraphScenario:
    """The traffic topology: an all-join chain (the CPU-bound mix).

    Every edge is an equijoin on the nodes' ``.a`` attributes.
    """
    return chain(relations, ["join"] * (relations - 1), name=f"trafficgen-chain{relations}")


def build_storage(scenario: GraphScenario, rows: int, seed: int) -> Storage:
    """Tables sized for CPU-bound joins.

    ``min_rows`` pins every table to at least half of ``rows`` (a
    randomly tiny relation would collapse the whole chain's cost), and
    ``domain = rows // DOMAIN_DIVISOR`` keeps per-key join fanout
    roughly constant as ``rows`` grows — so intermediate join sizes,
    and with them the per-query CPU, scale with ``rows`` instead of
    evaporating.
    """
    db = random_database(
        scenario.schemas,
        seed=seed,
        max_rows=rows,
        min_rows=max(rows // 2, 1),
        domain=max(rows // DOMAIN_DIVISOR, 8),
        null_probability=0.02,
    )
    return Storage.from_database(db)


def build_workload(scenario: GraphScenario, shapes: int, seed: int) -> List[Expression]:
    """``shapes`` distinct query shapes (distinct plan-cache fingerprints).

    Each shape is a sampled implementing tree topped with a chain of
    *cross-relation inequalities* (``Rp1.b < Rp2.b < ... < Rpn.b`` for a
    per-shape permutation of the relations).  These are the CPU-bound
    part by construction: an inequality between two relations cannot
    become a hash-join key and cannot be pushed below the join where
    both relations meet, so the joins run at full candidate-pair size
    while the final output is cut to roughly ``1/n!`` — heavy to
    compute, cheap to ship.  A strict chain along a permutation is never
    contradictory, and the permutation varies per shape, so every shape
    has its own plan-cache fingerprint.
    """
    rng = make_rng(seed)
    nodes = sorted(scenario.schemas)
    orders = list(permutations(nodes))
    queries: List[Expression] = []
    for i in range(shapes):
        tree = sample_implementing_tree(scenario.graph, rng)
        order = orders[(i * 7) % len(orders)]
        predicate = conjunction(
            [lt(f"{u}.b", f"{v}.b") for u, v in zip(order, order[1:])]
        )
        queries.append(Restrict(tree, predicate))
    return queries


def zipf_weights(n: int, skew: float = SHAPE_SKEW) -> List[float]:
    """Popularity weights ``1/(k+1)**skew`` for ``n`` query shapes."""
    return [1.0 / (k + 1) ** skew for k in range(n)]


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-quantile (0..1) by the nearest-rank method; None if empty."""
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(int(q * len(ordered)), len(ordered) - 1)
    return ordered[index]


def open_loop_run(
    service: QueryService,
    workload: Sequence[Expression],
    weights: Sequence[float],
    rate_qps: float,
    queries: int,
    deadline_s: float,
    seed: int,
) -> Dict[str, Any]:
    """Offer ``queries`` arrivals at ``rate_qps`` and account for all of them.

    Arrival instants come from a seeded exponential interarrival stream
    (Poisson process), fixed before the first submission — completions
    never influence the schedule.  Sojourn latency per query is
    ``queue_wait_s + elapsed_s`` as measured by the service itself, so
    collecting tickets afterwards (in arrival order) cannot inflate it.
    """
    rng = make_rng(seed)
    picks = rng.choices(range(len(workload)), weights=weights, k=queries)
    gaps = [rng.expovariate(rate_qps) for _ in range(queries)]

    start = monotonic()
    scheduled = 0.0
    lateness: List[float] = []
    tickets = []
    for pick, gap in zip(picks, gaps):
        scheduled += gap
        delay = start + scheduled - monotonic()
        if delay > 0:
            time.sleep(delay)
        lateness.append(max(0.0, -delay))
        tickets.append(service.submit(workload[pick], timeout_s=deadline_s))
    outcomes = [ticket.result(timeout=600) for ticket in tickets]
    wall_s = monotonic() - start

    by_status: Dict[str, int] = {}
    latencies: List[float] = []
    for outcome in outcomes:
        by_status[outcome.status] = by_status.get(outcome.status, 0) + 1
        if outcome.status != "rejected":
            latencies.append(outcome.queue_wait_s + outcome.elapsed_s)
    ok = by_status.get("ok", 0)
    p50 = percentile(latencies, 0.50)
    p99 = percentile(latencies, 0.99)
    return {
        "offered_qps": rate_qps,
        "queries": queries,
        "ok": ok,
        "shed": by_status.get("rejected", 0),
        "timeout": by_status.get("timeout", 0),
        "error": by_status.get("error", 0),
        "achieved_qps": round(ok / wall_s, 2) if wall_s else None,
        "p50_ms": round(p50 * 1e3, 3) if p50 is not None else None,
        "p99_ms": round(p99 * 1e3, 3) if p99 is not None else None,
        "max_submit_lateness_ms": round(max(lateness) * 1e3, 3) if lateness else None,
    }


def sweep(
    storage: Storage,
    workload: Sequence[Expression],
    rates: Sequence[float],
    queries_per_rate: int,
    deadline_s: float,
    seed: int,
    out,
) -> Dict[str, Any]:
    """The arrival-rate sweep plus saturation throughput."""
    weights = zipf_weights(len(workload))
    rows: List[Dict[str, Any]] = []
    for rate in rates:
        with QueryService(
            storage, workers=SERVICE_WORKERS, queue_size=max(queries_per_rate // 2, 8)
        ) as service:
            row = open_loop_run(
                service,
                workload,
                weights,
                rate_qps=rate,
                queries=queries_per_rate,
                deadline_s=deadline_s,
                seed=seed,  # same seed per rate: identical offered traffic
            )
        row["mode"] = "threaded"
        rows.append(row)
        print(
            f"  {rate} q/s: achieved {row['achieved_qps']} q/s, "
            f"p50 {row['p50_ms']} ms, p99 {row['p99_ms']} ms, "
            f"ok/shed/timeout {row['ok']}/{row['shed']}/{row['timeout']}",
            file=out,
        )
    saturation = {
        "threaded": max(
            (r["achieved_qps"] for r in rows if r["achieved_qps"]), default=None
        )
    }
    return {
        "deadline_s": deadline_s,
        "queries_per_rate": queries_per_rate,
        "shape_skew": SHAPE_SKEW,
        "rates": rows,
        "saturation_qps": saturation,
    }


def run(
    out_path: Optional[str],
    smoke: bool = False,
    seed: int = 0,
    out=sys.stdout,
) -> Dict[str, Any]:
    # Sweep sizing: per-query cost in the tens of milliseconds so the
    # fixed ARRIVAL_RATES span under- and over-saturation.
    sweep_shapes = 4 if smoke else 8
    sweep_rows = 800 if smoke else 3000
    queries_per_rate = 24 if smoke else 80
    deadline_s = 10.0
    rates = SMOKE_RATES if smoke else ARRIVAL_RATES

    sweep_scenario = build_scenario(SWEEP_RELATIONS)
    sweep_storage = build_storage(sweep_scenario, rows=sweep_rows, seed=seed + 1)
    sweep_workload = build_workload(sweep_scenario, shapes=sweep_shapes, seed=seed + 2)

    report: Dict[str, Any] = {
        "meta": {
            "artifact": "BENCH_PR9",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "smoke": smoke,
            "seed": seed,
            "sweep_scenario": sweep_scenario.name,
            "sweep_rows_per_table": sweep_rows,
            "sweep_shapes": sweep_shapes,
            "service_workers": SERVICE_WORKERS,
            "worker_sizing": "explicit",
        }
    }

    print(
        f"[trafficgen] open-loop sweep: rates {list(rates)} q/s, "
        f"{queries_per_rate} queries/rate, Zipf({SHAPE_SKEW}) over {sweep_shapes} shapes",
        file=out,
    )
    report["open_loop"] = sweep(
        sweep_storage,
        sweep_workload,
        rates=rates,
        queries_per_rate=queries_per_rate,
        deadline_s=deadline_s,
        seed=seed + 3,
        out=out,
    )
    print(
        f"  saturation: {report['open_loop']['saturation_qps']}",
        file=out,
    )

    from repro.tools.benchschema import validate_trafficgen_report

    validate_trafficgen_report(report)
    if out_path:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[trafficgen] wrote {out_path}", file=out)
    return report


def verify(report: Dict[str, Any]) -> List[str]:
    """Acceptance checks over a report; returns a list of violations."""
    problems: List[str] = []
    open_loop = report.get("open_loop", {})
    rows = open_loop.get("rates", ())
    if not rows:
        problems.append("open_loop sweep produced no rows")
    for row in rows:
        accounted = row["ok"] + row["shed"] + row["timeout"] + row["error"]
        if accounted != row["queries"]:
            problems.append(
                f"open_loop {row['mode']} @ {row['offered_qps']} q/s: "
                f"{row['queries'] - accounted} queries unaccounted for"
            )
        if row["ok"] and (row["p50_ms"] is None or row["p99_ms"] is None):
            problems.append(
                f"open_loop {row['mode']} @ {row['offered_qps']} q/s: missing percentiles"
            )
    if open_loop.get("saturation_qps", {}).get("threaded") is None:
        problems.append("no saturation throughput")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.trafficgen",
        description="open-loop traffic harness for the query service; writes BENCH_PR9.json",
    )
    parser.add_argument("--out", default="BENCH_PR9.json", help="output JSON path")
    parser.add_argument("--no-out", action="store_true", help="skip writing the artifact")
    parser.add_argument(
        "--bench-seed",
        type=int,
        default=0,
        help="seed for topology sampling, Zipf popularity, and Poisson arrivals",
    )
    parser.add_argument("--smoke", action="store_true", help="small sizes for CI")
    args = parser.parse_args(argv)
    report = run(
        None if args.no_out else args.out,
        smoke=args.smoke,
        seed=args.bench_seed,
    )
    problems = verify(report)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
