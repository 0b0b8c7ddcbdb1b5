"""The open-loop traffic harness: determinism, accounting, schema.

These tests exercise the harness's *logic* on tiny workloads — the
committed ``BENCH_PR9.json`` artifact is produced by the full run (and
re-validated here against ``docs/trafficgen.schema.json``); CI runs
the ``--smoke`` sweep for real.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.engine.storage import Storage
from repro.service import QueryService
from repro.tools.benchschema import (
    is_trafficgen_report,
    validate_trafficgen_report,
)
from repro.tools.trafficgen import (
    build_scenario,
    build_storage,
    build_workload,
    open_loop_run,
    percentile,
    verify,
    zipf_weights,
)

ROOT = Path(__file__).resolve().parents[1]


def test_workload_is_seed_deterministic():
    scenario = build_scenario(3)
    a = build_workload(scenario, shapes=3, seed=5)
    b = build_workload(scenario, shapes=3, seed=5)
    c = build_workload(scenario, shapes=3, seed=6)
    assert [q.to_infix() for q in a] == [q.to_infix() for q in b]
    assert [q.to_infix() for q in a] != [q.to_infix() for q in c]
    # Distinct shapes: every query has its own plan-cache fingerprint.
    assert len({q.to_infix() for q in a}) == len(a)


def test_storage_is_seed_deterministic():
    scenario = build_scenario(3)
    a = build_storage(scenario, rows=30, seed=1)
    b = build_storage(scenario, rows=30, seed=1)
    assert isinstance(a, Storage)
    for name in a:
        assert a[name].to_relation().counts() == b[name].to_relation().counts()


def test_zipf_weights_and_percentile():
    weights = zipf_weights(4)
    assert weights[0] > weights[1] > weights[3] > 0
    assert percentile([], 0.5) is None
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile([3.0, 1.0, 2.0], 0.99) == 3.0


def test_open_loop_accounts_for_every_arrival():
    scenario = build_scenario(3)
    storage = build_storage(scenario, rows=24, seed=1)
    workload = build_workload(scenario, shapes=2, seed=2)
    with QueryService(storage, workers=2, queue_size=16) as service:
        row = open_loop_run(
            service,
            workload,
            zipf_weights(len(workload)),
            rate_qps=50.0,
            queries=12,
            deadline_s=10.0,
            seed=3,
        )
    assert row["queries"] == 12
    assert row["ok"] + row["shed"] + row["timeout"] + row["error"] == 12
    assert row["p50_ms"] is not None and row["p99_ms"] is not None
    assert row["achieved_qps"] > 0


def test_verify_flags_unaccounted_queries_and_missing_saturation():
    report = {
        "open_loop": {
            "rates": [
                {
                    "mode": "threaded",
                    "offered_qps": 4.0,
                    "queries": 3,
                    "ok": 2,
                    "shed": 0,
                    "timeout": 0,
                    "error": 0,
                    "p50_ms": None,
                    "p99_ms": 2.0,
                }
            ],
            "saturation_qps": {"threaded": None},
        },
    }
    problems = verify(report)
    assert any("1 queries unaccounted for" in p for p in problems)
    assert any("missing percentiles" in p for p in problems)
    assert any("no saturation" in p for p in problems)
    assert verify({"open_loop": {"rates": []}}) == [
        "open_loop sweep produced no rows",
        "no saturation throughput",
    ]


def test_committed_artifact_validates_and_meets_the_bar():
    path = ROOT / "BENCH_PR9.json"
    assert path.exists(), "BENCH_PR9.json must be committed"
    report = json.loads(path.read_text())
    assert is_trafficgen_report(report)
    validate_trafficgen_report(report, root=ROOT)
    assert verify(report) == []


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
