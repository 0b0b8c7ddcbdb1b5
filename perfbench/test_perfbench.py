"""The benchmark's own tests (tiny sizes; about half a minute).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import workloads  # noqa: E402
from repro.algebra.relation import Relation  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (False, True))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = harness.run(workload, seed=3, seconds=1, trace=trace, sizes=workloads.TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == _declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ("bulk_join", "oltp_writes"))
def test_a_dropped_row_is_caught_and_counted(workload, monkeypatch):
    import repro.service.service as service_module

    execute = service_module.execute
    dropped = []

    def drop_one_row(*args, **kwargs):
        result = execute(*args, **kwargs)
        rows = list(result.relation)
        if not rows:
            return result
        dropped.append(rows[0])
        return dataclasses.replace(result, relation=Relation(result.relation.schema, rows[1:]))

    monkeypatch.setattr(service_module, "execute", drop_one_row)
    result = harness.run(workload, seed=5, seconds=1, trace=False, sizes=workloads.TINY)
    assert dropped, "the workload produced no non-empty answer to corrupt"
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_share"]["value"] < 1.0


def _fingerprint(inputs: workloads.Inputs):
    return (
        [(t.name, t.attributes, t.rows, t.indexes) for t in inputs.tables],
        [(s.name, s.query.to_infix(show_predicates=True)) for s in inputs.shapes],
        [dataclasses.astuple(op) for op in inputs.round],
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs_and_operations(workload):
    first = _fingerprint(workloads.generate(workload, 7, workloads.TINY))
    again = _fingerprint(workloads.generate(workload, 7, workloads.TINY))
    other = _fingerprint(workloads.generate(workload, 8, workloads.TINY))
    assert first == again
    assert first != other


def test_oltp_writes_every_tenth_operation():
    ops = workloads.generate("oltp_writes", 1).round
    size = workloads.FULL.oltp_round
    writes = [i for i, op in enumerate(ops) if op.is_write]
    assert len(ops) == size
    assert writes == list(range(workloads.WRITE_EVERY - 1, size, workloads.WRITE_EVERY))
    assert {op.table for op in ops if op.is_write} <= set(workloads.CHAIN) | {"X1", "X2", "X3"}


def test_oltp_writes_reads_each_shape_a_fixed_number_of_times():
    def reads(seed):
        return Counter(op.shape for op in workloads.generate("oltp_writes", seed).round
                       if not op.is_write)

    assert reads(1) == reads(2)
    size = workloads.FULL.oltp_round
    expected = workloads.zipf_counts(len(workloads.oltp_shapes()), size - size // 10)
    assert [reads(1)[k] for k in range(len(expected))] == expected


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable, *SPEC["command"][1:], "--workload", "bulk_join",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
    child = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert child.stdout.strip() == ""
