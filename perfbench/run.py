"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload bulk_join --seed 1 --seconds 20 --trace 0

Runs the workload in a fresh interpreter (``harness.py``) with every
``REPRO_*`` variable cleared, so each switch is at its default, and with
``PYTHONHASHSEED`` pinned.  The child's last output line is the result;
this process adds the host to a copy kept in ``.perfbench_out/`` and
prints the result as its own last line.  The exit code is 0 only when
the run completed and every answer was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
#: The child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    command = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        child = subprocess.run(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S, text=True,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return 3
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"perfbench: {args.workload} exited with {child.returncode}", file=sys.stderr)
        return 4
    result = json.loads(lines[-1])
    host = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"args": vars(args), "host": host, **result}, indent=1))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
