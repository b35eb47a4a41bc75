"""Smoke test of the benchmark itself, at toy sizes.

Usage, from the repository root:  python3 bench/smoke.py

Checks that every workload prints every end-to-end metric with its unit and,
traced, every per-layer metric, as BENCHMARK.json declares them; that the exact counts repeat between two
traced runs of one seed; and that a corrupted output or a raising op is
counted as a failed op without ending the run.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def bench_line(name: str, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(SEED)]
    cmd += ["--seconds", "0.5", "--trace", str(trace), "--toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_output(name: str, trace: int) -> None:
    result = bench_line(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = [(m["name"], m["unit"]) for m in declared["per_layer" if trace else "end_to_end"]]
    assert [(name, entry["unit"]) for name, entry in result["metrics"].items()] == expected, result["metrics"]
    for metric, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}, (metric, entry)
        assert isinstance(entry["value"], (int, float)), (metric, entry)
        if not trace:
            assert entry["value"] > 0.0, (metric, entry)


def check_failures_counted() -> None:
    """Shift each dense-chain lower bound above the lognormal model value; make one op raise."""
    worker.OUT_DIR.mkdir(parents=True, exist_ok=True)
    workload = workloads.build("dense-chain", SEED, worker.OUT_DIR, toy=True)
    honest = workload.run

    def corrupted(i):
        if i == 0:
            raise RuntimeError("injected failure")
        code, text = honest(i)
        report = json.loads(text)
        weight = workload.labels[i].split()[-1]
        report["european"]["lower_value_normalized"] = workloads.lognormal_expectation(weight) + 1e-3
        return code, json.dumps(report)

    workload.run = corrupted
    result = worker.timed_run(workload, SEED, cycles=1)
    assert result["attempted"] == len(workload.labels), result
    assert result["failed"] == result["attempted"] and result["wrong"] == result["attempted"] - 1, result


def main() -> int:
    for name in run.WORKLOADS:
        check_output(name, trace=0)
        check_output(name, trace=1)
        check_output(name, trace=1)  # the second traced run compares its exact counts with the first
        print(f"ok  {name}: end-to-end and per-layer metrics printed, counts repeat")
    check_failures_counted()
    print("ok  corrupted outputs and a raising op counted as failed ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
