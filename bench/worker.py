"""One benchmark run of one workload, in a fresh single-threaded process.

Usage: python3 bench/worker.py WORKLOAD SEED SECONDS TRACE TOY

Started by ``bench/run.py`` with ``src`` on PYTHONPATH and BLAS pinned to one
thread.  Prints one JSON line: the run's metrics, op counts and failures.
Without tracing, a fixed number of whole cycles of the workload's ops run
back to back (a closed loop with one client): SECONDS over the workload's
nominal cycle time, rounded, and at least one.  The op count thus depends
on SECONDS alone, never on how fast this run happens to go, so the same seed
attempts, and fails, the same ops every time.  With tracing, one cycle
runs, each op first untraced and then traced, so the difference gives the
tracing overhead and the counts cover a fixed set of inputs.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import varbounds  # noqa: E402  (the import is what setup time measures)
from calibrate import REF_PASS_S, SpeedSampler  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
# Counts that must repeat exactly for the same seed and the same source.
EXACT_COUNTS = (
    "lower.reconstruct_subhedge.calls",
    "lower.subhedge_lp_fallbacks",
    "lower.solve_grid_lp.calls",
    "lower.dominates_below.calls",
    "pathwise.discrete_local_time.cells",
)


def run_op(workload, i: int, sampler=None):
    """Run op i once; returns (seconds, output, error text or None, start, end).

    With a ``SpeedSampler`` installed, the seconds leave out the time its
    ticks took during the op.
    """
    spent = sampler.spent if sampler else 0.0
    start = time.perf_counter()
    try:
        out, err = workload.run(i), None
    except Exception:  # an op that raises is a failed op, not a failed run
        out, err = None, traceback.format_exc(limit=3)
    end = time.perf_counter()
    ticks = sampler.spent - spent if sampler else 0.0
    return end - start - ticks, out, err, start, end


class Checker:
    """Checks each op's first output fully; later outputs of the same op must equal it.

    A failed op either raised (no output) or returned a wrong output; a check
    that cannot be completed counts as a wrong output.
    """

    def __init__(self, workload):
        self.workload = workload
        self.first = {}
        self.raised = 0
        self.wrong = 0

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    def __call__(self, i: int, out, err) -> None:
        if err is not None:
            self.raised += 1
            problems = ["raised: " + err.strip().splitlines()[-1]]
        elif i not in self.first:
            try:
                problems = self.workload.check(i, out)
            except Exception:
                problems = ["check raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]]
            self.first[i] = (self.workload.signature(out), problems)
        else:
            signature, problems = self.first[i]
            if self.workload.signature(out) != signature:
                problems = problems + ["output differs from an earlier run of the same input"]
        if problems:
            self.wrong += err is None
            if self.failed <= 10:
                sys.stderr.write(f"op {i} ({self.workload.labels[i]}) failed: {'; '.join(problems)}\n")


def timed_run(workload, seed: int, cycles: int) -> dict:
    """``cycles`` whole cycles back to back, timed at reference speed (``calibrate.py``)."""
    n = len(workload.labels)
    records = []
    start = time.perf_counter()
    with SpeedSampler() as sampler:
        for _ in range(cycles):
            for i in range(n):
                dt, out, err, op_start, op_end = run_op(workload, i, sampler)
                records.append((i, dt, out, err, op_start, op_end))
    wall = time.perf_counter() - start
    raw = [dt for _, dt, _, _, _, _ in records]
    # Scale each op to reference speed by the passes timed during and around it.
    records = [(i, dt * REF_PASS_S / sampler.pass_s(a, b), out, err) for i, dt, out, err, a, b in records]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check = Checker(workload)
    for i, _, out, err in records:
        check(i, out, err)
    times = [dt for _, dt, _, _ in records]
    op_times = [[workload.labels[i], dt] for i, dt, _, _ in records]
    (OUT_DIR / f"ops-{workload.name}-{seed}.json").write_text(json.dumps(op_times), encoding="utf-8")
    return {
        "attempted": len(records),
        "failed": check.failed,
        "wrong": check.wrong,
        "metrics": {
            "op_p50_s": (statistics.median(times), "s"),
            "op_p95_s": (p95(times), "s"),
            "ops_per_s": (len(records) / sum(times), "1/s"),
            "peak_rss_mb": (peak_mb, "MB"),
        },
        "unscaled": {"op_p50_s": statistics.median(raw), "op_p95_s": p95(raw), "ops_per_s": len(raw) / sum(raw)},
        "wall_s": wall,
        "ticks": len(sampler.passes),
        "tick_s": sampler.spent,
        "pass_s_median": statistics.median(sampler.passes),
    }


def p95(times: list[float]) -> float:
    """95th percentile with linear interpolation; one time is its own percentile."""
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=20, method="inclusive")[-1]


def source_digest() -> str:
    """Hash of the package and benchmark sources: the exact counts depend on both."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "varbounds").rglob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def exact_counts_problem(workload_name: str, seed: int, toy: bool, metrics: dict) -> str | None:
    """Compare the exact counts with an earlier traced run of the same seed and source."""
    counts = {name: metrics[name] for name in EXACT_COUNTS}
    path = OUT_DIR / f"counts-{workload_name}-{seed}-{int(toy)}-{source_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier != counts:
            return f"exact counts changed between runs: {earlier} then {counts}"
        return None
    path.write_text(json.dumps(counts), encoding="utf-8")
    return None


def traced_run(workload, seed: int, toy: bool) -> dict:
    """One cycle, each op untraced then traced; per-layer metrics from the traced calls."""
    from tracing import Tracer, layer_metrics, unit_of

    tracer = Tracer()
    check = Checker(workload)
    untraced = traced = 0.0
    n = len(workload.labels)
    for i in range(n):
        dt, plain_out, plain_err, _, _ = run_op(workload, i)
        untraced += dt
        with tracer.installed(i):
            dt, out, err, _, _ = run_op(workload, i)
            traced += dt
            with tracer.span("check"):
                check(i, out, err)
        check(i, plain_out, plain_err)
    spans_path = OUT_DIR / f"spans-{workload.name}-{seed}.jsonl"
    tracer.write(spans_path)
    layers = layer_metrics(tracer.spans, set(range(n)))
    layers["trace.untraced_s"] = untraced
    layers["trace.traced_s"] = traced
    layers["trace.overhead_s"] = traced - untraced
    layers["trace.unspanned_s"] = traced - layers["trace.spanned_s"]
    metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    problem = exact_counts_problem(workload.name, seed, toy, layers)
    if problem:
        sys.stderr.write(problem + "\n")
    return {
        "attempted": 2 * n,
        "failed": check.failed,
        "wrong": check.wrong,
        "metrics": metrics,
        "counts_repeat": problem is None,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, toy = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", argv[4] == "1"
    package = Path(varbounds.__file__).resolve()
    if ROOT / "src" not in package.parents:
        sys.stderr.write(f"varbounds imported from {package}, not from this checkout's src/\n")
        return 1
    from workloads import build

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workload = build(name, seed, OUT_DIR, toy=toy)
    cycles = max(1, round(seconds / workload.cycle_s))
    result = traced_run(workload, seed, toy) if trace else timed_run(workload, seed, cycles)
    result["ops_per_cycle"] = len(workload.labels)
    result["cycles"] = 1 if trace else cycles
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
