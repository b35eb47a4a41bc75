"""varbounds benchmark: one workload run, printed as metrics with units.

Usage, from the repository root:

    python3 bench/run.py --workload {dense-chain,chain-batch,pathcheck} \
        --seed N --seconds S --trace {0,1} [--toy]

Set-up time is the median of several fresh ``import varbounds`` processes.
The workload itself runs in one fresh worker process with BLAS pinned to a
single thread; see ``bench/worker.py``.  All times are scaled to a reference
machine's speed by calibration passes timed in the same process
(``bench/calibrate.py``).  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run.  The
last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--toy`` shrinks every input
(for ``bench/smoke.py``).  The workloads are described in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REF_PASS_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("dense-chain", "chain-batch", "pathcheck")
IMPORT_PROBES = 5  # set-up time is a median of five fresh imports
RUN_LIMIT_S = 170.0
# The metrics the last output line carries, as BENCHMARK.json lists them.
END_TO_END = ("setup_s", "op_p50_s", "op_p95_s", "ops_per_s", "peak_rss_mb")
PER_LAYER = (
    "cli.main.self_s",
    "chain.validate_puts.self_s",
    "chain.validate_puts.calls",
    "payoff.make_payoff.self_s",
    "swap.swap_rate_bounds.self_s",
    "swap.compute_lower.self_s",
    "lower.dp_lower_bound.self_s",
    "lower.dp_lower_bound.calls",
    "lower.reconstruct_subhedge.self_s",
    "lower.reconstruct_subhedge.calls",
    "lower.subhedge_lp_fallbacks",
    "lower.subhedge_lp_fallback_ratio",
    "lower.solve_grid_lp.self_s",
    "lower.solve_grid_lp.calls",
    "lower.lp_lower_bound.self_s",
    "lower.lp_lower_bound.calls",
    "lower.tighten_tail.self_s",
    "lower.tighten_tail.calls",
    "lower.dominates_below.self_s",
    "lower.dominates_below.calls",
    "upper.superhedge.self_s",
    "upper.superhedge.calls",
    "pathwise.discrete_local_time.self_s",
    "pathwise.discrete_local_time.calls",
    "pathwise.discrete_local_time.cells",
    "pathwise.verify_ito.self_s",
    "pathwise.occupation_density_check.self_s",
    "pathwise.transform_local_time.self_s",
    "pathwise.build_dyadic_ladder.self_s",
    "trace.untraced_s",
    "trace.overhead_s",
    "trace.unspanned_s",
)
# Times the import, then the machine's speed right after it in the same process.
PROBE = (
    "import time; t = time.perf_counter(); import varbounds; d = time.perf_counter() - t; "
    "import calibrate; calibrate.warm_up(); print(d, calibrate.calibration_sample(), varbounds.__file__)"
)


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]),
    )
    return env


def import_probe(env: dict, timeout: float) -> tuple[float, float]:
    """Seconds one fresh process takes to import varbounds from this checkout, raw and scaled."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
    seconds, pass_s, origin = proc.stdout.split()
    if ROOT / "src" not in Path(origin).resolve().parents:
        raise RuntimeError(f"varbounds imported from {origin}, not from this checkout's src/")
    return float(seconds), float(seconds) * REF_PASS_S / float(pass_s)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "varbounds" / "__init__.py").is_file():
        sys.stderr.write(f"no varbounds sources under {ROOT / 'src'}: run from a full checkout\n")
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    env = worker_env()
    try:
        probes = [] if args.trace else [import_probe(env, 60.0) for _ in range(IMPORT_PROBES)]
        cmd = [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed), str(args.seconds)]
        cmd += [str(args.trace), "1" if args.toy else "0"]
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(deadline - time.monotonic(), 1.0)
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 2
    if proc.returncode != 0:
        sys.stderr.write(f"worker exited with code {proc.returncode}\n")
        return 2
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = (statistics.median(scaled for _, scaled in probes), "s")
        result["setup_raw_s"] = statistics.median(raw for raw, _ in probes)
    attempted, failed = result["attempted"], result["failed"]
    # Correct means no op returned a wrong output; ops that raised are failed
    # ops (in ``failed`` and the error rate) but returned nothing to check.
    correct = result["wrong"] == 0 and result.get("counts_repeat", True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted} ({result['cycles']} x {result['ops_per_cycle']})  failed {failed}  "
          f"error_rate {failed / attempted:.4g}")
    if "wall_s" in result:
        print(f"timed phase {result['wall_s']:.2f} s wall, of which {result['tick_s']:.2f} s in "
              f"{result['ticks']} calibration passes (median {result['pass_s_median'] * 1e3:.3f} ms, "
              f"reference {REF_PASS_S * 1e3:.3f} ms)")
        unscaled = dict(result["unscaled"], setup_s=result["setup_raw_s"])
        print("unscaled: " + "  ".join(f"{name} {value:.6g}" for name, value in unscaled.items()))
    if "spans_file" in result:
        print(f"spans written to {result['spans_file']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    declared = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
