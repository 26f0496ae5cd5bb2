"""h2comp benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py):
  bracket-sweep      seeded affine symbols certified by `h2comp bounds`
  series-oracle      series vs brute-force composition norms, exact dominance
  boundary-sampling  sampled measures, Monte Carlo norms, curve traces and
                     the disc-transfer suite
  verify-lemmas      the 18 shipped inequality suites (fixed inputs)

BENCHMARK.json lists only bracket-sweep and boundary-sampling.  On a
shared 2-vCPU VM the other two were not steady enough for a 0.25 bound:
series-oracle's op_p90_ms median moved by 29% between two sets of ten
runs, and verify-lemmas, one 15-22 s op per run, spread by 0.26.  Both
stay runnable by name.

Each workload runs in a fresh process (worker.py) with one caller in a
closed loop.  With --trace 0 the benchmark reports the end-to-end
metrics: set-up time is the median over several fresh processes, the
rest comes from passes over the seeded op list for at most --seconds
(at least one pass).  With --trace 1 it reports per-layer metrics from
one traced pass (tracer.py); spans are written to .bench_out/.

Every op's output is checked; the last line of stdout is
{"correct", "attempted", "failed", "metrics"}, and the line before it a
report with the machine, the op counts and a digest of the outputs.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bracket-sweep", "series-oracle", "boundary-sampling", "verify-lemmas")
DEADLINE_S = 170.0
SETUP_PROBES = 8

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def run_worker(args, mode: str, deadline: float, extra=()) -> dict:
    """Run worker.py in a fresh process; its last stdout line is JSON."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--size", args.size, *extra,
    ]
    # one caller, one core: BLAS threads would contend with each other
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.exit(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few small ops, for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "h2comp" / "__init__.py").is_file():
        print(f"error: no h2comp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    load = os.getloadavg()

    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        res = run_worker(args, "trace", deadline, ("--spans", str(spans)))
        metrics = res["layers"]
        setups = [res["setup_s"]]
    else:
        # set-up probes on both sides of the measured run, so that one slow
        # phase of a shared machine does not set the median
        half = SETUP_PROBES // 2 if args.size == "full" else 0
        probes = [run_worker(args, "setup", deadline) for _ in range(half)]
        res = run_worker(args, "measure", deadline)
        probes += [run_worker(args, "setup", deadline) for _ in range(half)]
        setups = [p["setup_s"] for p in probes] + [res["setup_s"]]
        for p in probes:
            res["attempted"] += p["attempted"]
            res["failed"] += p["failed"]
        values = dict(res, setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        # verify-lemmas runs the suites' own fixed inputs; the seed cannot reach them
        "seed_used": args.workload != "verify-lemmas",
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "loadavg_at_start": load,
        **res["env"],
        "blas_threads": 1,
        "passes": res["passes"],
        "ops": res["ops"],
        "op_p90_tail_ops": res.get("op_p90_tail_ops"),
        "setup_samples_s": setups,
        "fail_ratio": res["failed"] / res["attempted"],
        "digest_sha256": res["digest"],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
