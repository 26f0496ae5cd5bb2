"""One workload in one fresh process: set-up, then a closed loop of ops.

Modes:
  setup    import h2comp and warm up, report the set-up time;
  measure  set up, then run passes of the workload's op list, untraced,
           for at most --seconds (at least one pass);
  trace    set up under the tracer, run pass 0 once untraced and once
           traced.

Prints one JSON object as its last line of stdout.  Run through run.py.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import h2comp from this checkout's src/ and nowhere else."""
    if not (SRC / "h2comp" / "__init__.py").is_file():
        sys.exit(f"no h2comp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import h2comp
    if Path(h2comp.__file__).resolve().parent != (SRC / "h2comp").resolve():
        sys.exit(f"h2comp imported from {h2comp.__file__}, not from {SRC}")
    return h2comp


class Loop:
    """Runs op lists one op at a time, timing and checking each."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.op_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.kinds: dict[str, int] = {}

    def run_pass(self, ops, label: str) -> tuple[float, list[str]]:
        """Wall time of the pass and the rendered output of each op."""
        rendered = []
        start = time.perf_counter()
        for i, op in enumerate(ops):
            if self.tracer is not None:
                self.tracer.op = f"{label}-{i}"
            self.attempted += 1
            self.kinds[op.kind] = self.kinds.get(op.kind, 0) + 1
            t = time.perf_counter()
            try:
                result = op.run()
                self.op_times.append(time.perf_counter() - t)
                ok, text = op.check(result)
            except Exception:
                traceback.print_exc()
                ok, text = False, "exception"
            if not ok:
                self.failed += 1
                print(f"op {label}-{i} ({op.kind}) failed", file=sys.stderr)
            rendered.append(text)
        return time.perf_counter() - start, rendered


def digest(rendered: list[str]) -> str:
    return hashlib.sha256("\n".join(rendered).encode()).hexdigest()


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile among n values."""
    return max(1, math.ceil(n * q / 100))


def environment(h2comp) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version"),
        "h2comp": h2comp.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--spans", help="file for the recorded spans (trace mode)")
    args = ap.parse_args(argv)

    h2comp = import_program()
    import numpy as np
    import workloads

    tracer = None
    if args.mode == "trace":
        from tracer import PER_LAYER, Tracer, metric_unit
        tracer = Tracer()
        tracer.install()
    warm = Loop(tracer)
    # the two cached zeta tables, timed whole (zeta calls included)
    tables = {}
    for name, fill in (("zeta_deriv", lambda: h2comp.zeta_deriv(1, 2.0)), ("alpha0", h2comp.alpha0)):
        t = time.perf_counter()
        fill()
        tables[f"zeta.{name}.setup_s"] = time.perf_counter() - t
    warm.run_pass(workloads.build(args.workload, np.random.default_rng(0), "tiny"), "setup")
    setup_s = time.perf_counter() - _T0
    out = {"setup_s": setup_s, "attempted": warm.attempted, "failed": warm.failed}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    def ops_of(pass_no):
        rng = np.random.default_rng([args.seed, pass_no])
        return workloads.build(args.workload, rng, args.size)

    loop = Loop(tracer)
    if args.mode == "measure":
        walls, rates, first = [], [], None
        start = time.perf_counter()
        # stop before a pass that is expected to end past --seconds
        while not walls or time.perf_counter() - start + statistics.median(walls) <= args.seconds:
            ops = ops_of(len(walls))
            wall, rendered = loop.run_pass(ops, f"p{len(walls)}")
            walls.append(wall)
            rates.append(len(ops) / wall)
            first = first or rendered
        times = loop.op_times or [float("nan")]
        # medians over passes: a stall of the machine spoils one pass, not the run
        out.update({
            "wall_s": statistics.median(walls),
            "ops_per_s": statistics.median(rates),
            "op_p50_ms": 1e3 * statistics.median(times),
            "op_p90_ms": 1e3 * sorted(times)[rank(len(times), 90) - 1],
            "op_p90_tail_ops": len(times) - rank(len(times), 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "passes": len(walls),
            "digest": digest(first),
        })
    else:
        ops = ops_of(0)
        tracer.uninstall()
        plain_wall, rendered = loop.run_pass(ops, "p0")
        tracer.install()
        traced_wall, _ = loop.run_pass(ops, "p0")
        tracer.uninstall()
        metrics = tracer.metrics() | tables
        # reports without their timestamp line, which has a fixed length
        metrics["cli.report_bytes"] = sum(len(t.encode()) for op, t in zip(ops, rendered) if op.cli)
        metrics["trace.overhead_ratio"] = traced_wall / plain_wall
        if args.spans:
            tracer.write_spans(args.spans)
        layers = {m: {"value": metrics.get(m, 0), "unit": metric_unit(m)} for m in PER_LAYER}
        out.update({"layers": layers, "passes": 1, "digest": digest(rendered)})

    out["attempted"] += loop.attempted
    out["failed"] += loop.failed
    out["ops"] = loop.kinds
    out["env"] = environment(h2comp)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
