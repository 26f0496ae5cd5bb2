"""The benchmark's workloads: seeded op lists and the check of each op.

A workload is a list of ops built from a numpy generator.  Each op has
a ``run`` that calls h2comp, timed by the caller, and a ``check`` that
turns the result into ``(ok, rendered)``: whether the output is
correct, and a deterministic rendering of it for the report digest.

Ops call h2comp through module attributes at call time (``h2comp.x``,
``cli.main``), so the tracer's rebinding of those names reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import h2comp
from h2comp import cli


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, str]]
    cli: bool = False


# --- helpers ----------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in process; stdout is the report, stderr is discarded."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def without_timestamp(report: str) -> str:
    return "".join(
        line for line in report.splitlines(keepends=True) if '"timestamp":' not in line
    )


def render(*values) -> str:
    return json.dumps(values, default=repr)


def stratified(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws from U(lo, hi), one in each of n equal bins, shuffled: the
    spread of a pass does not depend on the luck of the draw."""
    u = (rng.permutation(n) + rng.uniform(size=n)) / n
    return lo + u * (hi - lo)


def dirichlet_poly(rng, terms: int) -> h2comp.DirichletPoly:
    """1 plus `terms` distinct frequencies from 2..12, complex normal weights."""
    support = [1, *(int(n) for n in rng.choice(np.arange(2, 13), terms, replace=False))]
    return h2comp.DirichletPoly(
        {n: complex(rng.normal(), rng.normal()) for n in support}
    )


# --- bracket-sweep ----------------------------------------------------------

def _bounds_op(argv: list[str]) -> Op:
    def check(result):
        code, report = result
        ok = code == 0 and json.loads(report)["report"]["gate_ok"] is True
        return ok, without_timestamp(report)
    return Op("bounds", lambda: run_cli(argv), check, cli=True)


def _fmt(x: float) -> str:
    return repr(float(x))


def bracket_sweep(rng, n: int) -> list[Op]:
    """n affine symbols certified by `h2comp bounds`: one in ten on the
    diagonal Re c - 1/2 = r (one prime), one in 25 an interpolation-family
    fixture, the rest with d = 1..4 primes in equal shares."""
    n_diag = max(1, n // 10)
    n_family = max(1, n // 25)
    n_general = n - n_diag - n_family
    log_gap = np.log([0.05, 4.0])
    ops = []
    for i, lg in enumerate(stratified(rng, n_general, *log_gap)):
        d = 1 + i % 4
        gap = math.exp(lg)
        r = gap * rng.uniform(0.15, 1.0)
        coeffs = rng.dirichlet(np.ones(d)) * r
        im = rng.uniform(-2.0, 2.0)
        ops.append(_bounds_op([
            "bounds", "--c", f"{_fmt(0.5 + gap)},{_fmt(im)}",
            "--coeffs", ",".join(_fmt(x) for x in coeffs),
        ]))
    for lg in stratified(rng, n_diag, *log_gap):
        gap = math.exp(lg)
        im = rng.uniform(-2.0, 2.0)
        ops.append(_bounds_op([
            "bounds", "--c", f"{_fmt(0.5 + gap)},{_fmt(im)}", "--coeffs", _fmt(gap),
        ]))
    for _ in range(n_family):
        alpha = rng.choice(["0.5", "1", "1.4"])
        ops.append(_bounds_op(["bounds", "--fixture", f"phi-alpha-{alpha}"]))
    return [ops[i] for i in rng.permutation(len(ops))]


# --- series-oracle ----------------------------------------------------------

def _pair_op(phi, f, k_max: int) -> Op:
    def run():
        return (
            h2comp.comp_norm_sq(phi, f, K_max=k_max),
            h2comp.comp_bruteforce_norm_sq(phi, f, K_max=k_max),
        )

    def check(result):
        series, brute = result
        gap = abs(series - brute) / max(1.0, abs(brute))
        return gap <= 1e-8, render("pair", series, brute)
    return Op("comp-pair", run, check)


def _same_moment_vectors(rng, d: int, top: int = 9) -> tuple[list[int], list[int]]:
    """Two different multisets of d integers in 1..top with equal sums and
    equal square sums, in random order.  The k = 1 power sum of
    `hq_dominance` is the square sum, so the two sides must tie there."""
    seen: dict[tuple[int, int], tuple[int, ...]] = {}
    while True:
        v = tuple(sorted(int(x) for x in rng.integers(1, top + 1, d)))
        key = (sum(v), sum(x * x for x in v))
        w = seen.setdefault(key, v)
        if w != v:
            return [int(x) for x in rng.permutation(w)], [int(x) for x in rng.permutation(v)]


def _dominance_op(b: list[int], c: list[int], k: int) -> Op:
    square_sum = sum(x * x for x in b)

    def check(rows):
        _, lhs1, rhs1, _ = rows[0]
        ok = len(rows) == k and lhs1 == rhs1 == square_sum
        return ok, render("dominance", b, c, [str(x) for row in rows for x in row[1:3]])
    return Op("dominance", lambda: h2comp.hq_dominance(b, c, K=k), check)


# brute-force cost grows like K^d: these caps keep every pair and every
# comparison under about 0.3 s on a 2-core x86 VM, and the series route
# certifies its tail within K for every symbol drawn here
PAIR_K = {1: 64, 2: 48, 3: 40, 4: 28}
DOMINANCE_K = {3: 42, 4: 19}


def series_oracle(rng, n_pairs: int, n_dominance: int, dominance_k=DOMINANCE_K) -> list[Op]:
    """(phi, f) pairs through both composition-norm routes, d = 1..4 in
    equal shares, interleaved with exact dominance comparisons of
    integer vectors, d = 3 and 4 in equal shares."""
    ops = []
    for i in range(n_pairs):
        d = 1 + i % 4
        gap = rng.uniform(0.2, 1.5)
        coeffs = rng.dirichlet(np.ones(d)) * gap * rng.uniform(0.2, 1.0)
        twist = np.exp(1j * rng.uniform(0, 2 * math.pi, d)) if i % 8 >= 4 else None
        phi = h2comp.AffineSymbol(complex(0.5 + gap, rng.uniform(-1, 1)), coeffs, twist=twist)
        f = dirichlet_poly(rng, int(rng.integers(3, 8)))
        ops.append(_pair_op(phi, f, PAIR_K[d]))
    for i in range(n_dominance):
        d = 3 + i % 2
        b, c = _same_moment_vectors(rng, d)
        ops.append(_dominance_op(b, c, dominance_k[d]))
    return [ops[i] for i in rng.permutation(len(ops))]


# --- boundary-sampling ------------------------------------------------------

def _plan(rng, n: int, d: int) -> h2comp.SamplePlan:
    return h2comp.SamplePlan(n_samples=n, seed=int(rng.integers(0, 2**63)), d=d)


def _level_op(rng, n: int) -> Op:
    sym = h2comp.get_fixture("example-7.1").symbol
    delta = rng.uniform(0.72, 0.99)
    plan = _plan(rng, n, sym.d)

    def run():
        return (
            h2comp.measure_E_delta(sym, delta, plan),
            h2comp.shapiro_constant(sym, delta, plan),
        )

    def check(result):
        (est, ci95), shap = result
        tol = max(2.5 * ci95, 1e-3)
        ok = abs(est - h2comp.poly_level_measure(delta)) <= tol
        # the constant is weight * measure: its error is the measure's, scaled
        weight = 0.5 * (1.0 - delta) / (1.0 + delta)
        ok &= abs(shap - h2comp.poly_shapiro_closed_form(delta)) <= max(weight * tol, 1e-3)
        return ok, render("level", est, ci95, shap)
    return Op("level-7.1", run, check)


def _mc_op(rng, n: int) -> Op:
    sym = h2comp.get_fixture(str(rng.choice(["fig1-a", "fig1-b", "fig1-c"]))).symbol
    f = dirichlet_poly(rng, 4)
    plan = _plan(rng, n, sym.d)

    def run():
        return h2comp.mc_comp_norm_sq(sym, f, plan), h2comp.comp_norm_sq(sym, f)

    def check(result):
        (est, ci95), series = result
        return abs(est - series) <= 2.0 * ci95 + 1e-9, render("mc", est, ci95, series)
    return Op("mc-norm", run, check)


def _inner_op(rng, n: int) -> Op:
    sym = h2comp.get_fixture("example-7.3").symbol
    delta = rng.uniform(0.5, 0.99)
    plan = _plan(rng, n, sym.d)

    def check(result):
        # an inner symbol's boundary values lie on the frame circle, so
        # every level set below it is null
        est, ci95 = result
        return est <= 1e-3, render("inner", est, ci95)
    return Op("level-inner", lambda: h2comp.measure_E_delta(sym, delta, plan), check)


def _curve_op(rng, steps: int) -> Op:
    sym = h2comp.get_fixture(str(rng.choice(["fig1-a", "fig1-b", "fig1-c"]))).symbol
    T = rng.uniform(200.0, 400.0)

    def check(trace):
        r0, r = h2comp.annulus_radii(sym)
        offs = np.hypot(trace[:, 1] - sym.c.real, trace[:, 2] - sym.c.imag)
        lo, hi = float(offs.min()), float(offs.max())
        ok = lo >= r0 - 1e-9 and hi <= r + 1e-9
        ok &= abs(lo - r0) <= 1e-2 and abs(hi - r) <= 1e-2
        return ok, render("curve", lo, hi)
    return Op("curve", lambda: h2comp.curve_trace(sym, -T, T, steps), check)


def boundary_sampling(rng, scale: int) -> list[Op]:
    """Sampled measures and a curve trace on the shipped fixtures, at
    fixed sample counts of 2^18 to 2^21 per op (scaled down by 2^scale),
    and the shipped `disc-transfer` suite (fixed inputs), the one caller
    of the disc layer.  Seven ops, so that the median op is the middle
    one, whose cost is well apart from its neighbours'."""
    ops = [
        *verify_lemmas(["disc-transfer"]),
        _level_op(rng, 2**21 >> scale),
        _mc_op(rng, 2**18 >> scale),
        _mc_op(rng, 2**20 >> scale),
        _inner_op(rng, 2**19 >> scale),
        _inner_op(rng, 2**20 >> scale),
        # the annulus check needs a t-grid step below about 0.006
        _curve_op(rng, max(2**20 >> scale, 2**17)),
    ]
    return [ops[i] for i in rng.permutation(len(ops))]


# --- verify-lemmas ----------------------------------------------------------

def verify_op(argv: list[str]) -> Op:
    def check(result):
        code, report = result
        ok = code == 0 and json.loads(report)["all_passed"] is True
        return ok, without_timestamp(report)
    return Op("verify-lemmas", lambda: run_cli(argv), check, cli=True)


def verify_lemmas(suites: list[str] | None) -> list[Op]:
    if suites is None:
        return [verify_op(["verify-lemmas"])]
    return [verify_op(["verify-lemmas", "--suite", s]) for s in suites]


# --- op lists ---------------------------------------------------------------

def build(workload: str, rng, size: str) -> list[Op]:
    """The op list of one pass.  `full` is the measured size; `tiny` is the
    warm-up and smoke-test size."""
    full = size == "full"
    if workload == "bracket-sweep":
        return bracket_sweep(rng, 25 if full else 5)
    if workload == "series-oracle":
        return series_oracle(rng, 12, 4) if full else series_oracle(rng, 4, 2, {3: 8, 4: 6})
    if workload == "boundary-sampling":
        return boundary_sampling(rng, 0 if full else 8)
    if workload == "verify-lemmas":
        return verify_lemmas(None if full else ["crossing-point"])
    raise ValueError(f"unknown workload {workload!r}")
