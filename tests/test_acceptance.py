"""Acceptance gate: the twelve shipped criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict
line; each criterion asserts its own tolerance and, where stated, its
runtime budget.  Fixed seeds make every verdict reproducible.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import h2comp.cli as cli
from h2comp.affine import (
    AffineSymbol,
    annulus_radii,
    bvn_decompose,
    comp_bruteforce_norm_sq,
    comp_norm_sq,
    hq_dominance,
    majorizes,
    xi,
)
from h2comp.dseries import DirichletPoly
from h2comp.fixtures import get_fixture
from h2comp.opnorm import (
    BoundEntry,
    BoundReport,
    adjoint_bound_2s,
    bound_suite,
    suite_for_phi_alpha,
)
from h2comp.torus import (
    SamplePlan,
    curve_trace,
    mc_comp_norm_sq,
    measure_E_delta,
    shapiro_constant,
)
from h2comp.zeta import alpha0, dkzeta_sandwich, riemann_sum_bounds, zeta


def _verdict(num: int, label: str, ok: bool, detail: str, elapsed: float) -> None:
    word = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {word} {label}: {detail} ({elapsed:.2f} s)", flush=True)


def test_criterion_01_polynomial_level_constant():
    t0 = time.monotonic()
    sym = get_fixture("example-7.1").symbol
    delta = math.sqrt(5.0 / 8.0)
    plan = SamplePlan(n_samples=1_000_000, seed=20260822, d=1)
    est = measure_E_delta(sym, delta, plan)
    shap = shapiro_constant(sym, delta, plan)
    target = (13.0 - 4.0 * math.sqrt(10.0)) / 18.0
    elapsed = time.monotonic() - t0
    err = abs(shap - target)
    ok = err <= 2e-3 and elapsed < 30.0
    _verdict(1, "level-set constant", ok,
             f"constant {shap:.8f} vs {target:.8f}, err {err:.2e}, "
             f"measure {est.estimate:.5f} +- {est.ci95:.1e}", elapsed)
    assert err <= 2e-3
    assert elapsed < 30.0


def test_criterion_02_annulus_traces():
    expected = {"fig1-a": 0.5, "fig1-b": 0.0, "fig1-c": 1.0 / 3.0}
    worst = 0.0
    t_all = time.monotonic()
    details = []
    ok = True
    for name, inner in expected.items():
        sym = get_fixture(name).symbol
        r0, r = annulus_radii(sym)
        assert r0 == pytest.approx(inner, abs=1e-12)
        assert r == pytest.approx(1.0, abs=1e-12)
        t0 = time.monotonic()
        trace = curve_trace(sym, -200.0, 200.0, 400_000)
        elapsed = time.monotonic() - t0
        off = np.hypot(trace[:, 1] - sym.c.real, trace[:, 2] - sym.c.imag)
        err = abs(float(off.min()) - inner)
        worst = max(worst, err)
        ok &= err <= 1e-2 and elapsed < 10.0
        details.append(f"{name} inner {off.min():.4f} (want {inner:.4f}, {elapsed:.2f} s)")
        assert err <= 1e-2, f"{name}: inner radius off by {err:.3g}"
        assert elapsed < 10.0
    _verdict(2, "annulus traces", ok,
             "; ".join(details) + f"; worst err {worst:.1e}", time.monotonic() - t_all)


def test_criterion_03_multinomial_dominance():
    t0 = time.monotonic()
    rows = hq_dominance((4, 1, 1), (3, 3, 0), K=60)
    elapsed = time.monotonic() - t0
    k1 = rows[0]
    equal_at_one = k1[1] == k1[2] == 18
    strict_after = all(lhs < rhs for _, lhs, rhs, _ in rows[1:])
    ok = equal_at_one and strict_after and elapsed < 5.0
    _verdict(3, "multinomial dominance", ok,
             f"k=1 gives {k1[1]} = {k1[2]}, strict for k=2..60: {strict_after}", elapsed)
    assert equal_at_one
    assert strict_after
    assert elapsed < 5.0


def test_criterion_04_adjoint_diagonal():
    t0 = time.monotonic()
    worst = 0.0
    for x in (0.1, 0.2, 0.25):
        got = adjoint_bound_2s(complex(0.5 + x, 0.0), x)
        worst = max(worst, abs(got - 1.0 / x))
    # general sweep: the supremum never drops below 1/xi
    sweep_ok = True
    margin = math.inf
    for gap in np.linspace(0.05, 2.0, 10):
        for frac in (0.2, 0.4, 0.6, 0.8, 1.0):
            r = float(gap * frac)
            sym = AffineSymbol(complex(0.5 + gap, 0.0), (r,))
            val = adjoint_bound_2s(sym.c, r)
            floor = 1.0 / xi(sym)
            margin = min(margin, val - floor)
            sweep_ok &= val >= floor - 1e-9
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and sweep_ok
    _verdict(4, "adjoint diagonal limit", ok,
             f"diagonal err {worst:.2e}; sweep min margin over 1/xi {margin:.3g}", elapsed)
    assert worst <= 1e-6
    assert sweep_ok


def test_criterion_05_interpolation_family_norm():
    t0 = time.monotonic()
    worst = 0.0
    for a in (0.5, 1.0, 1.4):
        rep = suite_for_phi_alpha(a, n_in=64)
        lo = rep.entries["brevig_lower"].value
        hi = rep.entries["brevig_upper"].value
        worst = max(worst, abs(lo - 2.0 / a), abs(hi - 2.0 / a))
    a0 = alpha0()
    residual = abs(a0 * zeta(1.0 + a0) - 2.0)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and 1.45 < a0 < 1.55 and residual < 1e-9
    _verdict(5, "interpolation family", ok,
             f"bracket err {worst:.2e}; crossing point {a0:.10f}, residual {residual:.2e}",
             elapsed)
    assert worst <= 1e-9
    assert 1.45 < a0 < 1.55
    assert residual < 1e-9


def test_criterion_06_averaged_upper_dominance():
    t0 = time.monotonic()
    min_margin = math.inf
    for x in (1.5, 2.0, 3.0):
        sym = AffineSymbol(complex(0.5 + x, 0.0), (x,))
        rep = bound_suite(sym, n_in=8, K_out=6)
        new = rep.entries["newupper"]
        assert new.applicable
        assert new.value == pytest.approx(0.5 * (zeta(1 + 2 * x) + zeta(1 + x)), rel=1e-12)
        margin = zeta(1.0 + x) - new.value
        min_margin = min(min_margin, margin)
    elapsed = time.monotonic() - t0
    ok = min_margin > 1e-3
    _verdict(6, "averaged upper bound", ok,
             f"smallest dominance margin {min_margin:.6f}", elapsed)
    assert min_margin > 1e-3


def test_criterion_07_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260822)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        gap = float(rng.uniform(0.3, 1.5))
        frac = float(rng.uniform(0.3, 1.0))
        w = rng.dirichlet(np.ones(d)) * gap * frac
        sym = AffineSymbol(complex(0.5 + gap, float(rng.uniform(-1, 1))), tuple(w))
        ns = rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 12], size=3, replace=False)
        f = DirichletPoly(
            {int(n): complex(rng.standard_normal(), rng.standard_normal()) for n in ns}
        )
        a = comp_norm_sq(sym, f, K_max=64)
        b = comp_bruteforce_norm_sq(sym, f, K_max=64)
        worst = max(worst, abs(a - b))
    series_ok = worst <= 1e-8

    # Monte Carlo boundary identity on ten fixed cases
    probe = DirichletPoly({1: 1.0, 2: 0.5, 3: 0.25, 6: 0.125})
    symbols = [get_fixture(n).symbol for n in
               ("fig1-a", "fig1-b", "fig1-c", "single-prime", "single-prime-wide")]
    for _ in range(5):
        d = int(rng.integers(1, 4))
        gap = float(rng.uniform(0.4, 1.2))
        w = rng.dirichlet(np.ones(d)) * gap * float(rng.uniform(0.4, 1.0))
        symbols.append(AffineSymbol(complex(0.5 + gap, 0.0), tuple(w)))
    mc_ok = True
    worst_mc = 0.0
    for i, sym in enumerate(symbols):
        plan = SamplePlan(n_samples=50_000, seed=300 + i, d=max(sym.d, 1))
        res = mc_comp_norm_sq(sym, probe, plan)
        exact = comp_norm_sq(sym, probe)
        excess = abs(res.estimate - exact) - 3.0 * res.ci95
        worst_mc = max(worst_mc, excess)
        mc_ok &= excess <= 1e-6
    elapsed = time.monotonic() - t0
    ok = series_ok and mc_ok
    _verdict(7, "oracle equivalence", ok,
             f"series route max err {worst:.2e} over 100 pairs; "
             f"MC worst CI excess {worst_mc:.2e} over 10 cases", elapsed)
    assert series_ok
    assert mc_ok


def test_criterion_08_point_evaluation_gap():
    t0 = time.monotonic()
    sym = AffineSymbol(complex(1.5, 0.0), (1.0,))
    rep = bound_suite(sym, n_in=64, K_out=40)
    best = max(rep.entries["adjoint_lower"].value, rep.entries["matrix_lower"].value)
    gap = best - zeta(3.0)
    elapsed = time.monotonic() - t0
    ok = gap >= 1e-3 and elapsed < 60.0
    _verdict(8, "point-evaluation gap", ok,
             f"best lower {best:.10f} exceeds {zeta(3.0):.10f} by {gap:.6f}", elapsed)
    assert gap >= 1e-3
    assert elapsed < 60.0


def test_criterion_09_zeta_grids():
    t0 = time.monotonic()
    for k in range(1, 7):
        for sigma in (1.2, 1.5, 2.0, 3.0, 5.0):
            lo, mid, hi = dkzeta_sandwich(k, sigma)
            assert lo <= mid <= hi
            assert lo < hi
    for sigma in (1.2, 1.5, 2.0, 3.0):
        target = 1.0 / (sigma - 1.0)
        prev_u, prev_l = math.inf, -math.inf
        for m in range(1, 201):
            lower, upper = riemann_sum_bounds(sigma, m)
            assert lower <= target <= upper
            assert upper - lower == pytest.approx(1.0 / m, rel=1e-12)
            assert upper <= prev_u + 1e-15
            assert lower >= prev_l - 1e-15
            prev_u, prev_l = upper, lower
    elapsed = time.monotonic() - t0
    ok = elapsed < 5.0
    _verdict(9, "zeta grids", ok,
             "derivative sandwiches (k=1..6) and integral brackets (m=1..200) all hold",
             elapsed)
    assert elapsed < 5.0


def test_criterion_10_halved_norm_bound():
    from h2comp.disc import PowerSeries, psi_matrix

    t0 = time.monotonic()
    rng = np.random.default_rng(1203)
    n = 256
    M = psi_matrix(n)
    bound_ok = True
    for _ in range(200):
        coeffs = (rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
        coeffs *= rng.uniform(0.1, 3.0)
        f = PowerSeries(coeffs)
        lhs = float(np.sum(np.abs(M @ f.coeffs) ** 2))
        cap = 0.5 * (abs(f.coeffs[0]) ** 2 + f.norm_sq())
        bound_ok &= lhs <= cap + 1e-10
    ne = 2000
    g = PowerSeries(0.99 ** np.arange(ne + 1, dtype=float))
    lhs = float(np.sum(np.abs(psi_matrix(ne) @ g.coeffs) ** 2))
    cap = 0.5 * (abs(g.coeffs[0]) ** 2 + g.norm_sq())
    ratio = lhs / cap
    elapsed = time.monotonic() - t0
    ok = bound_ok and ratio > 0.95
    _verdict(10, "halved norm bound", ok,
             f"200 random series bounded; extremal ratio {ratio:.4f}", elapsed)
    assert bound_ok
    assert ratio > 0.95


def _transfer(rng, c_vec):
    """One mass transfer between two slots: the result is majorized."""
    b = np.array(c_vec, dtype=float)
    i, j = rng.choice(len(b), size=2, replace=False)
    lam = float(rng.uniform(0.2, 0.8))
    bi, bj = b[i], b[j]
    b[i] = lam * bi + (1.0 - lam) * bj
    b[j] = lam * bj + (1.0 - lam) * bi
    return b


def test_criterion_11_subordination():
    t0 = time.monotonic()
    rng = np.random.default_rng(777)
    probe = DirichletPoly({1: 1.0, 2: 0.7, 3: 0.4, 6: 0.2})
    order_ok = True
    for _ in range(50):
        d = int(rng.integers(2, 5))
        r = float(rng.uniform(0.3, 0.9))
        c_vec = rng.dirichlet(np.ones(d)) * r
        b_vec = _transfer(rng, c_vec)
        if rng.uniform() < 0.5:
            b_vec = _transfer(rng, b_vec)
        assert majorizes(b_vec, c_vec)
        nb = comp_norm_sq(AffineSymbol(1.5, tuple(b_vec)), probe, K_max=64)
        nc = comp_norm_sq(AffineSymbol(1.5, tuple(c_vec)), probe, K_max=64)
        order_ok &= nb <= nc + 1e-9

    min_gap = math.inf
    worst_residual = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 5))
        r = float(rng.uniform(0.3, 0.9))
        c_vec = np.sort(rng.dirichlet(np.ones(d)))[::-1] * r
        c_vec[0] += 0.1 * r  # widen the spread so the transfer is not a swap
        c_vec *= r / c_vec.sum()
        b_vec = _transfer(rng, c_vec)
        assert not np.allclose(np.sort(b_vec), np.sort(c_vec))
        nb = comp_norm_sq(AffineSymbol(1.5, tuple(b_vec)), probe, K_max=64)
        nc = comp_norm_sq(AffineSymbol(1.5, tuple(c_vec)), probe, K_max=64)
        min_gap = min(min_gap, nc - nb)
        parts = bvn_decompose(b_vec, c_vec)
        recon = np.zeros(d)
        total = 0.0
        for wgt, perm in parts:
            recon += wgt * np.array([c_vec[perm[i]] for i in range(d)])
            total += wgt
        worst_residual = max(worst_residual, float(np.max(np.abs(recon - b_vec))))
        assert abs(total - 1.0) < 1e-12
    elapsed = time.monotonic() - t0
    ok = order_ok and min_gap > 0.0 and worst_residual < 1e-10
    _verdict(11, "subordination", ok,
             f"50 ordered pairs; strict min gap {min_gap:.3e}; "
             f"decomposition residual {worst_residual:.1e}", elapsed)
    assert order_ok
    assert min_gap > 0.0
    assert worst_residual < 1e-10


def test_criterion_12_consistency_gate(monkeypatch, capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(424242)
    violations = []
    for idx in range(200):
        d = int(rng.integers(0, 4))
        gap = float(rng.uniform(0.02, 2.5))
        frac = float(rng.uniform(0.0, 1.0))
        if d == 0:
            coeffs = ()
        else:
            coeffs = tuple(rng.dirichlet(np.ones(d)) * gap * frac)
        sym = AffineSymbol(complex(0.5 + gap, float(rng.uniform(-2, 2))), coeffs)
        rep = bound_suite(sym, n_in=24)
        if not rep.gate_ok():
            violations.extend(f"case {idx}: {v}" for v in rep.violations())
    # a synthetic violation must surface as exit code 2
    poisoned = BoundReport()
    poisoned.entries["genlower"] = BoundEntry(5.0, True, "synthetic")
    poisoned.entries["mpq_upper"] = BoundEntry(1.0, True, "synthetic")
    monkeypatch.setattr(cli, "bound_suite", lambda *a, **k: poisoned)
    code = cli.main(["bounds", "--c", "1.5", "--coeffs", "1"])
    capsys.readouterr()
    elapsed = time.monotonic() - t0
    ok = not violations and code == 2
    _verdict(12, "consistency gate", ok,
             f"200-point sweep, {len(violations)} violations; "
             f"synthetic violation exit code {code}", elapsed)
    assert violations == []
    assert code == 2
