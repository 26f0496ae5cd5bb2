"""Operator-norm estimation: finite sections, kernel quotients, bound suites."""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest

import h2comp.opnorm as opnorm
from h2comp.affine import AffineSymbol, _xi_from, comp_norm_sq, xi
from h2comp.dseries import DirichletPoly
from h2comp.fixtures import fixtures
from h2comp.opnorm import (
    ENTRY_ORDER,
    LOWER_KEYS,
    UPPER_KEYS,
    _golden_max,
    adjoint_bound_2s,
    adjoint_bound_general,
    bound_suite,
    build_matrix,
    kernel_quotient,
    kernel_quotient_report,
    phi_alpha_adjoint_sup,
    phi_alpha_kernel_ratio_sq,
    phi_alpha_operator,
    sigma_max_series,
    sigma_max_sq,
    suite_for_phi_alpha,
)
from h2comp.zeta import (
    FullIntegers,
    GeometricPowers,
    PrimeSemigroup,
    abscissa,
    alpha0,
    zeta,
    zeta_lambda,
)


# --- finite sections ------------------------------------------------------

def test_first_column_is_unit_vector():
    op = build_matrix(AffineSymbol(1.5, (0.5, 0.5)), 8, 12)
    col = op.entries[:, 0]
    zero_row = op.out_indices.index((0, 0))
    assert col[zero_row] == pytest.approx(1.0)
    assert np.sum(np.abs(col) ** 2) == pytest.approx(1.0)
    assert op.column_defects[0] == pytest.approx(0.0, abs=1e-15)


def test_constant_symbol_matrix_is_rank_one():
    op = build_matrix(AffineSymbol(2.0, ()), 32, 0)
    assert op.entries.shape[0] == 1
    expected = sum(n ** (-4.0) for n in range(1, 33))
    assert sigma_max_sq(op) == pytest.approx(expected, rel=1e-10)


def test_constant_symbol_sigma_tends_to_zeta():
    val = sigma_max_sq(build_matrix(AffineSymbol(2.0, ()), 512, 0))
    assert val == pytest.approx(zeta(4.0), abs=1e-6)
    assert val <= zeta(4.0)


def test_entry_closed_form():
    # A[k, n] = n^{-c} (-ln n)^{|k|} prod c_j^{k_j} / k_j!
    phi = AffineSymbol(1.6 + 0.2j, (0.4, 0.3))
    op = build_matrix(phi, 6, 8)
    n = 5
    j = op.input_ns.index(n)
    for k_idx, kk in enumerate(op.out_indices):
        tot = sum(kk)
        expected = (
            complex(n) ** (-phi.c)
            * (-math.log(n)) ** tot
            * (0.4 ** kk[0] / math.factorial(kk[0]))
            * (0.3 ** kk[1] / math.factorial(kk[1]))
        )
        assert op.entries[k_idx, j] == pytest.approx(expected, abs=1e-14)


def test_column_norms_certified_against_exact():
    phi = AffineSymbol(1.5, (0.6, 0.4))
    op = build_matrix(phi, 16, 40)
    col_sq = op.column_norm_sq()
    for i, n in enumerate(op.input_ns):
        exact = comp_norm_sq(phi, DirichletPoly.monomial(n, 1.0))
        assert abs(col_sq[i] + op.column_defects[i] - exact) < 1e-10


def test_truncated_columns_never_exceed_exact():
    phi = AffineSymbol(1.5, (1.0,))
    op = build_matrix(phi, 12, 10)
    col_sq = op.column_norm_sq()
    for i, n in enumerate(op.input_ns):
        exact = comp_norm_sq(phi, DirichletPoly.monomial(n, 1.0))
        assert col_sq[i] <= exact + 1e-12


def test_sigma_dominates_column_norms():
    phi = AffineSymbol(1.5, (0.75, 0.25))
    op = build_matrix(phi, 24, 20)
    assert sigma_max_sq(op) >= float(np.max(op.column_norm_sq())) - 1e-12


def test_sigma_monotone_in_truncation():
    phi = AffineSymbol(1.5, (1.0,))
    rows = sigma_max_series(phi, [(8, 40), (16, 40), (32, 40), (64, 40)])
    vals = [v for _, _, v in rows]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    rows_k = sigma_max_series(phi, [(64, 10), (64, 20), (64, 30), (64, 40)])
    vals_k = [v for _, _, v in rows_k]
    assert all(b >= a - 1e-12 for a, b in zip(vals_k, vals_k[1:]))


def test_sigma_beats_point_evaluation_bound():
    # the finite section already certifies more than zeta(2 Re c)
    phi = AffineSymbol(1.5, (1.0,))
    val = sigma_max_sq(build_matrix(phi, 16, 24))
    assert val > zeta(3.0)


def test_sigma_is_the_top_squared_singular_value():
    # the singular values of the entries themselves, with no Gram matrix,
    # are an independent route to the section's squared norm
    phi = fixtures()["single-prime"].symbol
    fig1c = fixtures()["fig1-c"].symbol
    ops = {
        "phi": build_matrix(phi, 64, 40),
        "twin": build_matrix(opnorm._vertical_twin(phi), 64, 40),
        "fig1-c": build_matrix(
            opnorm._vertical_twin(fig1c), *opnorm._truncation("affine", fig1c, None, None)
        ),
        "alpha-1.4": phi_alpha_operator(1.4, 512, 400),
    }
    vals = {}
    for name, op in ops.items():
        vals[name] = sigma_max_sq(op)
        svd = float(np.linalg.svd(op.entries, compute_uv=False)[0]) ** 2
        assert vals[name] == pytest.approx(svd, rel=1e-13, abs=0.0), name
    # a diagonal unitary relates the sections of phi and its twin
    assert vals["phi"] == pytest.approx(vals["twin"], rel=1e-13, abs=0.0)


def _build_matrix_columnwise(phi, n_in, K_out):
    """Reference: the entries column by column, a scalar recurrence per prime."""
    eff = [z for z in phi.effective_coeffs() if z != 0]
    d_act = len(eff)
    rows = math.comb(K_out + d_act, d_act)
    idx = opnorm._multi_indices(d_act, K_out)
    kmat = np.array(idx, dtype=int).reshape(rows, d_act)
    A = np.zeros((rows, n_in), dtype=complex)
    for col, n in enumerate(range(1, n_in + 1)):
        if n == 1:
            A[0, col] = 1.0
            continue
        ln = math.log(n)
        v = np.full(rows, n ** (-phi.c), dtype=complex)
        for j, cj in enumerate(eff):
            t = -cj * ln
            F = np.empty(K_out + 1, dtype=complex)
            F[0] = 1.0
            for e in range(1, K_out + 1):
                F[e] = F[e - 1] * t / e
            v = v * F[kmat[:, j]]
        A[:, col] = v
    defects = opnorm._column_defects(
        phi.c.real, [abs(z) for z in eff], np.arange(1, n_in + 1), K_out
    )
    return A, defects, idx


_SECTION_COEFFS = {
    0: (),
    1: (0.4,),
    2: (0.3, 0.15),
    3: (0.2, 0.0, 0.1, 0.15),  # a zero coefficient drops out of the lattice
    4: (0.1, 0.12, 0.08, 0.15),
}


@pytest.mark.parametrize(
    "d_act, twist",
    [(0, "none")] + [(d, tw) for d in range(1, 5) for tw in ("none", "flipped", "complex")],
)
def test_build_matrix_matches_columnwise_bytes(d_act, twist):
    coeffs = _SECTION_COEFFS[d_act]
    tw = {
        "none": None,
        "flipped": tuple(-1.0 for _ in coeffs),
        "complex": tuple(complex(math.cos(j + 1.0), math.sin(j + 1.0)) for j in range(len(coeffs))),
    }[twist]
    phi = AffineSymbol(1.5 + 0.7j, coeffs, twist=tw)
    for K_out in (0, opnorm._default_kout(max(d_act, 1))):
        for n_in in (1, 2, 17, 64):
            op = build_matrix(phi, n_in, K_out)
            A, defects, idx = _build_matrix_columnwise(phi, n_in, K_out)
            assert op.entries.tobytes() == A.tobytes(), (K_out, n_in)
            assert op.column_defects.tobytes() == defects.tobytes(), (K_out, n_in)
            assert op.out_indices == idx


# --- kernel quotients -----------------------------------------------------

def test_kernel_quotient_far_right_tends_to_one():
    phi = AffineSymbol(1.5, (0.5, 0.5))
    ratio = kernel_quotient(phi, 50.0, 64, 30)
    assert 0.99 < ratio < 1.01


def test_kernel_quotient_constant_symbol_cap():
    phi = AffineSymbol(1.8, ())
    for w in (0.75, 1.0, 2.0, 5.0):
        ratio = kernel_quotient(phi, w, 128, 0)
        assert ratio ** 2 <= zeta(3.6) + 1e-6


def test_kernel_quotient_requires_half_plane():
    phi = AffineSymbol(1.5, (1.0,))
    with pytest.raises(ValueError):
        kernel_quotient(phi, 0.5, 16, 10)
    with pytest.raises(ValueError):
        kernel_quotient(phi, 0.2 + 3.0j, 16, 10)


def test_kernel_quotient_report_defects():
    phi = AffineSymbol(1.5, (1.0,))
    rep = kernel_quotient_report(phi, 2.0, 64, 40)
    assert rep.image_defect >= 0.0
    assert rep.kernel_tail >= 0.0
    # at Re w = 2 the kernel mass beyond n = 64 is tiny
    assert rep.kernel_tail < 1e-2
    assert rep.ratio ** 2 <= zeta(2.0)  # never above the best upper bound


def test_kernel_quotient_is_norm_lower_bound():
    # any quotient through the finite section stays below sigma_max
    phi = AffineSymbol(1.5, (0.75, 0.25))
    op = build_matrix(phi, 48, 24)
    top = sigma_max_sq(op)
    for w in (0.8, 1.0, 1.5, 3.0):
        assert kernel_quotient(phi, w, op=op) ** 2 <= top + 1e-10


# --- adjoint bounds -------------------------------------------------------

def test_adjoint_general_constant_symbol():
    phi = AffineSymbol(1.5, ())
    grid = np.linspace(1.0, 40.0, 200)
    val = adjoint_bound_general(phi, FullIntegers(), grid)
    assert val >= zeta(3.0) - 1e-4
    assert val <= zeta(3.0) + 1e-12


def test_adjoint_general_lattice_beats_full():
    phi = AffineSymbol(1.5, (1.0,))
    grid = np.geomspace(0.55, 20.0, 300)
    lattice = adjoint_bound_general(phi, GeometricPowers(2), np.geomspace(0.05, 20.0, 300))
    full = adjoint_bound_general(phi, FullIntegers(), grid)
    assert lattice > full


def test_adjoint_general_strictly_above_point_bound():
    for phi in (AffineSymbol(1.5, (1.0,)), AffineSymbol(2.0, (0.5, 0.5))):
        val = adjoint_bound_general(phi, GeometricPowers(2), np.geomspace(0.05, 30.0, 400))
        assert val > zeta(2.0 * phi.c.real)


def test_adjoint_general_empty_grid():
    with pytest.raises(ValueError):
        adjoint_bound_general(AffineSymbol(1.5, (1.0,)), FullIntegers(), [])


@pytest.mark.parametrize("xi_val", [0.1, 0.2, 0.25])
def test_adjoint_2s_diagonal_reciprocal(xi_val):
    # on the diagonal Re c - 1/2 = r the sup is exactly 1/xi, attained
    # only in the x -> 0+ limit
    val = adjoint_bound_2s(0.5 + xi_val, xi_val)
    assert val == pytest.approx(1.0 / xi_val, abs=1e-6)


def test_adjoint_2s_reciprocal_lower_bound_sweep():
    rng = np.random.default_rng(97)
    for _ in range(15):
        r = float(rng.uniform(0.05, 1.5))
        a = 0.5 + r + float(rng.uniform(0.0, 1.0))
        val = adjoint_bound_2s(complex(a, rng.normal()), r)
        x = xi(AffineSymbol.unchecked(a, (r,)))
        assert val >= 1.0 / x - 1e-9


def test_adjoint_2s_single_prime_interior():
    val = adjoint_bound_2s(1.5, 1.0)
    assert val >= max(1.0, zeta(3.0))


def test_adjoint_2s_domain():
    with pytest.raises(ValueError):
        adjoint_bound_2s(1.0, 1.0)  # Re c - 1/2 < r
    with pytest.raises(ValueError):
        adjoint_bound_2s(1.5, 0.0)  # needs r > 0


# Scalar-loop references for the three adjoint suprema: each grid point
# is one scalar zeta call.  The library evaluates each grid with one
# vector zeta call and the same arithmetic, so the results must agree
# exactly.  `golden` is the refinement step; with the refinement
# switched off the result is the grid maximum itself.

def _no_refinement(f, lo, hi):
    return lo, -math.inf


def _ref_adjoint_2s(c, r, golden):
    cc, rr = complex(c), float(r)
    a = cc.real - 0.5
    base = 2.0 * cc.real - 2.0 * rr

    def g(x):
        arg = base + 2.0 * rr * x
        if arg <= 1.0:
            return 0.0
        return (2.0 - x) * x * zeta(arg)

    xs = list(np.geomspace(1e-5, 1.0, 512))
    x_val = _xi_from(max(a, rr), rr)
    if x_val > rr:
        xs.append(1.0 - rr / x_val)
    xs = sorted(set(xs))
    vals = [g(x) for x in xs]
    i = int(np.argmax(vals))
    lo = xs[i - 1] if i > 0 else xs[0]
    hi = xs[i + 1] if i + 1 < len(xs) else 1.0
    best = max(vals[i], golden(g, lo, hi)[1])
    if abs(base - 1.0) <= 1e-12:
        best = max(best, 1.0 / rr)
    return best


def _ref_adjoint_general(phi, spec, grid, golden):
    grid = sorted(float(s) for s in grid)
    half_absc = abscissa(spec) / 2.0

    def q(sigma):
        re_phi = phi.c.real - sum(
            cj * float(p) ** (-sigma) for cj, p in zip(phi.coeffs, phi.primes)
        )
        return zeta(2.0 * re_phi) / zeta_lambda(spec, 2.0 * sigma)

    vals = [q(s) for s in grid]
    i = int(np.argmax(vals))
    lo = grid[i - 1] if i > 0 else half_absc + 0.5 * (grid[0] - half_absc)
    hi = grid[i + 1] if i + 1 < len(grid) else grid[-1] * 1.5
    return max(vals[i], golden(q, lo, hi)[1])


def _ref_phi_alpha_adjoint_sup(a, golden):
    def g(x):
        return 4.0 * x / (1.0 + x) ** 2 * zeta(1.0 + 2.0 * a * x)

    xs = np.geomspace(1e-5, 1.0, 512)
    vals = [g(x) for x in xs]
    i = int(np.argmax(vals))
    lo = xs[i - 1] if i > 0 else xs[0] * 0.5
    hi = xs[i + 1] if i + 1 < len(xs) else 1.0
    return max(max(vals), golden(g, lo, hi)[1], 2.0 / a, zeta(1.0 + 2.0 * a))


@pytest.mark.parametrize("refine", [True, False], ids=["refined", "grid-only"])
def test_adjoint_suprema_match_scalar_loop_reference(refine, monkeypatch):
    golden = _golden_max if refine else _no_refinement
    monkeypatch.setattr(opnorm, "_golden_max", golden)
    diagonal = [AffineSymbol(0.5 + r, (r,)) for r in (0.1, 0.7, 2.0)]
    # off the diagonal the supremum is not the closed-form 1/r
    interior = [AffineSymbol(c, (r,)) for c, r in ((1.5 + 0.3j, 0.4), (2.0, 0.2), (0.9, 0.1))]
    shipped = list(fixtures().values())
    affine = [fx.symbol for fx in shipped if fx.kind == "affine"] + diagonal + interior
    for phi in affine:
        active = tuple(p for p, cj in zip(phi.primes, phi.coeffs) if cj > 0)
        if len(active) == 1:
            assert adjoint_bound_2s(phi.c, phi.r) == _ref_adjoint_2s(phi.c, phi.r, golden)
        for spec, grid in (
            (PrimeSemigroup(active), np.geomspace(0.1, 50.0, 96)),
            (FullIntegers(), np.geomspace(0.55, 50.0, 96)),
        ):
            ref = _ref_adjoint_general(phi, spec, grid, golden)
            assert adjoint_bound_general(phi, spec, grid) == ref
    alphas = [fx.symbol.alpha for fx in shipped if fx.kind == "family"]
    assert len(alphas) == 3
    for a in alphas:
        assert phi_alpha_adjoint_sup(a) == _ref_phi_alpha_adjoint_sup(a, golden)


# --- bound suites ---------------------------------------------------------

def test_suite_single_prime_bracket():
    rep = bound_suite(AffineSymbol(1.5, (1.0,)))
    assert rep.entries["genlower"].value == pytest.approx(zeta(3.0), rel=1e-12)
    assert rep.entries["mpq_upper"].value == pytest.approx(zeta(2.0), rel=1e-12)
    assert rep.entries["mpq_upper"].applicable
    assert not rep.entries["newupper"].applicable  # xi = 1 below the crossing
    assert rep.gate_ok()
    lo, hi = rep.bracket()
    assert zeta(3.0) < lo <= hi <= zeta(2.0)


def test_suite_wide_single_prime_newupper():
    rep = bound_suite(AffineSymbol(2.5, (2.0,)))
    e = rep.entries["newupper"]
    assert e.applicable
    expected = 0.5 * (zeta(5.0) + zeta(3.0))
    assert e.value == pytest.approx(expected, rel=1e-12)
    assert e.value == pytest.approx(1.11949, abs=1e-5)
    assert e.value < rep.entries["mpq_upper"].value  # beats zeta(3)
    assert rep.gate_ok()


def test_suite_two_prime_combo():
    rep = bound_suite(AffineSymbol(2.0, (0.5, 0.5)))
    x = xi(AffineSymbol(2.0, (0.5, 0.5)))
    assert x == pytest.approx(1.5 + math.sqrt(1.25), rel=1e-12)
    combo = rep.entries["combo_upper"]
    assert combo.applicable
    assert combo.value == pytest.approx(0.5 * zeta(4.0) + 0.5 * zeta(1.0 + x), rel=1e-12)
    # mpq itself is only claimed for one prime
    assert not rep.entries["mpq_upper"].applicable
    # uniform coefficients switch the d-dependent upper on
    small = rep.entries["smallnorm_upper"]
    assert small.applicable
    assert small.value == pytest.approx(zeta(4.0) * 1.5, rel=1e-12)
    assert rep.gate_ok()


def test_suite_constant_symbol_degenerates():
    rep = bound_suite(AffineSymbol(2.0, ()))
    lo, hi = rep.bracket()
    assert lo == pytest.approx(zeta(4.0), rel=1e-12)
    assert hi == pytest.approx(zeta(4.0), rel=1e-12)
    assert rep.gate_ok()


def test_suite_strict_gap_over_point_bound():
    # every non-constant symbol separates from zeta(2 Re c) strictly
    for phi in (
        AffineSymbol(1.5, (1.0,)),
        AffineSymbol(1.5, (0.75, 0.25)),
        AffineSymbol(1.5, (0.5, 0.5)),
        AffineSymbol(2.5, (2.0,)),
    ):
        rep = bound_suite(phi)
        assert rep.max_lower() > zeta(2.0 * phi.c.real)


def test_suite_json_shape():
    rep = bound_suite(AffineSymbol(1.5, (1.0,)))
    data = rep.to_jsonable()
    assert set(data) == {"entries", "bracket", "gate_ok", "violations"}
    for k, e in data["entries"].items():
        assert k in LOWER_KEYS or k in UPPER_KEYS
        assert set(e) == {"value", "applicable", "provenance"}
    assert data["gate_ok"] is True
    assert data["violations"] == []


@pytest.mark.parametrize("name,n_in,k_out", [
    *((name, None, None) for name, fx in fixtures().items() if fx.kind in ("affine", "family")),
    ("fig1-c", 1, 0),
])
def test_report_lists_the_entry_table_and_its_section(name, n_in, k_out):
    fx = fixtures()[name]
    if fx.kind == "family":
        rep = suite_for_phi_alpha(fx.symbol.alpha, n_in, k_out)
    else:
        rep = bound_suite(fx.symbol, n_in, k_out)
    data = rep.to_jsonable()
    lower = ("genlower", "adjoint_lower", "matrix_lower", "kernel_S_lower", "brevig_lower")
    upper = ("mpq_upper", "combo_upper", "smallnorm_upper", "newupper", "brevig_upper")
    assert (LOWER_KEYS, UPPER_KEYS, ENTRY_ORDER) == (lower, upper, lower + upper)
    assert tuple(data["entries"]) == lower + upper
    for e in data["entries"].values():
        assert e["applicable"] or e["value"] is None
    # the section size the report carries is the one its matrix entry names
    prov = rep.entries["matrix_lower"].provenance
    if fx.kind == "family":
        rows, cols = map(int, re.search(r"\((\d+)x(\d+)\)", prov).groups())
        assert (rep.n_in, rep.k_out) == (cols, rows - 1)
    else:
        cols, k = map(int, re.search(r"x(\d+) section \(K_out=(\d+)\)", prov).groups())
        assert (rep.n_in, rep.k_out) == (cols, k)
    if n_in is not None:
        assert (rep.n_in, rep.k_out) == (n_in, k_out)


def test_overflowing_defect_tail_is_infinite():
    # r log n passes about 355 from n = 53 on: the float tail of those
    # columns overflows while every entry stays finite, and inf is still
    # an upper bound for the mass beyond K_out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        op = build_matrix(AffineSymbol(100.0, (90.0,)), 64, 40)
    assert np.isfinite(op.entries).all()
    d = op.column_defects
    assert not np.isnan(d).any()
    assert np.isinf(d[52:]).all() and np.isfinite(d[:52]).all()


# --- the boundary-fixing family -------------------------------------------

def test_family_operator_columns_exact():
    op = phi_alpha_operator(1.0, n_in=64, K_out=80)
    col_sq = op.column_norm_sq()
    for i, n in enumerate(op.input_ns):
        # the exact column norm is 1/n; truncation plus defect restores it
        assert col_sq[i] + op.column_defects[i] == pytest.approx(1.0 / n, abs=1e-12)


def test_family_kernel_ratio_closed_form():
    for a in (0.5, 1.0, 1.4, 3.0):
        for w in (0.25, 1.0, 2.0):
            t = 2.0 ** (-w)
            x = (1.0 - t) / (1.0 + t)
            expected = 4.0 * x / (1.0 + x) ** 2 * zeta(1.0 + 2.0 * a * x)
            assert phi_alpha_kernel_ratio_sq(a, w) == pytest.approx(expected, rel=1e-13)


def test_family_kernel_ratio_climbs_to_flat_bound():
    # as w -> 0 the quotient approaches 2/alpha from below
    for a in (0.5, 1.0, 1.4):
        vals = [phi_alpha_kernel_ratio_sq(a, w) for w in (1.0, 0.1, 0.01, 1e-3, 1e-4)]
        assert all(b >= v - 1e-12 for v, b in zip(vals, vals[1:]))
        assert vals[-1] <= 2.0 / a
        assert vals[-1] >= 2.0 / a - 0.01


def test_family_kernel_ratio_domain():
    with pytest.raises(ValueError):
        phi_alpha_kernel_ratio_sq(0.0, 1.0)
    with pytest.raises(ValueError):
        phi_alpha_kernel_ratio_sq(1.0, 0.0)


def test_family_adjoint_sup_below_crossing():
    # below the crossing point the sup is the x -> 0+ boundary limit
    for a in (0.5, 1.0, 1.4):
        assert phi_alpha_adjoint_sup(a) == pytest.approx(2.0 / a, abs=1e-9)


def test_family_adjoint_sup_above_crossing():
    a = 3.0
    val = phi_alpha_adjoint_sup(a)
    assert val >= max(2.0 / a, zeta(1.0 + 2.0 * a)) - 1e-12


def test_family_suite_pinches_below_crossing():
    rep = suite_for_phi_alpha(1.0, n_in=128, K_out=200)
    assert rep.entries["brevig_lower"].value == pytest.approx(2.0, abs=1e-9)
    assert rep.entries["brevig_upper"].value == pytest.approx(2.0, abs=1e-9)
    lo, hi = rep.bracket()
    assert lo == pytest.approx(2.0, abs=1e-9)
    assert hi == pytest.approx(2.0, abs=1e-9)
    assert rep.entries["kernel_S_lower"].value >= 2.0 - 0.05
    assert rep.entries["adjoint_lower"].value >= max(2.0, zeta(3.0)) - 1e-9
    assert rep.gate_ok()


def test_family_suite_above_crossing():
    rep = suite_for_phi_alpha(3.0, n_in=128, K_out=200)
    assert rep.entries["brevig_lower"].value == pytest.approx(zeta(7.0), rel=1e-12)
    assert rep.entries["brevig_upper"].value == pytest.approx(zeta(4.0), rel=1e-12)
    assert rep.entries["brevig_upper"].value > rep.entries["brevig_lower"].value
    assert rep.gate_ok()


def test_family_kernel_reaches_adjoint():
    # the sampled closed-form quotient reaches the adjoint supremum up to
    # the O(w_min) gap left by the grid end
    for a in (0.5, 1.0, 3.0):
        rep = suite_for_phi_alpha(a, n_in=64, K_out=100)
        k = rep.entries["kernel_S_lower"].value
        s = rep.entries["adjoint_lower"].value
        assert k >= s - 1e-3


def test_family_matrix_stays_below_certified_value():
    # the finite forward section is itself a valid lower bound and must
    # not cross the collapsed bracket
    rep = suite_for_phi_alpha(1.0, n_in=128, K_out=200)
    assert rep.entries["matrix_lower"].value <= 2.0 + 1e-9


def test_alpha0_sits_between_regimes():
    a0 = alpha0()
    below = suite_for_phi_alpha(a0 - 0.02, n_in=32, K_out=60)
    above = suite_for_phi_alpha(a0 + 0.02, n_in=32, K_out=60)
    lo_b, hi_b = below.bracket()
    assert hi_b - lo_b <= 1e-9  # pinched
    lo_a, hi_a = above.bracket()
    assert hi_a - lo_a > 1e-6  # genuinely open
