"""Operator-norm estimation: finite sections, kernel quotients, bound suites."""

from __future__ import annotations

import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest

import h2comp.opnorm as opnorm
from h2comp.affine import AffineSymbol, _xi_from, comp_norm_sq, h2k_means, xi
from h2comp.cli import _gate_sweep_symbols, main as cli_main
from h2comp.dseries import DirichletPoly
from h2comp.fixtures import fixtures
from h2comp.opnorm import (
    ENTRY_ORDER,
    LOWER_KEYS,
    UPPER_KEYS,
    _BRENT_ITERS,
    _BRENT_RTOL,
    _adjoint_entry,
    _brent_max,
    adjoint_bound_2s,
    adjoint_bound_general,
    bound_suite,
    build_matrix,
    kernel_quotient,
    kernel_quotient_report,
    phi_alpha_adjoint_sup,
    phi_alpha_kernel_ratio_sq,
    sigma_max_series,
    sigma_max_sq,
    suite_for_phi_alpha,
)
from h2comp.zeta import alpha0, zeta


# --- finite sections ------------------------------------------------------

def test_first_column_is_unit_vector():
    op = build_matrix(AffineSymbol(1.5, (0.5, 0.5)), 8, 12)
    col = op.entries[:, 0]
    assert col[0] == pytest.approx(1.0)
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
    # the reference's A[k, n] = n^{-c} (-ln n)^{|k|} prod c_j^{k_j} / k_j!
    phi = AffineSymbol(1.6 + 0.2j, (0.4, 0.3))
    A, _, idx = _build_matrix_columnwise(phi, 6, 8)
    n = 5
    for k_idx, kk in enumerate(idx):
        tot = sum(kk)
        expected = (
            complex(n) ** (-phi.c)
            * (-math.log(n)) ** tot
            * (0.4 ** kk[0] / math.factorial(kk[0]))
            * (0.3 ** kk[1] / math.factorial(kk[1]))
        )
        assert A[k_idx, n - 1] == pytest.approx(expected, abs=1e-14)


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


def _cis(*angles):
    return tuple(complex(math.cos(a), math.sin(a)) for a in angles)


# symbols with more active primes than any shipped fixture, off the real
# axis and with complex twists, at the section sizes bound_suite uses
_THREE_PRIMES = AffineSymbol(1.2 + 0.7j, (0.3, 0.1, 0.05), twist=_cis(1.0, 2.0, 3.0))
_FOUR_PRIMES = AffineSymbol(2.0 - 1.0j, (0.2, 0.3, 0.1, 0.15), twist=_cis(0.5, -1.5, 2.5, 4.0))


def _flipped(phi):
    """phi with every coefficient rotated to -c_j."""
    return AffineSymbol(phi.c, phi.coeffs, twist=tuple(-1.0 for _ in phi.coeffs))


def test_sigma_is_the_top_squared_singular_value():
    # the singular values of the literal lattice entries, with no Gram
    # matrix, are an independent route to the section's squared norm
    phi = fixtures()["single-prime"].symbol
    fig1c = fixtures()["fig1-c"].symbol
    sections = {
        "phi": (phi, 64, 40),
        "twin": (_flipped(phi), 64, 40),
        "fig1-c": (_flipped(fig1c), *opnorm._truncation("affine", None, None)),
        "d3": (_THREE_PRIMES, *opnorm._truncation("affine", None, None)),
        "d4": (_FOUR_PRIMES, 64, _LATTICE_KOUT[4]),
    }
    vals = {}
    for name, (sym, n_in, K_out) in sections.items():
        A = _build_matrix_columnwise(sym, n_in, K_out)[0]
        svd = float(np.linalg.svd(A, compute_uv=False)[0]) ** 2
        op = build_matrix(sym, n_in, K_out)
        vals[name] = sigma_max_sq(op)
        assert vals[name] == pytest.approx(svd, rel=1e-13, abs=0.0), name
        # the kernel quotients of the same section against those of the
        # literal entries
        ns = np.arange(1, n_in + 1, dtype=float)
        for s in opnorm._KERNEL_SIGMAS:
            q = kernel_quotient(op, s)
            v = ns ** -s
            literal = float(np.linalg.norm(A @ v) / np.linalg.norm(v))
            assert q == pytest.approx(literal, rel=1e-13, abs=0.0), (name, s)
    # a diagonal unitary relates the sections of phi and its twin
    assert vals["phi"] == pytest.approx(vals["twin"], rel=1e-13, abs=0.0)


@pytest.mark.parametrize("phi", [
    AffineSymbol(1.5, (1.0,)),
    AffineSymbol(1.8 + 0.3j, (0.4, 0.3), twist=_cis(0.7, 2.0)),
    _THREE_PRIMES,
    _FOUR_PRIMES,
], ids=["d1", "d2", "d3", "d4"])
def test_degree_weights_are_the_power_means(phi):
    # the factor's weights ||alpha_t||^2 are the multinomial sums over
    # the lattice, convolved in log space (`_log_weights`); the power
    # means reach the same numbers by folding binomials
    n_in, K = opnorm._truncation("affine", None, None)
    M = build_matrix(phi, n_in, K).factor
    r = sum(phi.coeffs)
    means = h2k_means(phi.coeffs, K)
    for col, n in enumerate(range(2, n_in + 1), start=1):
        row = n ** -phi.c.real * math.log(n) ** np.arange(K + 1)
        weights = (M[:, col] / row) ** 2
        expected = [means[t] * r ** (2 * t) / math.factorial(t) ** 2 for t in range(K + 1)]
        np.testing.assert_allclose(weights, expected, rtol=1e-13, atol=0.0, err_msg=f"column {n}")


def test_bound_suite_computes_no_defects(monkeypatch):
    expected = bound_suite(_FOUR_PRIMES).to_jsonable()

    def refuse(*args, **kwargs):
        raise AssertionError("bound_suite computed a truncation defect")

    monkeypatch.setattr(opnorm, "_column_defects", refuse)
    monkeypatch.setattr(opnorm, "kernel_quotient_report", refuse)
    assert bound_suite(_FOUR_PRIMES).to_jsonable() == expected


def test_bound_suite_reads_the_build_matrix_section():
    # the report's section entries are the numbers the section suites
    # certify: the same operator, eigenvalue call and kernel quotient
    syms = [fx.symbol for fx in fixtures().values() if fx.kind == "affine"]
    syms += list(_gate_sweep_symbols())
    assert len(syms) == 205
    for i, phi in enumerate(syms):
        rep = bound_suite(phi)
        op = build_matrix(phi, rep.n_in, rep.k_out)
        assert rep.entries["matrix_lower"].value == sigma_max_sq(op), i
        best = max(kernel_quotient(op, s) ** 2 for s in opnorm._KERNEL_SIGMAS)
        assert rep.entries["kernel_S_lower"].value == best, i


def test_section_caps():
    # one check for the affine section, with one message: an output
    # degree past _K_CAP, a (K_out + 1) x n_in factor past _ENTRY_CAP
    # entries, no input column or a negative degree
    phi = fixtures()["fig1-c"].symbol
    wide = opnorm._ENTRY_CAP // 101 + 1
    for n_in, K_out in ((8, opnorm._K_CAP + 1), (wide, 100), (0, 10), (8, -1)):
        with pytest.raises(ValueError, match="outside the caps"):
            build_matrix(phi, n_in, K_out)
    # the largest degree builds, and a factor of exactly _ENTRY_CAP
    # entries passes the check
    assert build_matrix(phi, 2, opnorm._K_CAP).factor.shape == (opnorm._K_CAP + 1, 2)
    opnorm._check_section(opnorm._ENTRY_CAP // 1000, 999)
    # the family's Gram has no degree: 1 <= n_in <= _ENTRY_CAP columns,
    # and alpha log n_in inside the overflow guard
    for n_in in (0, -3, opnorm._ENTRY_CAP + 1):
        with pytest.raises(ValueError, match="1 <= n_in"):
            opnorm._family_gram_lower(1.0, n_in)
    with pytest.raises(ValueError, match="overflow"):
        opnorm._family_gram_lower(101.0, 512)


@pytest.mark.parametrize("phi, bracket", [
    (AffineSymbol(1.8, (0.2,) * 6), (1.1185674231019742, 1.1378294696556568)),
    (AffineSymbol(3.6, (1.0, 0.9, 0.5, 0.3, 0.2, 0.1)), (1.007328136420982, 1.0153613035105948)),
], ids=["uniform", "spread"])
def test_six_prime_lower_ends_use_degree_40(phi, bracket):
    # the default section has output degree 40 at every d; at degree 8
    # the binding lower end falls short by about 1e-10 relative
    rep = bound_suite(phi)
    low = rep.entries["matrix_lower"].value
    assert rep.k_out == 40
    assert low == bound_suite(phi, None, 40).entries["matrix_lower"].value
    assert low > bound_suite(phi, None, 8).entries["matrix_lower"].value
    assert rep.max_lower() == low
    assert rep.bracket() == pytest.approx(bracket, rel=1e-13, abs=0.0)
    assert rep.gate_ok()


def _lattice_indices(d, K):
    """Exponent vectors over d primes, ordered by total degree <= K, then
    lexicographically."""
    if d == 0:
        return [()]
    return sorted(
        (k for k in itertools.product(range(K + 1), repeat=d) if sum(k) <= K),
        key=lambda k: (sum(k), k),
    )


def _build_matrix_columnwise(phi, n_in, K_out):
    """Reference: the literal lattice section comb(K_out + d, d) x n_in,
    column by column, a scalar recurrence per prime, with the defects of
    the same columns."""
    eff = [z for z in phi.effective_coeffs() if z != 0]
    d_act = len(eff)
    idx = _lattice_indices(d_act, K_out)
    rows = len(idx)
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
        phi.c.real, [x for x in phi.coeffs if x > 0.0], np.arange(1, n_in + 1), K_out
    )
    return A, defects, idx


# output degrees of the literal lattice references: at d = 4 and K = 40
# the lattice has comb(44, 4) = 135,751 rows
_LATTICE_KOUT = {1: 40, 2: 40, 3: 27, 4: 15}

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
    # the degree-factor section against the literal lattice: an isometry
    # apart, so equal singular values, column norms and kernel quotients,
    # and the same unit column 0 and column defects
    coeffs = _SECTION_COEFFS[d_act]
    tw = {
        "none": None,
        "flipped": tuple(-1.0 for _ in coeffs),
        "complex": tuple(complex(math.cos(j + 1.0), math.sin(j + 1.0)) for j in range(len(coeffs))),
    }[twist]
    phi = AffineSymbol(1.5 + 0.7j, coeffs, twist=tw)
    for K_out in (0, _LATTICE_KOUT[max(d_act, 1)]):
        for n_in in (1, 2, 17, 64):
            at = (K_out, n_in)
            op = build_matrix(phi, n_in, K_out)
            A, defects, _ = _build_matrix_columnwise(phi, n_in, K_out)
            assert op.entries.shape == (K_out + 1 if d_act else 1, n_in), at
            top = [np.linalg.svd(B, compute_uv=False)[0] for B in (op.entries, A)]
            np.testing.assert_allclose(top[0], top[1], rtol=1e-13, atol=0.0, err_msg=str(at))
            np.testing.assert_allclose(
                op.column_norm_sq(), np.sum(np.abs(A) ** 2, axis=0), rtol=1e-13, atol=0.0, err_msg=str(at)
            )
            ns = np.arange(1, n_in + 1, dtype=float)
            for s in opnorm._KERNEL_SIGMAS:
                v = ns ** -s
                np.testing.assert_allclose(
                    np.linalg.norm(op.entries @ v), np.linalg.norm(A @ v), rtol=1e-13, atol=0.0, err_msg=str(at)
                )
            e0 = np.zeros(op.entries.shape[0])
            e0[0] = 1.0
            assert np.array_equal(op.entries[:, 0], e0), at
            assert op.column_defects.tobytes() == defects.tobytes(), at


# --- kernel quotients -----------------------------------------------------

def test_kernel_quotient_far_right_tends_to_one():
    phi = AffineSymbol(1.5, (0.5, 0.5))
    ratio = kernel_quotient(build_matrix(phi, 64, 30), 50.0)
    assert 0.99 < ratio < 1.01


def test_kernel_quotient_constant_symbol_cap():
    op = build_matrix(AffineSymbol(1.8, ()), 128, 0)
    for w in (0.75, 1.0, 2.0, 5.0):
        ratio = kernel_quotient(op, w)
        assert ratio ** 2 <= zeta(3.6) + 1e-6


def test_kernel_quotient_requires_half_plane():
    op = build_matrix(AffineSymbol(1.5, (1.0,)), 16, 10)
    with pytest.raises(ValueError):
        kernel_quotient(op, 0.5)
    with pytest.raises(ValueError):
        kernel_quotient(op, 0.2 + 3.0j)
    # the quotients are taken at real kernel points only
    with pytest.raises(ValueError):
        kernel_quotient(op, 1.0 + 0.5j)


def test_kernel_quotient_report_defects():
    rep = kernel_quotient_report(build_matrix(AffineSymbol(1.5, (1.0,)), 64, 40), 2.0)
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
        assert kernel_quotient(op, w) ** 2 <= top + 1e-10


# --- adjoint bounds -------------------------------------------------------

def test_adjoint_general_constant_symbol():
    # no active prime: the Euler product is empty and every grid point
    # and refinement point of the quotient is zeta(2 Re c)
    assert adjoint_bound_general(AffineSymbol(1.5, ())) == zeta(3.0)


def test_adjoint_general_lattice_beats_full():
    # the same quotient with kernels on all integers, whose denominator
    # is zeta(2 sigma) and whose grid must stay above sigma = 1/2
    phi = AffineSymbol(1.5, (1.0,))

    def full(sigma):
        return zeta(2.0 * (1.5 - 2.0 ** (-sigma))) / zeta(2.0 * sigma)

    grid = np.geomspace(0.55, 20.0, 300)
    vals = [full(s) for s in grid]
    full_sup = opnorm._refined_grid_max(full, grid, vals, 0.525, 30.0)
    assert adjoint_bound_general(phi) > full_sup


def test_adjoint_general_strictly_above_point_bound():
    for phi in (AffineSymbol(1.5, (1.0,)), AffineSymbol(2.0, (0.5, 0.5))):
        assert adjoint_bound_general(phi) > zeta(2.0 * phi.c.real)


def _smooth_sum(primes, s):
    """sum of n^{-s} over the integers whose prime factors all lie in
    `primes` (two of them), term by term down to 1e-18."""
    p, q = (math.log(x) for x in primes)
    a = np.arange(int(41.5 / (s * p)) + 1)[:, None]
    b = np.arange(int(41.5 / (s * q)) + 1)[None, :]
    logs = a * p + b * q
    return float(np.sum(np.exp(-s * logs[s * logs <= 41.5])))


@pytest.mark.parametrize("phi, primes", [
    (AffineSymbol(2.0, (0.5, 0.5)), (2, 3)),
    (AffineSymbol(2.0, (0.5, 0.0, 0.5)), (2, 5)),
], ids=["2-3", "2-5"])
def test_adjoint_general_euler_product_matches_smooth_sum(phi, primes, monkeypatch):
    # the denominator on the grid is the Euler product over the active
    # primes, which is the sum of n^{-2 sigma} over their smooth numbers
    seen = []

    def spy(f, xs, vals, lo_edge, hi_edge):
        seen.append((list(xs), list(vals), lo_edge))
        return max(vals)

    monkeypatch.setattr(opnorm, "_refined_grid_max", spy)
    adjoint_bound_general(phi)
    (grid, vals, lo_edge), = seen
    assert grid == list(np.geomspace(0.1, 50.0, 96)) and lo_edge == 0.05
    for sigma, val in zip(grid, vals):
        min_re = phi.c.real - sum(cj * p ** (-sigma) for cj, p in zip(phi.coeffs, phi.primes))
        ref = zeta(2.0 * min_re) / _smooth_sum(primes, 2.0 * sigma)
        assert val == pytest.approx(ref, rel=1e-10)


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
        x = xi(AffineSymbol(a, (r,)))
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


def _ref_adjoint_general(phi, golden):
    grid = sorted(float(s) for s in np.geomspace(0.1, 50.0, 96))
    active = [p for p, cj in zip(phi.primes, phi.coeffs) if cj > 0]

    def q(sigma):
        re_phi = phi.c.real - sum(
            cj * float(p) ** (-sigma) for cj, p in zip(phi.coeffs, phi.primes)
        )
        euler = 1.0
        for p in active:
            euler /= 1.0 - float(p) ** (-2.0 * sigma)
        return zeta(2.0 * re_phi) / euler

    vals = [q(s) for s in grid]
    i = int(np.argmax(vals))
    lo = grid[i - 1] if i > 0 else 0.5 * grid[0]
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
    golden = _brent_max if refine else _no_refinement
    monkeypatch.setattr(opnorm, "_brent_max", golden)
    diagonal = [AffineSymbol(0.5 + r, (r,)) for r in (0.1, 0.7, 2.0)]
    # off the diagonal the supremum is not the closed-form 1/r
    interior = [AffineSymbol(c, (r,)) for c, r in ((1.5 + 0.3j, 0.4), (2.0, 0.2), (0.9, 0.1))]
    shipped = list(fixtures().values())
    affine = [fx.symbol for fx in shipped if fx.kind == "affine"] + diagonal + interior
    for phi in affine:
        active = tuple(p for p, cj in zip(phi.primes, phi.coeffs) if cj > 0)
        if len(active) == 1:
            assert adjoint_bound_2s(phi.c, phi.r) == _ref_adjoint_2s(phi.c, phi.r, golden)
        assert adjoint_bound_general(phi) == _ref_adjoint_general(phi, golden)
    alphas = [fx.symbol.alpha for fx in shipped if fx.kind == "family"]
    assert len(alphas) == 3
    for a in alphas:
        assert phi_alpha_adjoint_sup(a) == _ref_phi_alpha_adjoint_sup(a, golden)


# The refinement of the three adjoint suprema against a 60-step golden
# section, kept here literally as the refinement the library used before
# Brent's method: the same bracket, the same f, a fixed step count.

def _golden_section_60(f, lo, hi):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(60):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    if f1 >= f2:
        return x1, f1
    return x2, f2


def _adjoint_suprema():
    """Thunks for the adjoint supremum of every `gate-sweep` symbol, every
    shipped affine fixture and the three shipped family alphas."""
    shipped = list(fixtures().values())
    affine = list(_gate_sweep_symbols()) + [fx.symbol for fx in shipped if fx.kind == "affine"]
    alphas = [fx.symbol.alpha for fx in shipped if fx.kind == "family"]
    assert len(affine) == 205 and len(alphas) == 3
    return [lambda phi=phi: _adjoint_entry(phi).value for phi in affine] + [
        lambda a=a: phi_alpha_adjoint_sup(a) for a in alphas
    ]


def test_brent_refinement_matches_golden_section_and_keeps_grid_max(monkeypatch):
    counts = []

    def counted(f, lo, hi):
        calls = [0]

        def g(x):
            calls[0] += 1
            return f(x)

        out = _brent_max(g, lo, hi)
        counts.append(calls[0])
        return out

    for value in _adjoint_suprema():
        monkeypatch.setattr(opnorm, "_brent_max", counted)
        new = value()
        monkeypatch.setattr(opnorm, "_brent_max", _golden_section_60)
        ref = value()
        monkeypatch.setattr(opnorm, "_brent_max", _no_refinement)
        grid = value()
        assert abs(new - ref) <= 2e-15 * abs(ref)
        assert new >= grid
    # none of the 208 suprema is of a constant symbol: each is refined once
    assert len(counts) == 208
    assert sum(counts) / len(counts) <= 20.0


@pytest.mark.parametrize("f, lo, hi, x_star", [
    (lambda x: -((x - 0.3) ** 2), 0.1, 2.0, 0.3),
    (lambda x: math.cos(x - 1.7), 0.5, 3.0, 1.7),
    # the family's adjoint integrand at alpha = 3, whose supremum is interior
    (lambda x: 4.0 * x / (1.0 + x) ** 2 * zeta(1.0 + 6.0 * x), 0.05, 1.0, None),
    (lambda x: -x, 1.0, 2.0, 1.0),
    (lambda x: math.log(x), 1e-6, 3e-6, 3e-6),
    (lambda x: 1.0, 0.2, 0.9, None),
], ids=["interior", "interior-cos", "interior-zeta", "left-edge", "right-edge", "constant"])
def test_brent_max_synthetic(f, lo, hi, x_star):
    seen = []

    def g(x):
        seen.append(x)
        return f(x)

    x, fx = _brent_max(g, lo, hi)
    assert seen and all(lo <= t <= hi for t in seen)
    assert len(seen) <= _BRENT_ITERS + 1
    assert fx == max(f(t) for t in seen) and fx == f(x)
    if x_star is not None:
        assert abs(x - x_star) <= 3.0 * _BRENT_RTOL * abs(x_star)
    if x_star is None or lo < x_star < hi:
        # an interior maximum is found to rounding: no point of a fine
        # scan beats it
        scan = [f(float(t)) for t in np.linspace(lo, hi, 2001)]
        assert fx >= max(scan) - 1e-15 * abs(fx)


def test_brent_max_stops_at_the_cap():
    # a bracket 1e6 times wider than its left end needs more golden
    # steps than the cap allows; the search still stays inside it
    seen = []
    x, _ = _brent_max(lambda t: seen.append(t) or -t, 1e-6, 1.0)
    assert len(seen) == _BRENT_ITERS + 1
    assert all(1e-6 <= t <= 1.0 for t in seen) and x < 1e-5


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
        rep = suite_for_phi_alpha(fx.symbol.alpha, n_in)
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
        cols = int(re.search(r"Gram on (\d+) columns", prov).group(1))
        assert (rep.n_in, rep.k_out) == (cols, None)
    else:
        cols, k = map(int, re.search(r"x(\d+) section \(K_out=(\d+)\)", prov).groups())
        assert (rep.n_in, rep.k_out) == (cols, k)
    if n_in is not None:
        assert (rep.n_in, rep.k_out) == (n_in, k_out)


def test_overflowing_defect_tail_is_finite():
    # r log n passes about 355 from n = 53 on, so (r log n)^K / K!
    # overflows a float there; formed in log space with n^{-2 Re c},
    # every term is tiny and the certified tail stays finite
    import mpmath

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        op = build_matrix(AffineSymbol(100.0, (90.0,)), 64, 40)
    assert np.isfinite(op.entries).all()
    d = op.column_defects
    assert np.isfinite(d).all() and (d >= 0.0).all()
    mp = mpmath.mp.clone()
    mp.dps = 40
    for n in (53, 64):
        # one prime: every power mean is 1, so the tail is the plain sum
        # of n^{-200} ((90 log n)^K / K!)^2 over K > 40
        x = 90 * mp.log(n)
        term = mp.power(n, -200) * (x**40 / mp.factorial(40)) ** 2
        tail, K = mp.mpf(0), 40
        while K < 2 * x or term > tail * mp.mpf(10) ** -30:
            K += 1
            term *= (x / K) ** 2
            tail += term
        assert d[n - 1] == pytest.approx(float(tail), rel=1e-12, abs=0.0), n


def test_defects_past_the_tail_cap_are_the_whole_column_bound():
    # r log n is past 6e7 in every column n >= 2, so the remainder bound
    # never turns over within the cap; each defect is then the bound
    # n^{-2(Re c - r)} on the whole column, which is at most 1/n
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        op = build_matrix(AffineSymbol(1e8, (9e7,)), 64, 40)
    d = op.column_defects
    assert np.isfinite(d).all() and (d >= 0.0).all()
    assert (d <= 1.0 / np.arange(1, 65)).all()


def _mp_column_tail(re_c, moduli, n, K_out, mp):
    """The mass of column n beyond degree K_out in mpmath: the whole
    column n^{-2 Re c} prod_j I_0(2 c_j log n) minus its head, the
    multinomial weights ||alpha_K||^2 (log n)^{2K} for K <= K_out."""
    L = mp.log(n)
    whole = mp.mpf(1)
    for c in moduli:
        whole *= mp.besseli(0, 2 * mp.mpf(c) * L)
    head = [mp.mpf(1)] + [mp.mpf(0)] * K_out
    for c in moduli:
        row = [(mp.mpf(c) * L) ** (2 * k) / mp.factorial(k) ** 2 for k in range(K_out + 1)]
        head = [sum(head[t - k] * row[k] for k in range(t + 1)) for t in range(K_out + 1)]
    return mp.power(n, -2 * mp.mpf(re_c)) * (whole - sum(head))


@pytest.mark.parametrize("coeffs", [(700.0, 400.0, 300.0), (1400.0,)], ids=["d3", "d1"])
def test_defects_with_a_long_tail_stay_small(coeffs):
    # r log n runs from 970 to 5,822, so the tails are summed to degree
    # 4000; their weights take O(K) memory, where a table of power means
    # to that degree took hundreds of MB
    import tracemalloc

    import mpmath

    op = build_matrix(AffineSymbol(1500.0, coeffs), 64, 20)
    tracemalloc.start()
    try:
        d = op.column_defects
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak
    mp = mpmath.mp.clone()
    mp.dps = 40
    tails = {n: float(_mp_column_tail(1500.0, coeffs, n, 20, mp)) for n in range(2, 65)}
    # up to n = 13 the remainder past degree 4000 is negligible, so the
    # defect is the tail itself
    for n in (2, 8, 13):
        assert d[n - 1] == pytest.approx(tails[n], rel=1e-11, abs=0.0), n
    # and no defect falls below its tail by more than rounding
    for n, tail in tails.items():
        assert d[n - 1] >= tail * (1.0 - 1e-11), n


# --- the boundary-fixing family -------------------------------------------

def _exp_mobius_coeffs(beta, K):
    """Reference: Taylor coefficients E_m, m <= K, of F = exp(beta z / (1 + z)),
    row m holding E_m at every beta.  (1 + z)^2 F' = beta F gives the
    three-term recurrence (m + 1) E_{m+1} = (beta - 2m) E_m - (m - 1) E_{m-1}
    from E_0 = 1 and E_1 = beta (up to sign the Laguerre polynomials
    L_m^{(-1)}(beta)).  On the circle |F|^2 = e^beta, so every |E_m| is at
    most e^{beta/2}."""
    E = np.empty((K + 1, len(beta)))
    E[0] = 1.0
    if K >= 1:
        E[1] = beta
    for m in range(1, K):
        E[m + 1] = ((beta - 2.0 * m) * E[m] - (m - 1.0) * E[m - 1]) / (m + 1.0)
    return E


def _family_section(alpha, n_in, K_out):
    """Reference: the (K_out + 1) x n_in section of C_{phi_alpha} into the
    powers-of-two lattice, column n = n^{-(1/2+alpha)} E_m(2 alpha log n)
    for m <= K_out, and its column defects 1/n - ||A e_n||^2."""
    lnn = np.log(np.arange(1, n_in + 1, dtype=float))
    A = _exp_mobius_coeffs(2.0 * alpha * lnn, K_out) * np.exp(-(0.5 + alpha) * lnn)
    return A, 1.0 / np.arange(1, n_in + 1) - np.sum(A * A, axis=0)


def _family_gram(alpha, n_in):
    """Reference: the dense closed-form column Gram
    G[n, m] = (nm)^{-1/2} (min(n, m)/max(n, m))^alpha."""
    ns = np.arange(1, n_in + 1, dtype=float)
    n, m = ns[:, None], ns[None, :]
    return (n * m) ** -0.5 * (np.minimum(n, m) / np.maximum(n, m)) ** alpha


def test_family_operator_columns_exact():
    # the Gram's diagonal is the exact column norm 1/n (column 1 alone
    # has norm 1); the sections' column square sums and top squared
    # singular values rise with the output degree and stay below it
    n_in = 64
    G = _family_gram(1.0, n_in)
    np.testing.assert_allclose(np.diag(G), 1.0 / np.arange(1, n_in + 1), rtol=1e-15, atol=0.0)
    assert opnorm._family_gram_lower(1.0, 1) == 1.0
    top = opnorm._family_gram_lower(1.0, n_in)
    prev_sq, prev_top = np.zeros(n_in), 0.0
    for K_out in (0, 80, 400, 4000):
        A, defects = _family_section(1.0, n_in, K_out)
        col_sq = np.sum(A * A, axis=0)
        sigma = float(np.linalg.svd(A, compute_uv=False)[0]) ** 2
        assert (defects >= -1e-15).all(), K_out
        assert (col_sq >= prev_sq - 1e-15).all() and prev_top <= sigma <= top, K_out
        prev_sq, prev_top = col_sq, sigma


def _exp_mobius_reference(beta, K):
    """E_m / e^{beta/2} for m <= K from the explicit alternating sum
    E_m = sum_{k=1..m} binom(m-1, k-1) (-1)^{m-k} beta^k / k!: the terms
    beta^k / k! in mpmath, summed exactly on a fixed-point scale 2^-P."""
    import mpmath

    # the largest term, binom(K-1, k-1) beta^k / k!, against e^{beta/2}
    log_top = max(
        math.lgamma(K) - math.lgamma(k) - math.lgamma(K - k + 1) + k * math.log(beta) - math.lgamma(k + 1)
        for k in range(1, K + 1)
    )
    mp = mpmath.mp.clone()
    mp.prec = int((log_top - beta / 2) / math.log(2)) + 120
    P = K + 120  # the rounding of the m terms adds at most 2^{m-1-P}
    b = mp.mpf(beta)
    u = [mp.mpf(1)]
    for k in range(1, K + 1):
        u.append(u[-1] * b / k)
    U = [int(mp.nint(x * mp.mpf(2) ** P)) for x in u]
    scale = mp.exp(b / 2) * mp.mpf(2) ** P
    out = [float(U[0] / scale)]
    row = [1]  # binom(m-1, k-1), k = 1..m
    for m in range(1, K + 1):
        if m > 1:
            row = [1] + [row[i] + row[i + 1] for i in range(m - 2)] + [1]
        total = sum(c * U[k] if (m - k) % 2 == 0 else -c * U[k] for k, c in enumerate(row, start=1))
        out.append(float(mp.mpf(total) / scale))
    return np.array(out)


@pytest.mark.parametrize("beta", [5.0, 2.0 * 1.4 * math.log(512), 200.0, 1247.7],
                         ids=["5", "default-section", "200", "overflow-guard"])
def test_exp_mobius_coeffs_match_the_explicit_sum(beta):
    E = _exp_mobius_coeffs(np.array([beta]), 400)
    assert E.shape == (401, 1)
    err = np.abs(E[:, 0] / math.exp(beta / 2) - _exp_mobius_reference(beta, 400))
    assert err.max() <= 2e-15, int(err.argmax())


def test_exp_mobius_coeffs_seed_rows():
    beta = np.array([0.0, 0.5, 2.0, 17.46, 1247.7])
    seeds = [np.ones_like(beta), beta, beta * (beta - 2.0) / 2.0]
    for K in (0, 1, 2):
        E = _exp_mobius_coeffs(beta, K)
        assert E.shape == (K + 1, len(beta))
        for m in range(K + 1):
            assert E[m].tobytes() == seeds[m].tobytes(), (K, m)


@pytest.mark.parametrize("alpha", [1.4, 100.0], ids=["default", "overflow-guard"])
def test_family_section_columns_stay_below_their_norm(alpha):
    # alpha = 100 puts 2 alpha log 512 at 1247.7, just inside the guard
    A, defects = _family_section(alpha, 512, 400)
    assert A.shape == (401, 512)
    assert np.isfinite(A).all()
    assert (np.sum(A * A, axis=0) <= 1.0 / np.arange(1, 513)).all()
    assert (defects >= 0.0).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        low = opnorm._family_gram_lower(alpha, 512)
    assert 1.0 <= low <= max(2.0 / alpha, zeta(1.0 + alpha)) + 1e-15


@pytest.mark.parametrize("alpha", [0.5, 1.4])
def test_family_gram_dominates_a_deep_section(alpha):
    # G - A^T A is the Gram of the output rows past degree 4000: its
    # diagonal is the section's column defects, it is positive
    # semidefinite, and so no entry exceeds sqrt(def_n def_m)
    A, defects = _family_section(alpha, 64, 4000)
    D = _family_gram(alpha, 64) - A.T @ A
    np.testing.assert_allclose(np.diag(D), defects, rtol=0.0, atol=1e-13)
    assert np.linalg.eigvalsh(D)[0] >= -1e-13
    root = np.sqrt(np.maximum(defects, 0.0))
    assert (np.abs(D) <= np.outer(root, root) + 1e-13).all()


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.4, 2.0, 3.0, 100.0])
def test_family_gram_lower_is_the_top_eigenvalue(alpha):
    # the power iteration on the two-cumsum product against a dense
    # eigensolve of the same closed-form Gram
    for n_in in (1, 2, 8, 64, 512):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = opnorm._family_gram_lower(alpha, n_in)
        want = float(np.linalg.eigvalsh(_family_gram(alpha, n_in))[-1])
        assert got == pytest.approx(want, rel=4e-15, abs=0.0), n_in


# matrix_lower of `bounds --fixture` on each family fixture (512 columns)
_FAMILY_MATRIX_LOWER = {
    "phi-alpha-0.5": 2.9593746838343002,
    "phi-alpha-1": 1.8023146331069742,
    "phi-alpha-1.4": 1.3761358378804298,
}


def test_family_matrix_lower_stays_below_the_norm():
    family = {name: fx.symbol.alpha for name, fx in fixtures().items() if fx.kind == "family"}
    assert set(family) == set(_FAMILY_MATRIX_LOWER)
    for name, a in family.items():
        rep = suite_for_phi_alpha(a)
        low = rep.entries["matrix_lower"].value
        assert low == pytest.approx(_FAMILY_MATRIX_LOWER[name], rel=1e-15, abs=0.0), name
        assert low <= 2.0 / a and low <= rep.min_upper(), name


@pytest.mark.parametrize("name", sorted(_FAMILY_MATRIX_LOWER))
def test_family_opnorm_levels_interlace(capsys, name):
    # each level's Gram is a principal block of the next, so by Cauchy
    # interlacing the top eigenvalues cannot fall
    assert cli_main(["opnorm", "--fixture", name, "--levels", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["n_in"] for row in payload["levels"]] == [4, 8, 16, 32, 64, 128, 256, 512]
    assert all(set(row) == {"n_in", "sigma_max_sq"} for row in payload["levels"])
    values = [row["sigma_max_sq"] for row in payload["levels"]]
    assert values == sorted(values) and payload["monotone_ok"] is True


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
    rep = suite_for_phi_alpha(1.0, n_in=128)
    assert rep.entries["brevig_lower"].value == pytest.approx(2.0, abs=1e-9)
    assert rep.entries["brevig_upper"].value == pytest.approx(2.0, abs=1e-9)
    lo, hi = rep.bracket()
    assert lo == pytest.approx(2.0, abs=1e-9)
    assert hi == pytest.approx(2.0, abs=1e-9)
    assert rep.entries["kernel_S_lower"].value >= 2.0 - 0.05
    assert rep.entries["adjoint_lower"].value >= max(2.0, zeta(3.0)) - 1e-9
    assert rep.gate_ok()


def test_family_suite_above_crossing():
    rep = suite_for_phi_alpha(3.0, n_in=128)
    assert rep.entries["brevig_lower"].value == pytest.approx(zeta(7.0), rel=1e-12)
    assert rep.entries["brevig_upper"].value == pytest.approx(zeta(4.0), rel=1e-12)
    assert rep.entries["brevig_upper"].value > rep.entries["brevig_lower"].value
    assert rep.gate_ok()


def test_family_kernel_reaches_adjoint():
    # the sampled closed-form quotient reaches the adjoint supremum up to
    # the O(w_min) gap left by the grid end
    for a in (0.5, 1.0, 3.0):
        rep = suite_for_phi_alpha(a, n_in=64)
        k = rep.entries["kernel_S_lower"].value
        s = rep.entries["adjoint_lower"].value
        assert k >= s - 1e-3


def test_family_matrix_stays_below_certified_value():
    # the finite forward section is itself a valid lower bound and must
    # not cross the collapsed bracket
    rep = suite_for_phi_alpha(1.0, n_in=128)
    assert rep.entries["matrix_lower"].value <= 2.0 + 1e-9


def test_alpha0_sits_between_regimes():
    a0 = alpha0()
    below = suite_for_phi_alpha(a0 - 0.02, n_in=32)
    above = suite_for_phi_alpha(a0 + 0.02, n_in=32)
    lo_b, hi_b = below.bracket()
    assert hi_b - lo_b <= 1e-9  # pinched
    lo_a, hi_a = above.bracket()
    assert hi_a - lo_a > 1e-6  # genuinely open
