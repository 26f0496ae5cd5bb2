"""Unit-disc composition layer: truncated composition, the z/(2-z)
operator matrix, and the subordination-style norm bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest

from h2comp import cli, disc
from h2comp.disc import (
    PowerSeries,
    compose_truncated,
    composition_matrix,
    littlewood_check,
    mobius_comp_norm_sq,
    psi_matrix,
    psi_z2z,
    shapiro_bound_check,
)


def _random_series(rng, degree, scale=1.0):
    re = rng.standard_normal(degree + 1)
    im = rng.standard_normal(degree + 1)
    return PowerSeries(scale * (re + 1j * im))


def _random_self_map(rng, degree):
    """Origin-fixing polynomial with coefficient mass below 0.9."""
    c = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
    c *= 0.9 / np.sum(np.abs(c))
    return PowerSeries(np.concatenate([[0.0], c]))


# ---------------------------------------------------------------- series


def test_power_series_basics():
    f = PowerSeries([3.0, 4.0])
    assert f.degree == 1
    assert f.norm_sq() == pytest.approx(25.0)
    with pytest.raises(AttributeError):
        f.coeffs = np.zeros(2)


def test_power_series_rejects_empty():
    with pytest.raises(ValueError):
        PowerSeries([])


def test_power_series_evaluation():
    f = PowerSeries([1.0, 2.0, 3.0])
    assert f(0.5) == pytest.approx(1.0 + 1.0 + 0.75)
    zs = np.array([0.0, 1.0, -1.0], dtype=complex)
    vals = f(zs)
    assert vals.shape == (3,)
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == pytest.approx(6.0)
    assert vals[2] == pytest.approx(2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_power_series_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        PowerSeries([0.0, bad])


# ---------------------------------------------------------- boundary grid


def _horner_on_grid(coeffs, n):
    """phi at the n-th roots of unity by Horner, in extended precision
    where the platform has it: the reference for the FFT grid."""
    ang = np.arange(n, dtype=np.longdouble) * (8 * np.arctan(np.longdouble(1)) / n)
    z = (np.cos(ang) + 1j * np.sin(ang)).astype(np.clongdouble)
    out = np.zeros(n, dtype=np.clongdouble)
    for a in coeffs[::-1]:
        out = out * z + a
    return out


@pytest.mark.parametrize("degree", [0, 1, 7, 300, 4095, 4096, 5000])
@pytest.mark.parametrize("n", [16, 4096])
def test_boundary_grid_matches_horner(degree, n):
    # degree >= n exercises the fold of the coefficients modulo n; the
    # scale is sum |a_k|, which bounds |phi| on the circle
    rng = np.random.default_rng(degree + n)
    phi = _random_series(rng, degree)
    got = disc._boundary_values(phi, n)
    want = _horner_on_grid(phi.coeffs, n)
    err = float(np.max(np.abs(got - want)))
    assert err <= 1e-13 * float(np.sum(np.abs(phi.coeffs)))


# ----------------------------------------------------------- composition


def test_compose_z_with_halfplane_avatar():
    # f(z) = z against z/(2-z) expands geometrically: coefficient 2^{-j}.
    f = PowerSeries([0.0, 1.0])
    comp = compose_truncated(f, psi_z2z(30), 30)
    j = np.arange(1, 31, dtype=float)
    assert abs(comp.coeffs[0]) < 1e-15
    assert np.allclose(comp.coeffs[1:], 2.0 ** (-j), rtol=0, atol=1e-15)


def test_compose_identity_symbol_truncates():
    f = PowerSeries([1.0, -2.0, 3.0, -4.0, 5.0, -6.0])
    ident = PowerSeries([0.0, 1.0])
    comp = compose_truncated(f, ident, 3)
    assert comp.degree == 3
    assert np.allclose(comp.coeffs, f.coeffs[:4])


def test_compose_constant_function():
    one = PowerSeries([1.0])
    comp = compose_truncated(one, psi_z2z(16), 16)
    assert comp.coeffs[0] == pytest.approx(1.0)
    assert np.max(np.abs(comp.coeffs[1:])) < 1e-15


def test_compose_linear_in_f():
    rng = np.random.default_rng(41)
    phi = _random_self_map(rng, 5)
    f = _random_series(rng, 12)
    g = _random_series(rng, 9)
    a = complex(rng.standard_normal(), rng.standard_normal())
    b = complex(rng.standard_normal(), rng.standard_normal())
    n = 24
    lin = PowerSeries(
        a * np.concatenate([f.coeffs, np.zeros(3)]) + b * np.concatenate([g.coeffs, np.zeros(6)])
    )
    lhs = compose_truncated(lin, phi, n).coeffs
    rhs = a * compose_truncated(f, phi, n).coeffs + b * compose_truncated(g, phi, n).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_compose_rejects_expanding_map():
    f = PowerSeries([0.0, 1.0])
    with pytest.raises(ValueError):
        compose_truncated(f, PowerSeries([0.0, 1.1]), 8)


def test_compose_rejects_center_outside():
    f = PowerSeries([0.0, 1.0])
    with pytest.raises(ValueError):
        compose_truncated(f, PowerSeries([1.0]), 8)


@pytest.mark.parametrize(
    "phi", [[0.0, 1.1], [1.0], [0.6 + 0.8j, 0.0], [-1.2]], ids=repr
)
def test_composition_matrix_rejects_non_self_maps(phi):
    with pytest.raises(ValueError):
        composition_matrix(PowerSeries(phi), 8, 4)


def test_composition_matrix_rejects_negative_degrees():
    psi = psi_z2z(8)
    with pytest.raises(ValueError):
        composition_matrix(psi, -1, 4)
    with pytest.raises(ValueError):
        composition_matrix(psi, 8, -1)
    with pytest.raises(ValueError):
        compose_truncated(PowerSeries([1.0]), psi, -1)


def test_disc_transfer_checks_its_self_map_once(monkeypatch):
    # the suite composes 50 seeded series with z/(2-z) through one matrix
    psi_checks = []
    check = disc._check_self_map

    def counting(phi):
        if phi.degree == 128:
            psi_checks.append(phi)
        check(phi)

    monkeypatch.setattr(disc, "_check_self_map", counting)
    assert cli._suite_disc_transfer() == {"passed": True}
    assert len(psi_checks) == 1
    np.testing.assert_array_equal(psi_checks[0].coeffs, psi_z2z(128).coeffs)


# --------------------------------------------------------- psi operator


def test_psi_z2z_coefficients():
    psi = psi_z2z(8)
    assert psi.coeffs[0] == 0.0
    for j in range(1, 9):
        assert psi.coeffs[j] == pytest.approx(2.0 ** (-j), rel=0, abs=1e-16)
    with pytest.raises(ValueError):
        psi_z2z(0)


def test_psi_matrix_shape_and_constant_row():
    M = psi_matrix(6)
    assert M.shape == (7, 7)
    assert M[0, 0] == 1.0
    assert np.max(np.abs(M[0, 1:])) == 0.0
    assert np.max(np.abs(M[1:, 0])) == 0.0
    # strictly lower-left of the (1,1) block is zero: output degree < input
    assert M[1, 2] == 0.0


def test_psi_matrix_first_column_square_sum():
    n = 30
    M = psi_matrix(n)
    got = float(np.sum(M[:, 1] ** 2))
    exact = (1.0 - 4.0 ** (-n)) / 3.0
    assert got == pytest.approx(exact, rel=1e-13)
    assert got == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_psi_matrix_entry_closed_form():
    M = psi_matrix(12)
    assert M[5, 3] == pytest.approx(math.comb(4, 2) / 2.0**5, rel=1e-13)
    assert M[7, 1] == pytest.approx(2.0 ** (-7), rel=1e-13)
    assert M[4, 4] == pytest.approx(2.0 ** (-4), rel=1e-13)


def test_psi_matrix_large_entries_closed_form():
    # every entry of a section past degree 12 against the exact binomial
    n = 300
    M = psi_matrix(n)
    for j in range(1, n + 1):
        for k in range(1, j + 1):
            exact = math.comb(j - 1, k - 1) / 2**j
            assert abs(M[j, k] - exact) <= 2e-12 * exact, (j, k)
    assert not np.any(np.triu(M[1:, 1:], 1))


def test_psi_matrix_column_sums_reach_one():
    # total mass per input monomial: sum_{j>=k} 2^{-j} C(j-1,k-1) = 1,
    # checked through a truncation whose tail is provably negligible.
    n = 400
    sums = psi_matrix(n).sum(axis=0)
    for k in range(1, 41):
        assert sums[k] == pytest.approx(1.0, abs=1e-10)


def test_psi_matrix_matches_composition():
    n = 64
    M = psi_matrix(n)
    psi = psi_z2z(n)
    C = composition_matrix(psi, n, n)
    assert C.shape == (n + 1, n + 1)
    for k in range(9):
        mono = np.zeros(n + 1)
        mono[k] = 1.0
        via_matrix = M @ mono
        via_compose = compose_truncated(PowerSeries(mono), psi, n).coeffs
        assert np.max(np.abs(via_matrix - via_compose)) < 1e-12
        assert np.max(np.abs(via_matrix - C[:, k])) < 1e-12


def test_psi_matrix_leaves_constants_alone():
    M = psi_matrix(10)
    e0 = np.zeros(11)
    e0[0] = 1.0
    assert np.allclose(M @ e0, e0)


def test_halved_norm_bound_random_series():
    rng = np.random.default_rng(1203)
    n = 256
    M = psi_matrix(n)
    for _ in range(200):
        f = _random_series(rng, n, scale=rng.uniform(0.1, 3.0))
        lhs = float(np.sum(np.abs(M @ f.coeffs) ** 2))
        cap = 0.5 * (abs(f.coeffs[0]) ** 2 + f.norm_sq())
        assert lhs <= cap + 1e-10


def test_halved_norm_bound_near_extremal():
    # geometric series with ratio 0.99 nearly saturates the bound
    n = 2000
    r = 0.99
    coeffs = r ** np.arange(n + 1, dtype=float)
    f = PowerSeries(coeffs)
    lhs = float(np.sum(np.abs(psi_matrix(n) @ f.coeffs) ** 2))
    cap = 0.5 * (abs(f.coeffs[0]) ** 2 + f.norm_sq())
    ratio = lhs / cap
    assert 0.95 < ratio <= 1.0 + 1e-12


# ------------------------------------------------------------- mobius


def test_mobius_norm_values():
    assert mobius_comp_norm_sq(0.0) == pytest.approx(1.0)
    assert mobius_comp_norm_sq(1.0 / 3.0) == pytest.approx(2.0)
    assert mobius_comp_norm_sq(0.5) == pytest.approx(3.0)
    assert mobius_comp_norm_sq(0.3j) == pytest.approx(1.3 / 0.7)


def test_mobius_norm_rejects_boundary():
    with pytest.raises(ValueError):
        mobius_comp_norm_sq(1.0)
    with pytest.raises(ValueError):
        mobius_comp_norm_sq(0.8 + 0.8j)


# ------------------------------------------------------- subordination


def test_contraction_square_symbol_is_isometric():
    rng = np.random.default_rng(77)
    f = _random_series(rng, 10)
    chk = littlewood_check(PowerSeries([0.0, 0.0, 1.0]), f, N=20)
    assert chk.ok
    assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)


def test_contraction_half_z():
    chk = littlewood_check(PowerSeries([0.0, 0.5]), PowerSeries([0.0, 1.0]))
    assert chk.lhs == pytest.approx(0.25)
    assert chk.rhs == pytest.approx(1.0)
    assert chk.ok


def test_contraction_random_self_maps():
    rng = np.random.default_rng(5150)
    for _ in range(20):
        phi = _random_self_map(rng, int(rng.integers(1, 6)))
        f = _random_series(rng, int(rng.integers(1, 16)))
        n = 2 * (f.degree * phi.degree + 1)
        assert littlewood_check(phi, f, N=n).ok


def test_contraction_requires_origin_fixed():
    with pytest.raises(ValueError):
        littlewood_check(PowerSeries([0.3, 0.5]), PowerSeries([0.0, 1.0]))


def test_inner_monomial_symbols_preserve_norm():
    rng = np.random.default_rng(8)
    f = _random_series(rng, 7)
    for m in (2, 3, 5):
        phi = PowerSeries(np.eye(m + 1)[m])
        chk = littlewood_check(phi, f, N=m * f.degree)
        assert chk.lhs == pytest.approx(f.norm_sq(), rel=1e-12)


# ---------------------------------------------------- level-set upgrade


def test_level_set_bound_delta_zero_degenerates():
    rng = np.random.default_rng(9)
    f = _random_series(rng, 20)
    chk = shapiro_bound_check(psi_z2z(40), 0.0, f)
    assert chk.c_delta == 0.0
    assert chk.rhs == pytest.approx(f.norm_sq())
    assert chk.ok


def test_level_set_constant_cap():
    f = PowerSeries([1.0, 0.5, 0.25])
    for delta in (0.2, 0.5, 0.8, 0.999):
        chk = shapiro_bound_check(psi_z2z(40), delta, f)
        cap = 0.5 * (1.0 - delta) / (1.0 + delta)
        assert 0.0 <= chk.c_delta <= cap + 1e-12
        assert chk.c_delta <= 0.5 + 1e-9
        assert 0.0 <= chk.level_measure <= 1.0


def test_level_set_measure_halves_at_median():
    # |psi(e^{it})| = 1/sqrt(5 - 4 cos t) drops below 1/sqrt(5) exactly
    # when cos t < 0, i.e. on half of the circle.
    chk = shapiro_bound_check(psi_z2z(64), 1.0 / math.sqrt(5.0), PowerSeries([1.0, 1.0]))
    assert chk.level_measure == pytest.approx(0.5, abs=1e-3)


def test_level_set_bound_holds_random():
    rng = np.random.default_rng(31)
    psi = psi_z2z(48)
    for _ in range(5):
        f = _random_series(rng, 24)
        assert shapiro_bound_check(psi, 0.5, f).ok


def test_level_set_rejects_bad_delta():
    with pytest.raises(ValueError):
        shapiro_bound_check(psi_z2z(8), 1.5, PowerSeries([1.0]))


def test_level_set_extremal_geometric_ratio():
    n = 2000
    coeffs = 0.99 ** np.arange(n + 1, dtype=float)
    f = PowerSeries(coeffs)
    chk = shapiro_bound_check(psi_z2z(64), 0.9, f)
    cap = 0.5 * (abs(f.coeffs[0]) ** 2 + f.norm_sq())
    assert 0.95 < chk.lhs / cap <= 1.0 + 1e-12
    assert chk.ok
