"""Affine symbols: class membership, majorization, and the exact norm formula."""

from __future__ import annotations

import dataclasses
import math
import types
from fractions import Fraction

import numpy as np
import pytest

from h2comp.affine import (
    AffineSymbol,
    CoeffVector,
    PolynomialSymbol,
    annulus_radii,
    bvn_decompose,
    comp_bruteforce_norm_sq,
    comp_norm_sq,
    effective_constant,
    h2k_means,
    hq_dominance,
    in_gordon_hedenmalm,
    majorizes,
    mapping_disc,
    xi,
)
from h2comp.dseries import DirichletPoly, evaluate
from h2comp.fixtures import get_fixture, single_prime_symbol


def _random_symbol(rng, d=None):
    d = d if d is not None else int(rng.integers(1, 4))
    raw = rng.uniform(0.05, 1.0, size=d)
    r = float(rng.uniform(0.2, 1.2))
    coeffs = tuple(raw / raw.sum() * r)
    re_c = 0.5 + r + float(rng.uniform(0.0, 1.0))
    return AffineSymbol(complex(re_c, rng.normal()), coeffs)


def _random_poly(rng, max_n=30, terms=6):
    ns = rng.choice(np.arange(1, max_n + 1), size=terms, replace=False)
    f = DirichletPoly.zero()
    for n in ns:
        f = f + DirichletPoly.monomial(int(n), complex(rng.normal(), rng.normal()))
    return f


# --- class membership and geometry ---------------------------------------

def test_membership():
    assert in_gordon_hedenmalm(AffineSymbol(1.5, (1.0,)))
    assert not in_gordon_hedenmalm(types.SimpleNamespace(c=1.0 + 0j, r=1.0))
    assert in_gordon_hedenmalm(AffineSymbol(2.0 + 5.0j, (0.5, 0.5)))


def test_validation_rejects_bad_symbols():
    with pytest.raises(ValueError):
        AffineSymbol(1.0, (1.0,))  # Re c - 1/2 < r
    with pytest.raises(ValueError):
        AffineSymbol(0.4, ())  # Re c <= 1/2


def test_replace_revalidates_affine_symbol():
    # dataclasses.replace goes through the constructor, so it cannot
    # leave the bounded class either
    with pytest.raises(ValueError):
        dataclasses.replace(AffineSymbol(1.5, (1.0,)), c=1.0)
    assert dataclasses.replace(AffineSymbol(1.5, (1.0,)), c=2.0) == AffineSymbol(2.0, (1.0,))


def test_replace_revalidates_polynomial_symbol():
    with pytest.raises(ValueError):
        dataclasses.replace(get_fixture("example-7.1").symbol, radius=0.0)


def test_polynomial_symbol_identity_equality():
    poly = get_fixture("example-7.1").symbol
    twin = get_fixture("example-7.1").symbol
    assert poly == poly
    assert poly != twin
    assert hash(poly) == object.__hash__(poly)


def test_affine_symbol_value_equality():
    a = AffineSymbol(1.5, (0.5, 0.5), twist=(1j, 1.0))
    b = AffineSymbol(1.5 + 0j, [0.5, 0.5], twist=[1j, 1.0])
    assert a == b and hash(a) == hash(b) == hash((a.c, a.coeffs, a.twist))
    assert a != AffineSymbol(1.5, (0.5, 0.5))


def test_mapping_disc():
    assert mapping_disc(AffineSymbol(1.5, (1.0,))) == (1.5 + 0.0j, 1.0)
    c, r = mapping_disc(AffineSymbol(2.0, ()))
    assert (c, r) == (2.0 + 0.0j, 0.0)
    _, r3 = mapping_disc(AffineSymbol(2.0, (0.3, 0.2, 0.1)))
    assert r3 == pytest.approx(0.6)


def test_xi_values():
    assert xi(AffineSymbol(1.5, (1.0,))) == pytest.approx(1.0)
    assert xi(AffineSymbol(2.5, (2.0,))) == pytest.approx(2.0)
    assert xi(AffineSymbol(2.0, (1.0,))) == pytest.approx(1.5 + math.sqrt(1.25))


def test_xi_of_constant_symbol():
    # r = 0: xi degenerates to 2(Re c - 1/2)
    assert xi(AffineSymbol(2.0, ())) == pytest.approx(3.0)


def test_effective_constant():
    assert effective_constant((0.7,)) == pytest.approx(1.0)
    assert effective_constant((0.25, 0.25, 0.25, 0.25)) == pytest.approx(0.25)
    assert effective_constant((0.75, 0.25)) == pytest.approx(0.625)
    with pytest.raises(ValueError):
        effective_constant(())


def test_annulus_radii():
    r0, r = annulus_radii(AffineSymbol(1.5, (0.75, 0.25)))
    assert (r0, r) == (pytest.approx(0.5), pytest.approx(1.0))
    r0, _ = annulus_radii(AffineSymbol(1.5, (0.5, 0.5)))
    assert r0 == 0.0
    r0, _ = annulus_radii(AffineSymbol(1.5, (2 / 3, 1 / 6, 1 / 6)))
    assert r0 == pytest.approx(1.0 / 3.0)


def test_coeff_vector_rejects_negative():
    with pytest.raises(ValueError):
        CoeffVector.coerce((-0.1, 0.5))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_coeff_vector_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="not finite"):
        CoeffVector.coerce((bad, 0.5))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("where", ["re c", "im c", "coefficient", "twist"])
def test_symbol_rejects_non_finite_values(bad, where):
    c = {"re c": complex(bad, 0.0), "im c": complex(1.5, bad)}.get(where, 1.5)
    coeffs = (0.5, complex(0.0, bad)) if where == "coefficient" else (0.5, 0.25)
    twist = (1.0, complex(bad, 0.0)) if where == "twist" else None
    with pytest.raises(ValueError, match="non-finite"):
        AffineSymbol(c, coeffs, twist=twist)


def test_polynomial_symbol_radius():
    phi = PolynomialSymbol(1.5, {2: 0.25, 4: 0.5j, 8: 0.25}, radius=1.0)
    assert phi.support == (2, 4, 8)
    assert phi.r == 1.0
    assert phi.d == 1  # single prime underneath


# --- majorization order ---------------------------------------------------

def test_majorizes_basic():
    assert majorizes((0.5, 0.5), (1.0, 0.0))
    assert not majorizes((0.6, 0.4), (0.5, 0.5))
    assert majorizes((0.5, 0.5), (0.5, 0.5))


def test_majorizes_incomparable_pair():
    b = (2 / 3, 1 / 6, 1 / 6)
    c = (0.5, 0.5, 0.0)
    assert not majorizes(b, c)
    assert not majorizes(c, b)


def test_majorizes_sum_mismatch():
    with pytest.raises(ValueError):
        majorizes((0.5, 0.5), (0.9, 0.0))


def test_bvn_symmetric_split():
    parts = bvn_decompose((0.5, 0.5), (1.0, 0.0))
    weights = sorted(w for w, _ in parts)
    assert weights == pytest.approx([0.5, 0.5])


def test_bvn_identity():
    parts = bvn_decompose((0.3, 0.7), (0.3, 0.7))
    assert len(parts) == 1
    w, perm = parts[0]
    assert w == pytest.approx(1.0)
    assert perm == (0, 1)


def test_bvn_asymmetric_split():
    parts = bvn_decompose((0.6, 0.4), (1.0, 0.0))
    weights = sorted(w for w, _ in parts)
    assert weights == pytest.approx([0.4, 0.6])


def test_bvn_reconstruction_random():
    rng = np.random.default_rng(101)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        c = np.sort(rng.uniform(0, 1, size=d))[::-1]
        # averaging towards the mean always produces a majorized vector
        t = rng.uniform(0.0, 1.0)
        b = (1 - t) * c + t * np.full(d, c.mean())
        perm = rng.permutation(d)
        b = b[perm]
        assert majorizes(b, c)
        parts = bvn_decompose(b, c)
        total = sum(w for w, _ in parts)
        assert total == pytest.approx(1.0, abs=1e-12)
        recon = np.zeros(d)
        for w, q in parts:
            recon += w * np.asarray([c[qi] for qi in q])
        assert np.max(np.abs(recon - b)) < 1e-10
        # at most d-1 pinches, each doubling the expansion at worst
        assert len(parts) <= 2 ** (d - 1)


def test_bvn_requires_majorization():
    with pytest.raises(ValueError):
        bvn_decompose((0.9, 0.1), (0.6, 0.4))


# --- power means ----------------------------------------------------------

def test_h2k_means_single_prime_all_ones():
    m = h2k_means((0.8,), 10)
    np.testing.assert_allclose(m, 1.0, rtol=1e-13)


def test_h2k_means_two_equal_is_central_binomial():
    m = h2k_means((0.5, 0.5), 8)
    for k in range(9):
        expected = math.comb(2 * k, k) / 4.0 ** k
        assert m[k] == pytest.approx(expected, rel=1e-12)


def test_h2k_means_long_tables_match_exact_sums():
    # orders past 12, beyond the arguments below 13 where log-gamma
    # routines use their small-argument method; the references are exact
    # rationals rounded once
    m = h2k_means((0.5, 0.5), 400)
    for k in range(401):
        assert m[k] == pytest.approx(math.comb(2 * k, k) / 4**k, rel=2e-12), k
    m = h2k_means((1.0, 1.0, 1.0), 80)
    for k in range(81):
        total = sum(
            (math.comb(k, a) * math.comb(k - a, b)) ** 2
            for a in range(k + 1)
            for b in range(k - a + 1)
        )
        assert m[k] == pytest.approx(float(Fraction(total, 9**k)), rel=2e-12), k


def test_h2k_means_monotone_and_first_value():
    rng = np.random.default_rng(53)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        raw = rng.uniform(0.05, 1.0, size=d)
        coeffs = tuple(raw / raw.sum())
        m = h2k_means(coeffs, 12)
        assert m[0] == pytest.approx(1.0)
        assert m[1] == pytest.approx(effective_constant(coeffs), rel=1e-12)
        assert np.all(np.diff(m) <= 1e-13)
        assert np.all(m > 0)


def test_h2k_means_majorization_ordering():
    # pointwise order of the mean sequences follows the majorization order
    b, c = (0.5, 0.5), (0.8, 0.2)
    assert majorizes(b, c)
    mb = h2k_means(b, 10)
    mc = h2k_means(c, 10)
    assert np.all(mb <= mc + 1e-13)


# --- exact dominance checks ----------------------------------------------

def test_hq_dominance_frozen_integer_case():
    rows = hq_dominance((4, 1, 1), (3, 3, 0), K=8)
    by_k = {k: (lhs, rhs, ok) for k, lhs, rhs, ok in rows}
    assert by_k[1][0] == 18
    assert by_k[1][1] == 18
    assert by_k[2][0] == 390
    assert by_k[2][1] == 486
    assert all(ok for _, _, ok in by_k.values())


def test_hq_dominance_exact_arithmetic():
    rows = hq_dominance(
        (Fraction(4), Fraction(1), Fraction(1)),
        (Fraction(3), Fraction(3), Fraction(0)),
        K=12,
    )
    for k, lhs, rhs, ok in rows:
        assert isinstance(lhs, (int, Fraction))
        assert isinstance(rhs, (int, Fraction))
        assert lhs <= rhs
        assert ok
        if k == 1:
            assert lhs == rhs  # touching point


def test_hq_dominance_strict_beyond_first():
    rows = hq_dominance((4, 1, 1), (3, 3, 0), K=20)
    for k, lhs, rhs, ok in rows:
        if k >= 2:
            assert lhs < rhs


def test_hq_dominance_sum_mismatch():
    with pytest.raises(ValueError):
        hq_dominance((1, 1), (3, 0))


def test_hq_dominance_majorizing_pairs():
    rng = np.random.default_rng(59)
    for _ in range(8):
        d = int(rng.integers(2, 5))
        c = np.sort(rng.uniform(0.1, 1.0, size=d))[::-1]
        t = rng.uniform(0.0, 1.0)
        b = (1 - t) * c + t * np.full(d, c.mean())
        rows = hq_dominance(tuple(b), tuple(c), K=8)
        assert all(ok for _, _, _, ok in rows)


def _enumerated_power_sum(vals, k):
    """sum over |j| = k of multinomial(k; j)^2 prod v_i^(2 j_i), walking
    every composition of k into the nonzero entries."""
    active = [v for v in vals if v != 0]
    if not active:
        return 0 if k else 1
    total = 0

    def walk(i, rem, mult, prod):
        nonlocal total
        if i == len(active) - 1:
            total += mult * mult * prod * active[i] ** (2 * rem)
            return
        for j in range(rem + 1):
            walk(i + 1, rem - j, mult * math.comb(rem, j), prod * active[i] ** (2 * j))

    walk(0, k, 1, 1)
    return total


# largest K per dimension at which the enumeration stays under ~50k leaves
_ENUM_K = {1: 60, 2: 60, 3: 60, 4: 30, 5: 16}


def _same_sum_pair(rng, d, exact_type):
    """Two vectors with equal sums, some entries zero."""
    if exact_type is int:
        b = [int(x) for x in rng.integers(0, 7, d)]
    else:
        b = [Fraction(int(x), int(q)) for x, q in zip(rng.integers(0, 7, d), rng.integers(1, 6, d))]
    b[-1] += 1
    c = b[::-1]
    if d > 1:
        move = c[0] / 2 if exact_type is Fraction else c[0] // 2
        c[0] -= move
        c[1] += move
    return b, c


@pytest.mark.parametrize("exact_type", [int, Fraction])
@pytest.mark.parametrize("d", sorted(_ENUM_K))
def test_hq_dominance_fold_matches_enumeration(d, exact_type):
    rng = np.random.default_rng(700 + d)
    K = _ENUM_K[d]
    b, c = _same_sum_pair(rng, d, exact_type)
    rows = hq_dominance(b, c, K=K)
    assert [k for k, *_ in rows] == list(range(1, K + 1))
    for k, lhs, rhs, ok in rows:
        assert isinstance(lhs, exact_type) and isinstance(rhs, exact_type)
        assert lhs == _enumerated_power_sum(b, k)
        assert rhs == _enumerated_power_sum(c, k)
        assert ok == (lhs <= rhs)


def _exact_power_sums_of_floats(vals, K):
    """The power sums of float entries in exact arithmetic: write the
    entries n_i / D over a common power-of-two denominator, then
    S_k = S_k(n) / D^(2k), and the int division rounds once."""
    ratios = [v.as_integer_ratio() for v in vals]
    D = max(den for _, den in ratios)
    n = [num * (D // den) for num, den in ratios]
    rows = hq_dominance(n, n, K=K)
    return [lhs / D ** (2 * k) for k, lhs, _, _ in rows]


def test_hq_dominance_float_fold_is_close_to_exact():
    rng = np.random.default_rng(71)
    for d in (2, 3, 5):
        b = [float(x) for x in rng.dirichlet(np.ones(d))]
        c = [float(x) for x in rng.dirichlet(np.ones(d))]
        c[0] += sum(b) - sum(c)
        rows = hq_dominance(b, c, K=60)
        for vec, side in ((b, 1), (c, 2)):
            exact = _exact_power_sums_of_floats(vec, 60)
            for row, ref in zip(rows, exact):
                assert isinstance(row[side], float)
                assert row[side] == pytest.approx(ref, rel=1e-14)


def test_hq_dominance_runs_past_the_old_enumeration_size():
    # 6.6e9 compositions at d = 8, K = 60; the fold takes O(d K^2) steps
    b = (1,) * 8
    c = (2, 2, 1, 1, 1, 1, 0, 0)
    rows = hq_dominance(b, c, K=60)
    assert len(rows) == 60
    assert rows[0][1:3] == (8, 12)
    assert rows[1][1:3] == (8 + 4 * 28, 36 + 4 * 54)
    assert all(ok for *_, ok in rows)  # c majorizes b


# --- composition norms ----------------------------------------------------

def test_comp_norm_constant_symbol():
    rng = np.random.default_rng(61)
    f = _random_poly(rng)
    phi = AffineSymbol(2.0, ())
    expected = abs(evaluate(f, 2.0)) ** 2
    assert comp_norm_sq(phi, f) == pytest.approx(expected, rel=1e-12)
    assert comp_bruteforce_norm_sq(phi, f) == pytest.approx(expected, rel=1e-12)


def test_comp_norm_constant_function():
    phi = AffineSymbol(1.5, (0.4, 0.6))
    assert comp_norm_sq(phi, DirichletPoly.one()) == pytest.approx(1.0)


def test_comp_norm_single_prime_bessel_series():
    # f = 2^{-s} against c = 2, coeffs = (1): every power mean is 1, so the
    # norm is 2^{-4} * sum_k (ln 2)^{2k} / (k!)^2
    phi = AffineSymbol(2.0, (1.0,))
    f = DirichletPoly.monomial(2, 1.0)
    series = sum(math.log(2.0) ** (2 * k) / math.factorial(k) ** 2 for k in range(40))
    assert comp_norm_sq(phi, f) == pytest.approx(series / 16.0, rel=1e-12)


def test_comp_norm_matches_bruteforce():
    # K_max=64 still certifies the tail below 1e-10 for supports this small
    # and keeps the brute-force convolution tractable
    rng = np.random.default_rng(67)
    for _ in range(30):
        phi = _random_symbol(rng)
        f = _random_poly(rng, max_n=20, terms=5)
        a = comp_norm_sq(phi, f, K_max=64)
        b = comp_bruteforce_norm_sq(phi, f, K_max=64)
        assert abs(a - b) < 1e-8 * max(1.0, abs(a))


def test_comp_norm_matches_bruteforce_default_truncation():
    phi = AffineSymbol(1.7, (0.3, 0.3, 0.2))
    f = DirichletPoly.monomial(2, 1.0) + DirichletPoly.monomial(15, 0.5)
    a = comp_norm_sq(phi, f)
    b = comp_bruteforce_norm_sq(phi, f)
    assert abs(a - b) < 1e-8


def test_comp_norm_permutation_invariance():
    rng = np.random.default_rng(71)
    f = _random_poly(rng, max_n=25, terms=5)
    phi1 = AffineSymbol(1.8, (0.5, 0.2, 0.1))
    phi2 = AffineSymbol(1.8, (0.1, 0.5, 0.2))
    assert comp_norm_sq(phi1, f) == pytest.approx(comp_norm_sq(phi2, f), abs=1e-10)


def test_comp_norm_twist_invariance():
    rng = np.random.default_rng(73)
    f = _random_poly(rng, max_n=25, terms=5)
    plain = AffineSymbol(1.8, (0.4, 0.3))
    twisted = AffineSymbol(1.8, (0.4, 0.3), twist=(np.exp(0.7j), np.exp(2.1j)))
    assert comp_norm_sq(twisted, f) == pytest.approx(comp_norm_sq(plain, f), rel=1e-12)


def test_subordination_ordering():
    rng = np.random.default_rng(79)
    for _ in range(15):
        d = int(rng.integers(2, 4))
        c = np.sort(rng.uniform(0.05, 0.5, size=d))[::-1]
        t = rng.uniform(0.0, 1.0)
        b = (1 - t) * c + t * np.full(d, c.mean())
        r = float(c.sum())
        re_c = 0.5 + r + 0.3
        phi_b = AffineSymbol(re_c, tuple(b))
        phi_c = AffineSymbol(re_c, tuple(c))
        f = _random_poly(rng, max_n=20, terms=5)
        assert comp_norm_sq(phi_b, f) <= comp_norm_sq(phi_c, f) + 1e-9


def test_subordination_strict_gap():
    # non-permutation pairs with non-constant inputs separate strictly
    rng = np.random.default_rng(83)
    found = 0
    while found < 20:
        c = np.sort(rng.uniform(0.1, 0.5, size=3))[::-1]
        t = float(rng.uniform(0.2, 0.8))
        b = (1 - t) * c + t * np.full(3, c.mean())
        if np.allclose(np.sort(b), np.sort(c)):
            continue
        r = float(c.sum())
        phi_b = AffineSymbol(0.8 + r, tuple(b))
        phi_c = AffineSymbol(0.8 + r, tuple(c))
        f = DirichletPoly.monomial(2, 1.0) + DirichletPoly.monomial(3, 0.5)
        gap = comp_norm_sq(phi_c, f) - comp_norm_sq(phi_b, f)
        assert gap > 0.0
        found += 1


def test_effective_mixture_bound():
    # mixing the point value with the single-prime norm dominates
    rng = np.random.default_rng(89)
    for _ in range(10):
        phi = _random_symbol(rng)
        f = _random_poly(rng, max_n=20, terms=5)
        C = effective_constant(phi.coeffs)
        lone = single_prime_symbol(phi.c, phi.r)
        mixture = (1.0 - C) * abs(evaluate(f, phi.c)) ** 2 + C * comp_norm_sq(lone, f)
        assert comp_norm_sq(phi, f) <= mixture + 1e-9


def test_effective_mixture_wide_vector():
    # a flat 8-term truncation of an infinite profile
    coeffs = tuple([0.1] * 8)
    phi = AffineSymbol(1.5, coeffs)
    f = DirichletPoly.monomial(2, 1.0) + DirichletPoly.monomial(6, 1.0)
    C = effective_constant(coeffs)
    assert C == pytest.approx(1.0 / 8.0)
    lone = single_prime_symbol(phi.c, phi.r)
    mixture = (1.0 - C) * abs(evaluate(f, phi.c)) ** 2 + C * comp_norm_sq(lone, f)
    assert comp_norm_sq(phi, f) <= mixture + 1e-9


def test_symbol_json_roundtrip():
    phi = AffineSymbol(1.5 + 0.25j, (0.4, 0.3), twist=(1j, -1.0))
    data = phi.to_jsonable()
    back = AffineSymbol.from_jsonable(data)
    assert back == phi
