"""Checks for the zeta engine: values, derivatives, sandwiches, lattice variants."""

from __future__ import annotations

import math

import numpy as np
import pytest

from h2comp.zeta import (
    CofiniteTail,
    FullIntegers,
    GeometricPowers,
    PrimeSemigroup,
    abscissa,
    alpha0,
    dkzeta_sandwich,
    riemann_sum_bounds,
    zeta,
    zeta_deriv,
    zeta_lambda,
)


def _zeta_bruteforce(sigma: float, terms: int = 400_000) -> tuple[float, float]:
    """Bracket zeta(sigma) by a partial sum plus integral tail bounds.

    Independent of the library: sum n^-sigma directly, then close the tail with
    int_{N+1}^{inf} x^-sigma dx below and int_{N}^{inf} above.
    """
    n = np.arange(1, terms + 1, dtype=np.float64)
    partial = float(np.sum(n ** (-sigma)))
    lo = partial + (terms + 1) ** (1.0 - sigma) / (sigma - 1.0)
    hi = partial + terms ** (1.0 - sigma) / (sigma - 1.0)
    return lo, hi


@pytest.mark.parametrize("sigma", [1.1, 1.5, 2.0, 2.5, 3.0, 5.0, 10.0])
def test_zeta_within_bruteforce_bracket(sigma):
    lo, hi = _zeta_bruteforce(sigma)
    val = zeta(sigma)
    assert lo - 1e-12 <= val <= hi + 1e-12


def test_zeta_closed_forms():
    assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-14)
    assert zeta(4.0) == pytest.approx(math.pi ** 4 / 90.0, rel=1e-14)
    assert zeta(6.0) == pytest.approx(math.pi ** 6 / 945.0, rel=1e-14)


def test_zeta_pole_laurent():
    # zeta(1+eps) = 1/eps + gamma + O(eps); at eps = 1e-3 the linear term
    # (gamma_1 ~ -0.0728) contributes ~7e-5.
    eps = 1e-3
    gamma = 0.5772156649015329
    assert zeta(1.0 + eps) == pytest.approx(1.0 / eps + gamma, abs=1e-3)


def test_zeta_domain():
    with pytest.raises(ValueError):
        zeta(1.0)
    with pytest.raises(ValueError):
        zeta(0.5)


def test_zeta_rejects_nan():
    with pytest.raises(ValueError):
        zeta(math.nan)
    with pytest.raises(ValueError):
        zeta(np.float64("nan"))
    with pytest.raises(ValueError):
        zeta(np.array([2.0, math.nan, 3.0]))


@pytest.mark.parametrize(
    "x",
    [kind(v) for kind in (float, np.float64) for v in (1.0 + 1e-12, 2.0, 3.0, 60.0, 1e300)]
    + [2, 3, 60, 10**300],
    ids=repr,
)
def test_zeta_scalar_path_matches_array_path_bitwise(x):
    scalar = zeta(x)
    entry = zeta(np.array([x]))[0]
    assert type(scalar) is float
    assert scalar.hex() == float(entry).hex()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [1e25, 1e300, math.inf])
def test_zeta_far_right_is_one(x):
    # the correction terms underflow to 0 while the rising factorial
    # overflows; their product must not turn the sum into NaN
    assert zeta(x) == 1.0
    assert zeta(np.float64(x)) == 1.0
    np.testing.assert_array_equal(zeta(np.array([x, 2.0])), [1.0, zeta(2.0)])


def test_zeta_deriv_first_at_two():
    # |zeta'(2)| = sum ln(n)/n^2; frozen from a 10^6-term partial sum with
    # integral tail correction, cross-checked against the library once.
    assert zeta_deriv(1, 2.0) == pytest.approx(0.9375482543158437, rel=1e-12)


def test_zeta_deriv_matches_central_difference():
    # step chosen per order: small enough for the truncation term, large
    # enough that the divided difference does not drown in rounding noise
    steps = {1: 1e-6, 2: 1e-4, 3: 2e-3}
    for k in (1, 2, 3):
        for sigma in (1.5, 2.0, 3.0):
            h = steps[k]
            if k == 1:
                approx = abs((zeta(sigma + h) - zeta(sigma - h)) / (2 * h))
            elif k == 2:
                approx = abs(
                    (zeta(sigma + h) - 2 * zeta(sigma) + zeta(sigma - h)) / h ** 2
                )
            else:
                approx = abs(
                    (
                        zeta(sigma + 2 * h)
                        - 2 * zeta(sigma + h)
                        + 2 * zeta(sigma - h)
                        - zeta(sigma - 2 * h)
                    )
                    / (2 * h ** 3)
                )
            assert zeta_deriv(k, sigma) == pytest.approx(approx, rel=1e-4)


def test_zeta_deriv_zeroth_is_zeta():
    assert zeta_deriv(0, 3.0) == pytest.approx(zeta(3.0), rel=1e-14)


def test_zeta_deriv_domain():
    with pytest.raises(ValueError):
        zeta_deriv(13, 2.0)
    with pytest.raises(ValueError):
        zeta_deriv(1, 1.0)
    with pytest.raises(ValueError):
        zeta_deriv(-1, 2.0)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("sigma", [1.2, 1.5, 2.0, 3.0, 5.0])
def test_dkzeta_sandwich_holds(k, sigma):
    lower, mid, upper = dkzeta_sandwich(k, sigma)
    fact = math.factorial(k)
    assert lower == pytest.approx(fact * (zeta(sigma) - 1.0) / (sigma - 1.0) ** k, rel=1e-13)
    assert upper == pytest.approx(fact * zeta(sigma) / (sigma - 1.0) ** k, rel=1e-13)
    assert lower <= mid <= upper


def test_dkzeta_sandwich_example():
    lower, mid, upper = dkzeta_sandwich(1, 2.0)
    assert lower == pytest.approx(0.6449340668482264, rel=1e-12)
    assert mid == pytest.approx(0.9375482543158437, rel=1e-10)
    assert upper == pytest.approx(1.6449340668482264, rel=1e-12)


def test_riemann_sum_bounds_bracket_and_width():
    # the scaled tails squeeze 1/(sigma-1) from both sides and differ by
    # exactly the single term m^{sigma-1} * m^{-sigma} = 1/m
    for sigma in (1.5, 2.0, 3.0):
        target = 1.0 / (sigma - 1.0)
        for m in (1, 2, 5, 10, 50, 100):
            lo, hi = riemann_sum_bounds(sigma, m)
            assert lo <= target <= hi
            assert hi - lo == pytest.approx(1.0 / m, rel=1e-12)


def test_riemann_sum_bounds_m1():
    lo, hi = riemann_sum_bounds(2.0, 1)
    assert lo == pytest.approx(zeta(2.0) - 1.0, rel=1e-12)
    assert hi == pytest.approx(zeta(2.0), rel=1e-12)


def test_riemann_sum_bounds_monotone_in_m():
    for sigma in (1.3, 2.0, 4.0):
        prev_lo, prev_hi = riemann_sum_bounds(sigma, 1)
        for m in range(2, 101):
            lo, hi = riemann_sum_bounds(sigma, m)
            assert lo >= prev_lo - 1e-13
            assert hi <= prev_hi + 1e-13
            prev_lo, prev_hi = lo, hi


def test_alpha0_value_and_residual():
    a0 = alpha0()
    assert 1.45 < a0 < 1.55
    assert a0 == pytest.approx(1.4838999907610742, abs=1e-10)
    assert abs(a0 * zeta(1.0 + a0) - 2.0) < 1e-9


def test_alpha0_is_the_crossing_point():
    # below the root the flat bound 2/alpha wins, above it zeta(1+alpha) wins
    a0 = alpha0()
    assert 2.0 / (a0 - 0.01) > zeta(1.0 + (a0 - 0.01))
    assert 2.0 / (a0 + 0.01) < zeta(1.0 + (a0 + 0.01))


def test_zeta_lambda_full_integers_matches_zeta():
    spec = FullIntegers()
    for sigma in (1.5, 2.0, 3.0):
        assert zeta_lambda(spec, sigma) == pytest.approx(zeta(sigma), rel=1e-13)


def test_zeta_lambda_geometric_powers():
    # sum over p^{-k sigma} is a geometric series
    for p in (2, 3, 5):
        for sigma in (0.5, 1.0, 2.0):
            x = float(p) ** (-sigma)
            expected = 1.0 / (1.0 - x)
            assert zeta_lambda(GeometricPowers(p), sigma) == pytest.approx(expected, rel=1e-13)


def test_zeta_lambda_prime_semigroup_bruteforce():
    # integers of the form 2^a 3^b: compare against a double sum
    spec = PrimeSemigroup((2, 3))
    for sigma in (1.0, 1.5, 2.0):
        total = 0.0
        for a in range(200):
            for b in range(130):
                term = 2.0 ** (-a * sigma) * 3.0 ** (-b * sigma)
                if term < 1e-18:
                    break
                total += term
        assert zeta_lambda(spec, sigma) == pytest.approx(total, rel=1e-10)


def test_zeta_lambda_cofinite_tail():
    # keeps the unit, drops 2..m-1 from the full sum
    for m in (2, 5, 10):
        for sigma in (1.5, 2.5):
            head = sum(float(n) ** (-sigma) for n in range(2, m))
            expected = zeta(sigma) - head
            assert zeta_lambda(CofiniteTail(m), sigma) == pytest.approx(expected, rel=1e-12)


def test_abscissa_values():
    assert abscissa(FullIntegers()) == 1.0
    assert abscissa(CofiniteTail(7)) == 1.0
    assert abscissa(GeometricPowers(2)) == 0.0
    assert abscissa(PrimeSemigroup((2, 3, 5))) == 0.0


def test_zeta_lambda_respects_abscissa():
    with pytest.raises(ValueError):
        zeta_lambda(FullIntegers(), 1.0)
    with pytest.raises(ValueError):
        zeta_lambda(GeometricPowers(2), 0.0)
    # semigroup sums converge for any positive sigma
    assert zeta_lambda(PrimeSemigroup((2, 3)), 0.25) > 0.0


def test_geometric_powers_below_full():
    # the lattice sum is a sub-sum of the full one
    for sigma in (1.5, 2.0, 3.0):
        assert zeta_lambda(GeometricPowers(2), sigma) < zeta(sigma)
