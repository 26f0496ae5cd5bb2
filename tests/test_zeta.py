"""Checks for the zeta engine: values, derivatives, sandwiches, alpha0."""

from __future__ import annotations

import math

import numpy as np
import pytest

from h2comp.zeta import (
    alpha0,
    dkzeta_sandwich,
    riemann_sum_bounds,
    zeta,
    zeta_deriv,
    _EM_BIG,
    _EM_COEFFS,
    _EM_HEAD,
    _gamma_q,
    _zeta_array,
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


def _zeta_array_loop(s: np.ndarray) -> np.ndarray:
    """The array path as one loop over the eight corrections, a term at a
    time: the reference the vectorized corrections must match bit for bit."""
    head = np.sum(_EM_HEAD[None, :] ** (-s[:, None]), axis=1)
    out = head + _EM_BIG ** (1.0 - s) / (s - 1.0) + 0.5 * _EM_BIG ** (-s)
    poch = s.copy()
    npow = _EM_BIG ** (-s - 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, coef in enumerate(_EM_COEFFS, start=1):
            out += np.where(npow > 0.0, coef * poch * npow, 0.0)
            poch = poch * (s + 2 * j - 1) * (s + 2 * j)
            npow = npow / (_EM_BIG * _EM_BIG)
    return out


def test_zeta_array_matches_the_term_loop_bitwise():
    # log-uniform from 1 + 1e-9 to 1e300, plus a dense band across
    # sigma ~ 140-170, where N^{-s-1} / (N^2)^{j-1} underflows one
    # correction after another and the rising factorial overflows
    rng = np.random.default_rng(20260)
    s = np.concatenate([
        1.0 + 10.0 ** rng.uniform(-9.0, 0.0, 4000),
        10.0 ** rng.uniform(0.0, 300.0, 4000),
        rng.uniform(140.0, 170.0, 4000),
        [1.0 + 1e-9, 1e300, math.inf],
    ])
    got = _zeta_array(s)
    want = _zeta_array_loop(s)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    for x in s[::97]:
        assert zeta(float(x)).hex() == float(got[s == x][0]).hex()


def test_zeta_deriv_first_at_two():
    # |zeta'(2)| = sum ln(n)/n^2 = 0.93754825431584375..., from mpmath at
    # 30 digits, an oracle that shares nothing with the library's route
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


def test_zeta_deriv_at_extreme_sigma():
    # the value decays like (log 2)^k 2^{-sigma}: positive and decreasing
    # until it underflows, never NaN, and 0 at sigma = +inf.  The tail
    # underflows where (sigma - 1) log 100 passes 745, near sigma = 163.
    for k in range(1, 13):
        assert zeta_deriv(k, math.inf) == 0.0
    for k in (1, 12):
        assert zeta_deriv(k, 1e308) == 0.0
        vals = [zeta_deriv(k, s) for s in (150.0, 160.0, 163.0, 164.0, 170.0)]
        assert all(v > 0.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert zeta_deriv(k, 1100.0) == 0.0


def test_zeta_deriv_matches_mpmath():
    import mpmath as mp

    with mp.workdps(30):
        for sigma in (1.001, 1.01, 1.05, 1.5, 2.0, 3.0, 6.0, 10.0, 40.0):
            for k in range(1, 13):
                ref = (-1) ** k * mp.zeta(sigma, 1, k)
                assert abs(zeta_deriv(k, sigma) - ref) <= 2e-15 * ref, (k, sigma)


def test_zeta_deriv_allocates_no_table():
    import tracemalloc

    zeta_deriv(12, 1.01)
    tracemalloc.start()
    try:
        zeta_deriv(12, 1.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_gamma_q_closed_form_matches_mpmath():
    import mpmath as mp

    # y = (sigma - 1) log 100 spans these for sigma from 1.0002 to about 163
    with mp.workdps(30):
        for y in (0.0, 1e-3, 0.1, 0.5, 1.0, 2.5, 7.0, 13.8, 30.0, 80.0, 150.0, 700.0):
            for k in range(13):
                ref = mp.gammainc(k + 1, y, regularized=True)
                assert abs(_gamma_q(k, y) - ref) <= 1e-15 * ref, (k, y)
    assert _gamma_q(12, 800.0) == 0.0
    assert _gamma_q(12, math.inf) == 0.0


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
