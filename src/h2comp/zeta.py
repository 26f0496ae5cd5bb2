"""Riemann zeta on the real ray sigma > 1, together with the derivative
brackets the operator bounds consume.

Everything downstream reaches zeta through closed-form expressions such
as zeta(1 + xi) or quotients zeta(2 min Re phi(sigma)) / E(2 sigma), with
E the Euler product over the symbol's active primes (`opnorm`), so the accuracy target is plain double precision on scalar arguments.
The implementation is Euler--Maclaurin with a fixed cutoff; the tests
certify it against a slow direct-summation oracle.

Derivatives are needed only up to order 12 and only for sigma > 1.  They
run on the same Euler--Maclaurin cutoff and Bernoulli corrections as
zeta, with the integral term an incomplete gamma, and are correct to
near double rounding.  At integer order the regularized upper
incomplete gamma has the closed form Q(k+1, y) = e^{-y} sum_{i<=k} y^i / i!,
a sum of positive terms with no cancellation, so the tail needs nothing
beyond the standard library.

The sandwich

    k! (zeta(sigma) - 1) / (sigma - 1)^k
        <= (-1)^k zeta^(k)(sigma)
        <= k! zeta(sigma) / (sigma - 1)^k

holds for every k >= 1 and sigma > 1; `dkzeta_sandwich` returns the
bracket together with the directly computed middle value.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import InequalityViolation

__all__ = [
    "zeta",
    "zeta_deriv",
    "dkzeta_sandwich",
    "riemann_sum_bounds",
    "alpha0",
]

_EM_CUT = 100
_EM_BIG = float(_EM_CUT)
# the head n = 1 .. N-1 of the Euler--Maclaurin sum
_EM_HEAD = np.arange(1, _EM_CUT, dtype=float)


def _em_coeffs() -> tuple[float, ...]:
    """B_2j / (2j)! for j = 1..8.  (2j)! is built up as a running float
    product and divided into B_2j, the rounding the sum has always used."""
    bernoulli = (  # B_2, B_4, ..., B_16
        1.0 / 6.0,
        -1.0 / 30.0,
        1.0 / 42.0,
        -1.0 / 30.0,
        5.0 / 66.0,
        -691.0 / 2730.0,
        7.0 / 6.0,
        -3617.0 / 510.0,
    )
    out = []
    fact = 1.0
    for j, b in enumerate(bernoulli, start=1):
        fact *= (2 * j) * (2 * j - 1)
        out.append(b / fact)
    return tuple(out)


_EM_COEFFS = _em_coeffs()
_EM_COEFF_COL = np.array(_EM_COEFFS)[:, None]
# the shifts 0, 2, ..., 14 of the even Pochhammer factors s + 2j - 2
_EM_EVEN = np.arange(0.0, 2.0 * len(_EM_COEFFS), 2.0)


def zeta(sigma):
    """Riemann zeta for real sigma > 1 (scalar or array).

    Euler--Maclaurin about the cutoff N = 100 with eight Bernoulli
    correction terms; the first omitted term is below 1e-30 relative
    for every sigma > 1, so the result is correct to double rounding.

    A Python float or numpy float64 takes a scalar path, anything else
    (ints, sequences, 0-d and 1-d arrays) the array path.  Both paths run
    the same operations in the same order with numpy's `power`, so a
    scalar call and the matching entry of an array call agree bit for
    bit.  NaN and every sigma <= 1 raise ValueError; sigma = +inf gives 1.
    """
    if isinstance(sigma, float):
        return _zeta_scalar(float(sigma))
    return _zeta_array(sigma)


def _zeta_scalar(s: float) -> float:
    if not s > 1.0:
        raise ValueError("zeta(sigma) requires sigma > 1")
    head = float(np.add.reduce(np.power(_EM_HEAD, -s)))
    t_lead, t_half, npow = np.power(_EM_BIG, np.array((1.0 - s, -s, -s - 1.0))).tolist()
    out = head + t_lead / (s - 1.0) + 0.5 * t_half
    poch = s                            # s (s+1) ... (s + 2j - 2)
    for j, coef in enumerate(_EM_COEFFS, start=1):
        # past the underflow of npow every further term is 0 (and poch
        # may already be inf, so inf * 0 must not be formed)
        if npow == 0.0:
            break
        out += coef * poch * npow
        poch = poch * (s + 2 * j - 1) * (s + 2 * j)
        npow = npow / (_EM_BIG * _EM_BIG)
    return out


def _zeta_array(sigma):
    s = np.asarray(sigma, dtype=float)
    if not np.all(s > 1.0):
        raise ValueError("zeta(sigma) requires sigma > 1")
    scalar = s.ndim == 0
    s = np.atleast_1d(s).astype(float)

    head = np.sum(_EM_HEAD[None, :] ** (-s[:, None]), axis=1)

    out = head + _EM_BIG ** (1.0 - s) / (s - 1.0) + 0.5 * _EM_BIG ** (-s)
    # the eight corrections as rows, each rounded as on the scalar path:
    # poch_j = s (s+1) ... (s + 2j - 2) is the running product over the
    # factors s, s+1, s+2, ... with s + 2j - 1 formed as (s + 2j) - 1,
    # and npow_j = N^{-s-1} / (N^2)^{j-1} the running quotient
    even = s + _EM_EVEN[:, None]
    factors = np.empty((2 * len(_EM_COEFFS) - 1, s.size))
    factors[0::2] = even
    factors[1::2] = even[1:] - 1.0
    steps = np.full((len(_EM_COEFFS), s.size), _EM_BIG * _EM_BIG)
    steps[0] = _EM_BIG ** (-s - 1.0)
    # as on the scalar path, an entry whose npow has underflowed gets no
    # further terms; the inf * 0 = NaN formed there is discarded
    with np.errstate(over="ignore", invalid="ignore"):
        poch = np.multiply.accumulate(factors, axis=0)[0::2]
        npow = np.divide.accumulate(steps, axis=0)
        terms = np.where(npow > 0.0, _EM_COEFF_COL * poch * npow, 0.0)
    for term in terms:
        out += term
    return float(out[0]) if scalar else out


def _gamma_q(k: int, y: float) -> float:
    """Regularized upper incomplete gamma Q(k+1, y) for integer k >= 0 and
    y >= 0, from the closed form e^{-y} sum_{i<=k} y^i / i!.

    Every term is positive, so the sum loses nothing to cancellation.  Once
    e^{-y} underflows the result is 0, and the terms are not formed (at
    y = +inf they would be inf, and inf * 0 is NaN).
    """
    decay = math.exp(-y)
    if decay == 0.0:
        return 0.0
    term = total = 1.0
    for i in range(1, k + 1):
        term *= y / i
        total += term
    return decay * total


def zeta_deriv(k: int, sigma: float) -> float:
    """(-1)^k * k-th derivative of zeta at real sigma > 1, for 0 <= k <= 12.

    Returns sum_n (log n)^k n^{-sigma}, i.e. the derivative with the
    sign (-1)^k stripped, which is the positive quantity every bound in
    this package consumes.  Euler--Maclaurin at zeta's cutoff N = 100:
    the head n < N, the integral
    int_N^inf (log t)^k t^{-sigma} dt = Gamma(k+1, (sigma-1) log N) / (sigma-1)^{k+1},
    half the term at N and zeta's eight Bernoulli corrections.  For
    k >= 1 the value underflows to 0 as sigma grows and is 0 at +inf.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError("k must be an integer")
    if k < 0 or k > 12:
        raise ValueError("derivative order must satisfy 0 <= k <= 12")
    if not sigma > 1.0:
        raise ValueError("zeta_deriv requires sigma > 1")
    if k == 0:
        return zeta(float(sigma))
    s = float(sigma)
    lb = math.log(_EM_BIG)
    head = float(np.sum(np.log(_EM_HEAD) ** k * _EM_HEAD ** (-s)))
    # Gamma(k+1, y) = k! Q(k+1, y), with y = (sigma - 1) log N
    q = _gamma_q(k, (s - 1.0) * lb)
    if q == 0.0:
        # sigma > 162.8: N^{-sigma} has underflowed too, so the tail and
        # every correction are 0, while (sigma - 1)^{k+1} may overflow and
        # the corrections would form inf * 0 = NaN at sigma = +inf
        return head
    out = head + math.factorial(k) * q / (s - 1.0) ** (k + 1) + 0.5 * lb**k * _EM_BIG ** (-s)
    # the p-th derivative of x^{-s} (log x)^k is x^{-s-p} sum_i b_i (log x)^i;
    # one more derivative maps b_i to -(s+p) b_i + (i+1) b_{i+1}
    b = [0.0] * k + [1.0]
    for p in range(2 * len(_EM_COEFFS) - 1):
        b = [-(s + p) * b[i] + (i + 1) * b[i + 1] for i in range(k)] + [-(s + p) * b[k]]
        if p % 2 == 0:
            # b is now the odd derivative 2j - 1 = p + 1: add -B_2j/(2j)! f^(2j-1)(N)
            poly = 0.0
            for c in reversed(b):
                poly = poly * lb + c
            out -= _EM_COEFFS[p // 2] * _EM_BIG ** (-s - p - 1.0) * poly
    return out


def dkzeta_sandwich(k: int, sigma: float) -> tuple[float, float, float]:
    """Bracket for (-1)^k zeta^(k)(sigma): (lower, computed, upper).

    lower = k! (zeta - 1) / (sigma-1)^k, upper = k! zeta / (sigma-1)^k.
    The ordering lower <= mid <= upper is asserted before returning;
    it is a theorem, so a violation means a numerical regression.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise ValueError("sandwich needs an integer derivative order k >= 1")
    if not sigma > 1.0:
        raise ValueError("dkzeta_sandwich requires sigma > 1")
    z = zeta(float(sigma))
    fk = math.factorial(k)
    pw = (sigma - 1.0) ** k
    lower = fk * (z - 1.0) / pw
    upper = fk * z / pw
    mid = zeta_deriv(k, sigma)
    if not (lower <= mid * (1 + 1e-12) + 1e-300 and mid <= upper * (1 + 1e-12)):
        raise InequalityViolation(
            f"derivative bracket violated at k={k}, sigma={sigma}: "
            f"{lower} !<= {mid} !<= {upper}"
        )
    return (lower, mid, upper)


def riemann_sum_bounds(sigma: float, m: int) -> tuple[float, float]:
    """Two-sided bracket for 1/(sigma-1) from scaled zeta tails.

    U = m^{sigma-1} * sum_{n >= m} n^{-sigma}  decreases to 1/(sigma-1),
    L = m^{sigma-1} * sum_{n >= m+1} n^{-sigma} = U - 1/m increases to it.
    At m = 1 these are zeta(sigma) and zeta(sigma) - 1.
    """
    if not sigma > 1.0:
        raise ValueError("riemann_sum_bounds requires sigma > 1")
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 1:
        raise ValueError("m must be a positive integer")
    s = float(sigma)
    if m == 1:
        head = 0.0
    else:
        n = np.arange(1, m, dtype=float)
        head = float(np.sum(n**(-s)))
    upper = float(m) ** (s - 1.0) * (zeta(s) - head)
    lower = upper - 1.0 / m
    return (lower, upper)


@lru_cache(maxsize=1)
def alpha0() -> float:
    """The unique alpha in (1, 2) with alpha * zeta(1 + alpha) = 2.

    alpha * zeta(1 + alpha) rises from 1 (alpha -> 0+) to infinity and
    is strictly increasing; monotonicity on the bracket is re-checked
    numerically below, so bisection is safe.  Bisected to width 1e-12,
    well inside the 1e-10 contract.
    """
    f = lambda a: a * zeta(1.0 + a) - 2.0
    grid = np.linspace(1.0, 2.0, 21)
    vals = [f(a) for a in grid]
    if not all(x < y for x, y in zip(vals, vals[1:])):
        raise InequalityViolation("alpha * zeta(1+alpha) is not increasing on [1, 2]")
    lo, hi = 1.0, 2.0
    if not (f(lo) < 0.0 < f(hi)):
        raise InequalityViolation("root of alpha * zeta(1+alpha) = 2 not bracketed by [1, 2]")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
