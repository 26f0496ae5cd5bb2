"""Dirichlet-polynomial arithmetic: norms, convolution, twists, vertical means."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from h2comp.dseries import (
    Character,
    DirichletPoly,
    carlson_mean,
    derivative_at,
    evaluate,
    h2_norm_sq,
    h2k_norm,
    multiply,
    twist,
)


def _random_poly(rng, max_n=60, terms=8):
    ns = rng.choice(np.arange(1, max_n + 1), size=terms, replace=False)
    f = DirichletPoly.zero()
    for n in ns:
        a = complex(rng.normal(), rng.normal())
        f = f + (DirichletPoly.monomial(int(n), a))
    return f


def test_norm_examples():
    f = DirichletPoly.monomial(2, 3.0) + (DirichletPoly.monomial(3, 4.0))
    assert h2_norm_sq(f) == pytest.approx(25.0, rel=1e-15)
    assert h2_norm_sq(DirichletPoly.one()) == 1.0
    assert h2_norm_sq(DirichletPoly.zero()) == 0.0


def test_norm_positivity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = _random_poly(rng)
        assert h2_norm_sq(f) > 0.0


def test_triangle_inequality():
    rng = np.random.default_rng(11)
    for _ in range(25):
        f = _random_poly(rng)
        g = _random_poly(rng)
        lhs = h2_norm_sq(f + g)
        rhs = (math.sqrt(h2_norm_sq(f)) + math.sqrt(h2_norm_sq(g))) ** 2
        assert lhs <= rhs + 1e-10


def test_multiply_unique_factorization():
    f = multiply(DirichletPoly.monomial(2, 1.0), DirichletPoly.monomial(3, 1.0))
    assert f.support == (6,)
    assert f.coeff(6) == pytest.approx(1.0)


def test_multiply_square_collects_cross_terms():
    f = DirichletPoly.monomial(2, 1.0) + (DirichletPoly.monomial(3, 1.0))
    sq = multiply(f, f)
    assert sq.support == (4, 6, 9)
    assert sq.coeff(4) == pytest.approx(1.0)
    assert sq.coeff(6) == pytest.approx(2.0)
    assert sq.coeff(9) == pytest.approx(1.0)


def test_multiply_identity():
    rng = np.random.default_rng(3)
    f = _random_poly(rng)
    g = multiply(f, DirichletPoly.one())
    assert g.support == f.support
    for n in f.support:
        assert g.coeff(n) == pytest.approx(f.coeff(n))


def test_multiply_against_dict_convolution():
    rng = np.random.default_rng(19)
    for _ in range(10):
        f = _random_poly(rng, max_n=40, terms=6)
        g = _random_poly(rng, max_n=40, terms=6)
        expected: dict[int, complex] = {}
        for m in f.support:
            for n in g.support:
                expected[m * n] = expected.get(m * n, 0.0) + f.coeff(m) * g.coeff(n)
        prod = multiply(f, g)
        for n, a in expected.items():
            assert prod.coeff(n) == pytest.approx(a, abs=1e-12)


def test_dilation_isometry():
    rng = np.random.default_rng(23)
    f = _random_poly(rng)
    for n0 in (1, 2, 7, 30):
        shifted = multiply(DirichletPoly.monomial(n0, 1.0), f)
        assert h2_norm_sq(shifted) == pytest.approx(h2_norm_sq(f), rel=1e-13)


def test_evaluate_examples():
    f = DirichletPoly.monomial(2, 1.0)
    assert evaluate(f, 1.0) == pytest.approx(0.5)
    g = DirichletPoly.one() + (DirichletPoly.monomial(2, 1.0))
    assert evaluate(g, 0.0) == pytest.approx(2.0)


def test_evaluate_vertical_period():
    # at t = 2*pi/ln 2 the factor 2^{-it} makes a full turn
    t0 = 2.0 * math.pi / math.log(2.0)
    f = DirichletPoly.monomial(2, 1.0) + (DirichletPoly.monomial(3, 1.0))
    val = evaluate(f, 1j * t0)
    expected = 1.0 + 3.0 ** (-1j * t0)
    assert val == pytest.approx(expected, abs=1e-12)


def test_evaluate_manual_sum():
    rng = np.random.default_rng(5)
    f = _random_poly(rng, max_n=20, terms=5)
    s = 1.3 + 0.7j
    manual = sum(f.coeff(n) * complex(n) ** (-s) for n in f.support)
    assert evaluate(f, s) == pytest.approx(manual, abs=1e-13)


def test_derivative_examples():
    assert derivative_at(DirichletPoly.one(), 1, 0.3 + 1j) == 0.0
    f = DirichletPoly.monomial(2, 1.0)
    assert derivative_at(f, 1, 2.0) == pytest.approx(-math.log(2.0) / 4.0)
    g = (
        DirichletPoly.one()
         + (DirichletPoly.monomial(2, 1.0))
         + (DirichletPoly.monomial(3, 1.0))
    )
    assert derivative_at(g, 0, 2.0) == pytest.approx(49.0 / 36.0)


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(29)
    f = _random_poly(rng, max_n=30, terms=6)
    c = 1.5
    h = 1e-6
    fd = (evaluate(f, c + h) - evaluate(f, c - h)) / (2 * h)
    assert derivative_at(f, 1, c) == pytest.approx(fd, abs=1e-7)


def test_twist_examples():
    f = DirichletPoly.monomial(2, 1.0)
    chi = Character((-1.0,))
    assert twist(f, chi).coeff(2) == pytest.approx(-1.0)

    g = DirichletPoly.monomial(6, 1.0)
    chi2 = Character((1j, 1j))
    assert twist(g, chi2).coeff(6) == pytest.approx(-1.0)


def test_twist_trivial_character():
    rng = np.random.default_rng(31)
    f = _random_poly(rng, max_n=16, terms=4)
    chi = Character((1.0, 1.0, 1.0, 1.0, 1.0, 1.0))
    g = twist(f, chi)
    for n in f.support:
        assert g.coeff(n) == pytest.approx(f.coeff(n))


def test_twist_isometry_random():
    # support must factor over the character's primes, so build the support
    # from random exponent tuples over (2, 3, 5)
    rng = np.random.default_rng(37)
    for _ in range(15):
        f = DirichletPoly.zero()
        for _ in range(7):
            e2, e3, e5 = rng.integers(0, 4, size=3)
            n = 2 ** int(e2) * 3 ** int(e3) * 5 ** int(e5)
            f = f + DirichletPoly.monomial(n, complex(rng.normal(), rng.normal()))
        angles = rng.uniform(0, 2 * math.pi, size=3)
        chi = Character(tuple(np.exp(1j * angles)))
        assert h2_norm_sq(twist(f, chi)) == pytest.approx(h2_norm_sq(f), rel=1e-13)


def test_twist_is_multiplicative():
    chi = Character((np.exp(0.3j), np.exp(1.1j), np.exp(2.2j)))
    # chi(12) = chi(2)^2 chi(3)
    f = DirichletPoly.monomial(12, 1.0)
    expected = np.exp(0.3j) ** 2 * np.exp(1.1j)
    assert twist(f, chi).coeff(12) == pytest.approx(expected)


def test_twist_prime_out_of_range():
    f = DirichletPoly.monomial(5, 1.0)
    with pytest.raises(ValueError):
        twist(f, Character((1.0, 1.0)))  # covers only primes 2 and 3


def test_character_rejects_nonunimodular():
    with pytest.raises(ValueError):
        Character((0.5,))


def test_carlson_constant_and_monomial():
    one = DirichletPoly.one()
    assert carlson_mean(one, 10.0) == pytest.approx(1.0, rel=1e-12)
    f = DirichletPoly.monomial(2, 1.0)
    assert carlson_mean(f, 10.0) == pytest.approx(1.0, rel=1e-9)


def test_carlson_two_terms_at_large_T():
    f = DirichletPoly.monomial(2, 1.0) + (DirichletPoly.monomial(3, 1.0))
    assert carlson_mean(f, 1e4) == pytest.approx(2.0, abs=1e-3)


def test_carlson_convergence_rate():
    # the cross terms integrate to O(1/T) with constant controlled by the
    # reciprocal log-ratios over the support
    rng = np.random.default_rng(41)
    f = _random_poly(rng, max_n=20, terms=5)
    ns = f.support
    k_f = 0.0
    for i, m in enumerate(ns):
        for n in ns[i + 1:]:
            k_f += 2.0 * abs(f.coeff(m)) * abs(f.coeff(n)) / abs(math.log(m / n))
    target = h2_norm_sq(f)
    for T in (1e2, 1e3, 1e4):
        assert abs(carlson_mean(f, T) - target) <= k_f / T + 1e-9


def test_h2k_single_term_power():
    f = DirichletPoly.monomial(2, 0.7)
    for k in (1, 2, 3, 5):
        assert h2k_norm(f, k) == pytest.approx(0.7 ** (2 * k), rel=1e-12)


def test_h2k_examples():
    f = DirichletPoly.monomial(2, 1.0) + (DirichletPoly.monomial(3, 1.0))
    assert h2k_norm(f, 2) == pytest.approx(6.0, rel=1e-12)
    g = f + (DirichletPoly.monomial(5, 1.0))
    assert h2k_norm(g, 1) == pytest.approx(3.0, rel=1e-12)


def test_h2k_binomial_identity():
    # the k-th power of a two-prime unit vector has multinomial coefficients;
    # the squared norm is the central binomial number
    f = DirichletPoly.monomial(2, 1.0) + (DirichletPoly.monomial(3, 1.0))
    for k in (1, 2, 3, 4, 5, 6):
        assert h2k_norm(f, k) == pytest.approx(float(math.comb(2 * k, k)), rel=1e-10)


def test_h2k_power_mean_monotone():
    # normalized by (sum c_j)^{2k}, the sequence is nonincreasing in k
    coeffs = [(0.5, 0.3), (0.4, 0.4, 0.2), (1.0,)]
    for cs in coeffs:
        primes = (2, 3, 5)
        f = DirichletPoly.zero()
        for p, c in zip(primes, cs):
            f = f + (DirichletPoly.monomial(p, c))
        total = sum(cs)
        prev = math.inf
        for k in range(1, 7):
            ratio = h2k_norm(f, k) / total ** (2 * k)
            assert ratio <= prev + 1e-12
            prev = ratio


def test_h2k_support_cap_guard():
    f = DirichletPoly.zero()
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        f = f + (DirichletPoly.monomial(p, 1.0))
    with pytest.raises(ValueError):
        h2k_norm(f, 12)


def test_json_roundtrip():
    rng = np.random.default_rng(43)
    f = _random_poly(rng, max_n=50, terms=6)
    blob = f.to_json()
    parsed = json.loads(blob)
    ns = [row[0] for row in parsed["coeffs"]]
    assert ns == sorted(ns)
    g = DirichletPoly.from_json(blob)
    assert g.support == f.support
    for n in f.support:
        assert g.coeff(n) == pytest.approx(f.coeff(n), abs=1e-15)


def _mp_evaluate_atol(f, s):
    """f(s) at 30 digits on the same double s, and what the array path
    may lose: per term, 2 ulp of 1 in the character, the rounding of
    log n carried through s log n, and a few ulp in exp and the products;
    then one ulp of the running sum per term."""
    import mpmath as mp

    ref = np.empty(s.shape, dtype=complex)
    atol = np.empty(s.shape)
    eps = np.finfo(float).eps
    with mp.workdps(30):
        for i, sv in np.ndenumerate(s):
            ss = mp.mpc(sv.real, sv.imag)
            ref[i] = complex(mp.fsum(mp.mpc(a) * mp.power(n, -ss) for n, a in f.items()))
            size = [abs(a) * n ** -sv.real for n, a in f.items()]
            reach = (abs(sv.real) + abs(sv.imag)) * np.log([n for n, _ in f.items()])
            atol[i] = sum(m * (4.44e-16 + 2 * eps * x + 4 * eps) for m, x in zip(size, reach))
            atol[i] += len(f) * eps * sum(size)
    return ref, atol


def test_evaluate_array_path_matches_mpmath():
    rng = np.random.default_rng(61)
    f = _random_poly(rng, max_n=1000, terms=7) + DirichletPoly.one()
    x = rng.uniform(0.5, 3.0, size=(3, 40))
    y = np.concatenate([rng.uniform(-50.0, 50.0, 60), rng.uniform(-1e4, 1e4, 58), [0.0, -0.0]])
    s = x + 1j * y.reshape(3, 40)
    got = evaluate(f, s)
    assert got.shape == s.shape
    ref, atol = _mp_evaluate_atol(f, s)
    assert np.all(np.abs(got.real - ref.real) <= atol)
    assert np.all(np.abs(got.imag - ref.imag) <= atol)


def test_evaluate_array_path_does_not_follow_blas_threads():
    # the array path makes no BLAS call, so the thread count of a
    # threaded BLAS cannot reach its bits
    code = (
        "import hashlib, numpy as np\n"
        "from h2comp.dseries import DirichletPoly, evaluate\n"
        "rng = np.random.default_rng(7)\n"
        "f = DirichletPoly({n: complex(*rng.normal(size=2)) for n in (1, 2, 3, 5, 6, 10, 12, 30)})\n"
        "s = rng.uniform(0.6, 2.0, 1 << 17) + 1j * rng.uniform(-300.0, 300.0, 1 << 17)\n"
        "print(hashlib.sha256(evaluate(f, s).tobytes()).hexdigest())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]
