"""Dirichlet-polynomial arithmetic: norms, evaluation, vertical means."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from h2comp.dseries import DirichletPoly, carlson_mean, evaluate, h2_norm_sq


def _random_poly(rng, max_n=60, terms=8):
    ns = rng.choice(np.arange(1, max_n + 1), size=terms, replace=False)
    f = DirichletPoly()
    for n in ns:
        a = complex(rng.normal(), rng.normal())
        f = f + (DirichletPoly.monomial(int(n), a))
    return f


def test_norm_examples():
    f = DirichletPoly.monomial(2, 3.0) + (DirichletPoly.monomial(3, 4.0))
    assert h2_norm_sq(f) == pytest.approx(25.0, rel=1e-15)
    assert h2_norm_sq(DirichletPoly({1: 1.0})) == 1.0
    assert h2_norm_sq(DirichletPoly()) == 0.0


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


def test_dilation_isometry():
    # n -> n0 n is injective, so the dilated polynomial has the same coefficients
    rng = np.random.default_rng(23)
    f = _random_poly(rng)
    for n0 in (1, 2, 7, 30):
        shifted = DirichletPoly({n0 * n: a for n, a in f.items()})
        assert h2_norm_sq(shifted) == pytest.approx(h2_norm_sq(f), rel=1e-13)


def test_evaluate_examples():
    f = DirichletPoly.monomial(2, 1.0)
    assert evaluate(f, 1.0) == pytest.approx(0.5)
    g = DirichletPoly({1: 1.0}) + (DirichletPoly.monomial(2, 1.0))
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


def test_carlson_constant_and_monomial():
    one = DirichletPoly({1: 1.0})
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
    f = _random_poly(rng, max_n=1000, terms=7) + DirichletPoly({1: 1.0})
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
