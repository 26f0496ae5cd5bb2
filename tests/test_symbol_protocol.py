"""The symbol protocol: `boundary(theta)`, line traces and `to_jsonable()`
against the type-dispatched routes they replace.

The reference functions below are the dispatch ladders kept verbatim as
independent routes: a boundary block, a line trace and a JSON form per
symbol class.  Affine and polynomial values must agree bit for bit
wherever the arithmetic is the same; the documented exceptions are
checked at the tolerance their rounding allows.  Characters come from
one helper, so the exact values they are held to are mpmath's at 30
digits on the same double phases, as are the inner symbols'.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from h2comp.affine import AffineSymbol, PolynomialSymbol
from h2comp.dseries import _unimodular
from h2comp.fixtures import fixtures
from h2comp.opnorm import PhiAlphaSymbol
from h2comp.primes import exponents_over, first_primes
from h2comp.torus import InnerSymbolParams, SamplePlan, _phases, curve_trace, sample_characters

SAMPLEABLE = [name for name, fx in fixtures().items() if fx.kind in ("affine", "poly", "inner")]


# --- reference routes -----------------------------------------------------

def _ref_inner(phi: InnerSymbolParams, theta: np.ndarray) -> np.ndarray:
    """phi*(chi) at 30 digits on the same double phases: the factors
    (e^{i theta_j} + chi_j)/(e^{i theta_j} - chi_j) = i cot((phi_j -
    theta_j)/2) summed exactly, then g = e^{-iA} and the frame.  A
    column with phi_j == theta_j takes the radial limit g = 0."""
    import mpmath as mp

    out = np.empty(theta.shape[1], dtype=complex)
    with mp.workdps(30):
        ginf = mp.exp(-mp.fsum(phi.lambdas))
        for i, col in enumerate(theta.T):
            half = [(mp.mpf(float(x)) - mp.mpf(th)) / 2 for x, th in zip(col, phi.thetas)]
            if any(h == 0 for h, lam in zip(half, phi.lambdas) if lam):
                g = mp.mpf(0)
            else:
                g = mp.expj(-mp.fsum(lam * mp.cot(h) for h, lam in zip(half, phi.lambdas) if lam))
            out[i] = complex(phi.c + phi.r * (g - ginf) / (1 - ginf * g))
    return out


def _ref_boundary(phi, Z: np.ndarray) -> np.ndarray:
    if isinstance(phi, AffineSymbol):
        eff = np.array(phi.effective_coeffs(), dtype=complex)
        if eff.size == 0:
            return np.full(Z.shape[1], phi.c, dtype=complex)
        return phi.c + eff @ Z[: eff.size]
    if isinstance(phi, PolynomialSymbol):
        out = np.full(Z.shape[1], phi.c, dtype=complex)
        primes = first_primes(phi.d)
        for n, a in phi.terms.items():
            expo = exponents_over(n, primes)
            term = np.full(Z.shape[1], a, dtype=complex)
            for j, e in enumerate(expo):
                if e:
                    term = term * Z[j] ** e
            out += term
        return out
    raise TypeError(phi)


def _ref_line(phi, t: np.ndarray) -> np.ndarray:
    if isinstance(phi, AffineSymbol):
        out = np.full(t.shape, phi.c, dtype=complex)
        for p, cj in zip(phi.primes, phi.effective_coeffs()):
            out += cj * np.exp(-1j * t * math.log(p))
        return out
    if isinstance(phi, PolynomialSymbol):
        out = np.full(t.shape, phi.c, dtype=complex)
        for n, a in phi.terms.items():
            out += a * np.exp(-1j * t * math.log(n))
        return out
    if isinstance(phi, InnerSymbolParams):
        return _ref_inner(phi, np.stack([0.0 - t * math.log(p) for p in first_primes(phi.d)]))
    raise TypeError(phi)


# 2 ulp of 1: how far a character may lie from e^{i theta} at its double phase
CHAR_ATOL = 4.44e-16
EPS = np.finfo(float).eps


def _characters(theta: np.ndarray) -> np.ndarray:
    Z = np.empty(theta.shape, dtype=complex)
    _unimodular(theta, Z)
    return Z


def _line_phases(phi, t: np.ndarray) -> np.ndarray:
    """The phases 0 - t log p_j that line traces pass to `boundary`."""
    return np.stack([0.0 - t * math.log(p) for p in first_primes(max(phi.d, 1))])


def _mp_value(phi, theta: np.ndarray) -> np.ndarray:
    """c + sum of a_n e^{i sum_j e_j theta_j} over the terms a_n n^{-s},
    n = prod_j p_j^{e_j}, at 30 digits on the same double phases."""
    import mpmath as mp

    if isinstance(phi, AffineSymbol):
        terms = [(np.eye(phi.d, dtype=int)[j], a) for j, a in enumerate(phi.effective_coeffs())]
    else:
        terms = [(exponents_over(n, first_primes(phi.d)), a) for n, a in phi.terms.items()]
    out = np.empty(theta.shape[1], dtype=complex)
    with mp.workdps(30):
        for i, col in enumerate(theta.T):
            phases = [mp.fsum(int(e) * mp.mpf(float(x)) for e, x in zip(expo, col)) for expo, _ in terms]
            out[i] = complex(phi.c + mp.fsum(mp.mpc(a) * mp.expj(ph) for ph, (_, a) in zip(phases, terms)))
    return out


def _value_atol(phi, theta: np.ndarray) -> float:
    """What a value c + sum a_n chi_n may lose per part: each character
    2 ulp of 1 and the rounding of its phase sum_j e_j theta_j, each
    product and each sum a few ulp."""
    if isinstance(phi, AffineSymbol):
        mods, reach = [abs(a) for a in phi.effective_coeffs()], [1] * phi.d
    else:
        mods = [abs(a) for a in phi.terms.values()]
        reach = [sum(exponents_over(n, first_primes(phi.d))) for n in phi.terms]
    top = float(np.abs(theta).max(initial=0.0))
    size = abs(phi.c) + sum(mods)
    # a phase of k > 1 steps rounds at most k - 1 times, each under one ulp of k top
    phase = [(k - 1) * np.spacing(k * top) for k in reach]
    return sum(m * (CHAR_ATOL + e + 2 * EPS) for m, e in zip(mods, phase)) + len(mods) * EPS * size


def _ref_jsonable(sym) -> dict:
    if isinstance(sym, AffineSymbol):
        return sym.to_jsonable()
    if isinstance(sym, PolynomialSymbol):
        return {
            "c": [sym.c.real, sym.c.imag],
            "terms": [[n, a.real, a.imag] for n, a in sym.terms.items()],
            "radius": sym.radius,
        }
    if isinstance(sym, PhiAlphaSymbol):
        return {"alpha": sym.alpha}
    if isinstance(sym, InnerSymbolParams):
        return {
            "lambdas": list(sym.lambdas),
            "thetas": list(sym.thetas),
            "c": [sym.c.real, sym.c.imag],
            "r": sym.r,
            "lambda_tail": sym.lambda_tail,
        }
    raise TypeError(sym)


def _ref_prime_order(phi: AffineSymbol, Z: np.ndarray) -> np.ndarray:
    """The affine value with its terms added one prime at a time, the
    order the line traces have always used."""
    out = np.full(Z.shape[1], phi.c, dtype=complex)
    for j, cj in enumerate(phi.effective_coeffs()):
        out += cj * Z[j]
    return out


def _torus_block(phi, seed: int, m: int = 4099) -> tuple[np.ndarray, np.ndarray]:
    """Sampled phases and their characters."""
    plan = SamplePlan(n_samples=m, seed=seed, d=max(phi.d, 1))
    return _phases(plan, 0, m), sample_characters(plan)


def _near_poles(phi: InnerSymbolParams, theta: np.ndarray) -> np.ndarray:
    """theta with columns appended 1e-9 and 1e-12 off each factor's pole
    on either side, as sampled phases in [0, 2 pi)."""
    offs = np.array([1e-9, -1e-9, 1e-12, -1e-12])
    near = np.repeat(theta[:, :1], phi.d * offs.size, axis=1)
    for j, th in enumerate(phi.thetas):
        near[j, j * offs.size : (j + 1) * offs.size] = (th + offs) % (2.0 * math.pi)
    return np.concatenate([theta, near], axis=1)


_EXTRA_AFFINE = [
    AffineSymbol(2.0, ()),
    AffineSymbol(1.5 + 0.4j, (0.3, 0.0, 0.5)),
    AffineSymbol(1.5, (0.6, 0.4), twist=(np.exp(0.7j), -1.0)),
]


# --- boundary blocks ------------------------------------------------------

@pytest.mark.parametrize("name", SAMPLEABLE)
def test_boundary_block_matches_reference(name):
    phi = fixtures()[name].symbol
    theta, Z = _torus_block(phi, seed=17)
    if isinstance(phi, InnerSymbolParams):
        theta = _near_poles(phi, theta)
    got = phi.boundary(theta)
    assert got.shape == (theta.shape[1],)
    if isinstance(phi, AffineSymbol):
        assert got.tobytes() == _ref_prime_order(phi, Z).tobytes()
        ref = _ref_boundary(phi, Z)
        np.testing.assert_allclose(got, ref, rtol=0, atol=4 * np.finfo(float).eps * abs(phi.c))
    elif isinstance(phi, PolynomialSymbol):
        ref = _mp_value(phi, theta)
        atol = _value_atol(phi, theta)
        np.testing.assert_allclose(got.real, ref.real, rtol=0, atol=atol)
        np.testing.assert_allclose(got.imag, ref.imag, rtol=0, atol=atol)
    else:
        np.testing.assert_allclose(got, _ref_inner(phi, theta), rtol=0, atol=1e-12)


@pytest.mark.parametrize("phi", _EXTRA_AFFINE, ids=repr)
def test_affine_boundary_edge_cases(phi):
    theta, Z = _torus_block(phi, seed=5, m=257)
    got = phi.boundary(theta)
    assert got.tobytes() == _ref_prime_order(phi, Z).tobytes()
    np.testing.assert_allclose(got, _ref_boundary(phi, Z), rtol=0, atol=1e-15)


def test_inner_boundary_is_on_the_frame_circle():
    phi = fixtures()["example-7.3"].symbol
    theta, _ = _torus_block(phi, seed=23, m=20000)
    off = np.abs(phi.boundary(theta) - phi.c)
    np.testing.assert_allclose(off, phi.r, rtol=0, atol=1e-14)


def test_inner_boundary_at_exact_pole_takes_radial_limit():
    phi = InnerSymbolParams(lambdas=(0.4, 0.2), thetas=(0.0, 1.0))
    # columns: on the first factor's pole, on the second's, on neither
    theta = np.array([[0.0, math.pi, math.pi], [1.0, 1.0, math.pi]])
    with np.errstate(all="raise"):
        got = phi.boundary(theta)
    assert got[0] == phi.c - phi.r * phi.g_infinity
    assert got[1] == phi.c - phi.r * phi.g_infinity
    assert abs(got[2] - phi.c) == pytest.approx(phi.r, abs=1e-15)


# --- line traces ----------------------------------------------------------

@pytest.mark.parametrize("name", SAMPLEABLE)
def test_line_trace_matches_reference(name):
    phi = fixtures()[name].symbol
    trace = curve_trace(phi, -75.0, 125.0, 6000)
    t = trace[:, 0]
    ref = _ref_line(phi, t)
    got = trace[:, 1] + 1j * trace[:, 2]
    if isinstance(phi, AffineSymbol):
        _assert_affine_line(phi, trace)
    elif isinstance(phi, PolynomialSymbol):
        # n^{-it} is now the product of powers of p^{-it}
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13)
    else:
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("phi", _EXTRA_AFFINE, ids=repr)
def test_affine_line_trace_edge_cases(phi):
    _assert_affine_line(phi, curve_trace(phi, -10.0, 30.0, 801))


def _assert_affine_line(phi: AffineSymbol, trace: np.ndarray) -> None:
    """A trace is the sampled route bit for bit, its terms added one
    prime at a time at the phases 0 - t log p_j, and within rounding of
    the exact values at those phases."""
    theta = _line_phases(phi, trace[:, 0])
    ref = _ref_prime_order(phi, _characters(theta))
    assert trace[:, 1].tobytes() == ref.real.tobytes()
    assert trace[:, 2].tobytes() == ref.imag.tobytes()
    exact = _mp_value(phi, theta[: phi.d])
    atol = _value_atol(phi, theta)
    np.testing.assert_allclose(trace[:, 1], exact.real, rtol=0, atol=atol)
    np.testing.assert_allclose(trace[:, 2], exact.imag, rtol=0, atol=atol)


# --- JSON forms -----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(fixtures()))
def test_to_jsonable_matches_reference(name):
    sym = fixtures()[name].symbol
    assert sym.to_jsonable() == _ref_jsonable(sym)
