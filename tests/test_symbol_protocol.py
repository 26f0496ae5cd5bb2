"""The symbol protocol: `boundary(Z)`, line traces and `to_jsonable()`
against the type-dispatched routes they replace.

The reference functions below are the dispatch ladders kept verbatim as
independent routes: a boundary block, a line trace and a JSON form per
symbol class.  Affine and polynomial values must agree bit for bit
wherever the arithmetic is the same; the documented exceptions are
checked at the tolerance their rounding allows.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from h2comp.affine import AffineSymbol, PolynomialSymbol
from h2comp.fixtures import fixtures
from h2comp.opnorm import PhiAlphaSymbol
from h2comp.primes import exponents_over, first_primes
from h2comp.torus import InnerSymbolParams, SamplePlan, curve_trace, sample_characters

SAMPLEABLE = [name for name, fx in fixtures().items() if fx.kind in ("affine", "poly", "inner")]


# --- reference routes -----------------------------------------------------

def _ref_inner_g(phi: InnerSymbolParams, Z: np.ndarray) -> np.ndarray:
    S = np.zeros(Z.shape[1], dtype=complex)
    for j, (lam, th) in enumerate(zip(phi.lambdas, phi.thetas)):
        if lam == 0.0:
            continue
        pole = complex(math.cos(th), math.sin(th))
        # at an exact pole S turns infinite and exp(-S) gives g = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            S += lam * (pole + Z[j]) / (pole - Z[j])
    return np.exp(-S)


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
    if isinstance(phi, InnerSymbolParams):
        g = _ref_inner_g(phi, Z)
        ginf = phi.g_infinity
        return phi.c + phi.r * (g - ginf) / (1.0 - ginf * g)
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
        Z = np.stack([np.exp(-1j * t * math.log(p)) for p in first_primes(phi.d)])
        return _ref_boundary(phi, Z)
    raise TypeError(phi)


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


def _ref_inner_on_circle(phi: InnerSymbolParams, Z: np.ndarray) -> np.ndarray:
    """The reference inner value with g pushed radially onto the unit
    circle.  Near a pole the reference |g| strays from 1 by up to about
    1e-8, through rounding in the real parts of the factors; the
    protocol drops those real parts, so only the angle of g is shared."""
    g = _ref_inner_g(phi, Z)
    g = np.where(g == 0, 0, g / np.where(g == 0, 1, np.abs(g)))
    ginf = phi.g_infinity
    return phi.c + phi.r * (g - ginf) / (1.0 - ginf * g)


def _ref_prime_order(phi: AffineSymbol, Z: np.ndarray) -> np.ndarray:
    """The affine value with its terms added one prime at a time, the
    order the line traces have always used."""
    out = np.full(Z.shape[1], phi.c, dtype=complex)
    for j, cj in enumerate(phi.effective_coeffs()):
        out += cj * Z[j]
    return out


def _torus_block(phi, seed: int, m: int = 4099) -> np.ndarray:
    return sample_characters(SamplePlan(n_samples=m, seed=seed, d=max(phi.d, 1)))


_EXTRA_AFFINE = [
    AffineSymbol(2.0, ()),
    AffineSymbol(1.5 + 0.4j, (0.3, 0.0, 0.5)),
    AffineSymbol(1.5, (0.6, 0.4), twist=(np.exp(0.7j), -1.0)),
]


# --- boundary blocks ------------------------------------------------------

@pytest.mark.parametrize("name", SAMPLEABLE)
def test_boundary_block_matches_reference(name):
    phi = fixtures()[name].symbol
    Z = _torus_block(phi, seed=17)
    got = phi.boundary(Z)
    assert got.shape == (Z.shape[1],)
    ref = _ref_boundary(phi, Z)
    if isinstance(phi, AffineSymbol):
        assert got.tobytes() == _ref_prime_order(phi, Z).tobytes()
        np.testing.assert_allclose(got, ref, rtol=0, atol=4 * np.finfo(float).eps * abs(phi.c))
    elif isinstance(phi, PolynomialSymbol):
        assert got.tobytes() == ref.tobytes()
    else:
        np.testing.assert_allclose(got, _ref_inner_on_circle(phi, Z), rtol=0, atol=1e-12)


@pytest.mark.parametrize("phi", _EXTRA_AFFINE, ids=repr)
def test_affine_boundary_edge_cases(phi):
    Z = _torus_block(phi, seed=5, m=257)
    got = phi.boundary(Z)
    assert got.tobytes() == _ref_prime_order(phi, Z).tobytes()
    np.testing.assert_allclose(got, _ref_boundary(phi, Z), rtol=0, atol=1e-15)


def test_inner_boundary_is_on_the_frame_circle():
    phi = fixtures()["example-7.3"].symbol
    Z = _torus_block(phi, seed=23, m=20000)
    off = np.abs(phi.boundary(Z) - phi.c)
    np.testing.assert_allclose(off, phi.r, rtol=0, atol=1e-14)


def test_inner_boundary_at_exact_pole_takes_radial_limit():
    phi = InnerSymbolParams(lambdas=(0.4, 0.2), thetas=(0.0, 1.0))
    # columns: on the first factor's pole, on the second's, on neither
    Z = np.array([[1.0, -1.0, -1.0], [1.0, complex(math.cos(1.0), math.sin(1.0)), -1.0]])
    with np.errstate(all="raise"):
        got = phi.boundary(Z)
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
        assert trace[:, 1].tobytes() == ref.real.tobytes()
        assert trace[:, 2].tobytes() == ref.imag.tobytes()
    elif isinstance(phi, PolynomialSymbol):
        # n^{-it} is now the product of powers of p^{-it}
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13)
    else:
        Z = np.stack([np.exp(-1j * t * math.log(p)) for p in first_primes(phi.d)])
        np.testing.assert_allclose(got, _ref_inner_on_circle(phi, Z), rtol=0, atol=1e-12)


@pytest.mark.parametrize("phi", _EXTRA_AFFINE, ids=repr)
def test_affine_line_trace_edge_cases(phi):
    trace = curve_trace(phi, -10.0, 30.0, 801)
    ref = _ref_line(phi, trace[:, 0])
    assert trace[:, 1].tobytes() == ref.real.tobytes()
    assert trace[:, 2].tobytes() == ref.imag.tobytes()


# --- JSON forms -----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(fixtures()))
def test_to_jsonable_matches_reference(name):
    sym = fixtures()[name].symbol
    assert sym.to_jsonable() == _ref_jsonable(sym)
