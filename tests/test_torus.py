"""Boundary sampling on the infinite torus: measures, traces, inner factors."""

from __future__ import annotations

import math
import sys
import tracemalloc

import numpy as np
import pytest

from h2comp.affine import AffineSymbol, comp_norm_sq
from h2comp import torus
from h2comp.dseries import Character, DirichletPoly, evaluate
from h2comp.fixtures import (
    get_fixture,
    poly_level_measure,
    poly_shapiro_closed_form,
    single_prime_symbol,
)
from h2comp.torus import (
    InnerSymbolParams,
    SamplePlan,
    boundary_value,
    curve_trace,
    ergodic_measure,
    inner_boundary_modulus,
    inner_truncation_bound,
    measure_E_delta,
    mc_comp_norm_sq,
    mobius_symbol_value,
    sample_characters,
    shapiro_constant,
)

SQ58 = math.sqrt(5.0 / 8.0)


# --- character sampling ---------------------------------------------------

def test_sampling_is_reproducible():
    plan = SamplePlan(n_samples=512, seed=1234, d=3)
    a = sample_characters(plan)
    b = sample_characters(plan)
    assert a.shape == (3, 512)
    assert np.array_equal(a, b)


def test_sampling_is_unimodular():
    Z = sample_characters(SamplePlan(n_samples=1000, seed=9, d=2))
    np.testing.assert_allclose(np.abs(Z), 1.0, atol=1e-12)


def test_sampling_seed_changes_draw():
    a = sample_characters(SamplePlan(n_samples=64, seed=1, d=1))
    b = sample_characters(SamplePlan(n_samples=64, seed=2, d=1))
    assert not np.array_equal(a, b)


def _full_array_draw(plan):
    """One (d, n) draw per coordinate stream, all held at once."""
    out = np.empty((plan.d, plan.n_samples), dtype=complex)
    for j in range(plan.d):
        gen = np.random.Generator(np.random.Philox(key=[plan.seed, j]))
        out[j] = np.exp(1j * gen.uniform(0.0, 2.0 * math.pi, plan.n_samples))
    return out


def test_sampling_matches_one_full_draw_across_blocks():
    for n in (5, torus._CHUNK, torus._CHUNK + 1, 2 * torus._CHUNK + 12345):
        plan = SamplePlan(n_samples=n, seed=2718, d=2)
        assert sample_characters(plan).tobytes() == _full_array_draw(plan).tobytes()


def test_chunked_estimates_match_full_array_route():
    # n straddles a block boundary; the full-array route slices one draw
    n = torus._CHUNK + 4097
    phi = get_fixture("fig1-c").symbol
    f = DirichletPoly({1: 1.0, 2: 0.5 - 0.25j, 3: 0.75j, 6: -0.2})
    plan = SamplePlan(n_samples=n, seed=31, d=phi.d)
    Z = _full_array_draw(plan)
    hits, total, total_sq = 0, 0.0, 0.0
    for i in range(0, n, torus._CHUNK):
        vals = phi.boundary(Z[:, i : i + torus._CHUNK])
        hits += int(np.count_nonzero(np.abs(vals - phi.c) < 0.6 * phi.r))
        v = np.abs(evaluate(f, vals)) ** 2
        total += float(np.sum(v))
        total_sq += float(np.sum(v * v))
    est = hits / n
    assert measure_E_delta(phi, 0.6, plan) == (est, 1.96 * math.sqrt(est * (1.0 - est) / n))
    mean = total / n
    ci = 1.96 * math.sqrt(max(total_sq / n - mean * mean, 0.0) / n)
    assert mc_comp_norm_sq(phi, f, plan) == (mean, ci)


def test_sampled_measure_memory_is_one_block():
    # the full (6, 2^21) character array alone would take 192 MiB
    phi = AffineSymbol(1.5, (1.0 / 6.0,) * 6)
    plan = SamplePlan(n_samples=1 << 21, seed=8, d=6)
    tracemalloc.start()
    try:
        measure_E_delta(phi, 0.5, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2**20


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(n_samples=0, seed=1, d=1)
    with pytest.raises(ValueError):
        SamplePlan(n_samples=10, seed=1, d=0)


# --- boundary values ------------------------------------------------------

def test_boundary_value_extremes():
    phi = AffineSymbol(1.5, (0.6, 0.4))
    assert boundary_value(phi, (1.0, 1.0)) == pytest.approx(phi.c + phi.r)
    assert boundary_value(phi, (-1.0, -1.0)) == pytest.approx(phi.c - phi.r)


def test_boundary_value_triangle():
    rng = np.random.default_rng(17)
    phi = AffineSymbol(1.5, (0.5, 0.3, 0.2))
    for _ in range(50):
        chi = tuple(np.exp(1j * rng.uniform(0, 2 * math.pi, size=3)))
        assert abs(boundary_value(phi, chi) - phi.c) <= phi.r + 1e-12


def test_boundary_value_dim_check():
    phi = AffineSymbol(1.5, (0.5, 0.5))
    with pytest.raises(ValueError):
        boundary_value(phi, (1.0,))


# --- level-set measures ---------------------------------------------------

def test_measure_full_disc_two_primes():
    phi = AffineSymbol(1.5, (0.75, 0.25))
    est, ci = measure_E_delta(phi, 1.0, SamplePlan(n_samples=20000, seed=5, d=2))
    assert est == 1.0  # the boundary set |phi* - c| = r is null
    assert ci == 0.0


def test_poly_level_measure_closed_form():
    assert poly_level_measure(1.0 / math.sqrt(2.0)) == pytest.approx(0.0, abs=1e-15)
    assert poly_level_measure(SQ58) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert poly_level_measure(1.0) == pytest.approx(1.0, rel=1e-12)
    # below the corner the level set is empty
    assert poly_level_measure(0.5) == 0.0


def test_poly_shapiro_closed_form_value():
    expected = (13.0 - 4.0 * math.sqrt(10.0)) / 18.0
    assert poly_shapiro_closed_form(SQ58) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.019493853295915556, rel=1e-12)


def test_measure_matches_closed_form_on_poly_fixture():
    phi = get_fixture("example-7.1").symbol
    plan = SamplePlan(n_samples=200_000, seed=20240817, d=1)
    est, ci = measure_E_delta(phi, SQ58, plan)
    assert abs(est - 1.0 / 3.0) <= max(2.5 * ci, 5e-3)


def test_measure_poly_fixture_corner_is_null():
    phi = get_fixture("example-7.1").symbol
    est, _ = measure_E_delta(phi, 1.0 / math.sqrt(2.0), SamplePlan(50_000, 31, 1))
    assert est <= 1e-4


def test_measure_monotone_in_delta():
    phi = AffineSymbol(1.5, (0.5, 0.5))
    plan = SamplePlan(n_samples=30_000, seed=77, d=2)
    prev = 0.0
    for delta in (0.2, 0.4, 0.6, 0.8, 1.0):
        est, _ = measure_E_delta(phi, delta, plan)
        assert est >= prev - 1e-15  # common random numbers
        prev = est


def test_measure_rotation_invariance():
    # twisting every coordinate by a fixed phase leaves the measure
    # distribution unchanged; two independent seeds must agree within
    # the joint confidence radius
    phi = AffineSymbol(1.5, (0.6, 0.4))
    twisted = AffineSymbol(1.5, (0.6, 0.4), twist=(np.exp(0.9j), np.exp(0.9j)))
    a, ca = measure_E_delta(phi, 0.7, SamplePlan(100_000, 101, 2))
    b, cb = measure_E_delta(twisted, 0.7, SamplePlan(100_000, 202, 2))
    assert abs(a - b) <= ca + cb + 1e-3


def test_measure_validation():
    phi = AffineSymbol(1.5, (0.5, 0.5))
    with pytest.raises(ValueError):
        measure_E_delta(phi, 1.5, SamplePlan(100, 1, 2))
    with pytest.raises(ValueError):
        measure_E_delta(phi, 0.5, SamplePlan(100, 1, 3))  # dim mismatch
    with pytest.raises(ValueError):
        measure_E_delta(AffineSymbol(2.0, ()), 0.5, SamplePlan(100, 1, 1))


def test_shapiro_constant_endpoints():
    phi = AffineSymbol(1.5, (0.5, 0.5))
    plan = SamplePlan(n_samples=10_000, seed=3, d=2)
    assert shapiro_constant(phi, 1.0, plan) == 0.0
    assert shapiro_constant(phi, 0.0, plan) == 0.0


def test_shapiro_constant_poly_fixture():
    phi = get_fixture("example-7.1").symbol
    plan = SamplePlan(n_samples=200_000, seed=4, d=1)
    c = shapiro_constant(phi, SQ58, plan)
    expected = (13.0 - 4.0 * math.sqrt(10.0)) / 18.0
    assert c == pytest.approx(expected, abs=2e-3)


# --- ergodic averages -----------------------------------------------------

def test_ergodic_single_prime_full_disc():
    # the single-prime-powers fixture: |phi(it) - c| < r off a null set,
    # so the grid fraction at delta = 1 is 1 up to a grid artifact
    phi = get_fixture("example-7.1").symbol
    frac = ergodic_measure(phi, 1.0, T=100.0, steps=20_001)
    assert frac == pytest.approx(1.0, abs=1e-3)


def test_ergodic_matches_closed_form_on_poly_fixture():
    phi = get_fixture("example-7.1").symbol
    frac = ergodic_measure(phi, SQ58, T=1e4, steps=200_000)
    assert frac == pytest.approx(1.0 / 3.0, abs=1e-2)


def test_ergodic_agrees_with_mc():
    rng = np.random.default_rng(127)
    for _ in range(5):
        d = int(rng.integers(1, 3))
        raw = rng.uniform(0.2, 1.0, size=d)
        coeffs = tuple(raw / raw.sum() * 0.8)
        phi = AffineSymbol(1.5, coeffs)
        delta = float(rng.uniform(0.3, 0.9))
        steps = 100_000
        grid = ergodic_measure(phi, delta, T=2000.0, steps=steps)
        est, ci = measure_E_delta(phi, delta, SamplePlan(100_000, 7, d))
        assert abs(grid - est) <= max(ci, 5.0 / math.sqrt(steps)) + 5e-3


# --- curve traces ---------------------------------------------------------

def test_curve_trace_shape_and_grid():
    phi = AffineSymbol(1.5, (0.75, 0.25))
    tr = curve_trace(phi, -10.0, 10.0, 400)
    assert tr.shape == (401, 3)
    assert tr[0, 0] == pytest.approx(-10.0)
    assert tr[-1, 0] == pytest.approx(10.0)
    # midpoint of the grid is t = 0, where every prime factor is 1
    assert tr[200, 0] == pytest.approx(0.0, abs=1e-12)
    assert tr[200, 1] == pytest.approx(phi.c.real + phi.r)
    assert tr[200, 2] == pytest.approx(0.0, abs=1e-12)


def test_curve_trace_stays_in_disc():
    phi = AffineSymbol(1.5, (0.5, 0.3, 0.2))
    tr = curve_trace(phi, -50.0, 50.0, 5000)
    mod = np.hypot(tr[:, 1] - phi.c.real, tr[:, 2] - phi.c.imag)
    assert np.max(mod) <= phi.r + 1e-12


def test_curve_trace_fills_annulus():
    # light version of the figure-scale run: moduli approach the closed
    # annulus radii as the trace lengthens
    for name, r0 in (("fig1-a", 0.5), ("fig1-b", 0.0), ("fig1-c", 1.0 / 3.0)):
        phi = get_fixture(name).symbol
        tr = curve_trace(phi, -100.0, 100.0, 100_000)
        mod = np.hypot(tr[:, 1] - phi.c.real, tr[:, 2] - phi.c.imag)
        assert float(mod.min()) == pytest.approx(r0, abs=2e-2)
        assert float(mod.max()) == pytest.approx(phi.r, abs=2e-2)


def test_curve_trace_resolution_refines_extremes():
    phi = get_fixture("fig1-a").symbol
    errs = []
    for steps in (2_000, 20_000, 200_000):
        tr = curve_trace(phi, -200.0, 200.0, steps)
        mod = np.hypot(tr[:, 1] - phi.c.real, tr[:, 2] - phi.c.imag)
        errs.append(abs(float(mod.min()) - 0.5))
    assert errs[-1] <= errs[0] + 1e-12
    assert errs[-1] < 1e-2


# --- Monte-Carlo composition norms ----------------------------------------

def test_mc_comp_norm_matches_exact():
    rng = np.random.default_rng(131)
    cases = [
        (AffineSymbol(1.5, (1.0,)), DirichletPoly.monomial(2, 1.0)),
        (
            AffineSymbol(1.5, (0.6, 0.4)),
            DirichletPoly.one() + DirichletPoly.monomial(2, 0.5),
        ),
        (
            AffineSymbol(2.0, (0.5, 0.25)),
            DirichletPoly.monomial(2, 1.0) + DirichletPoly.monomial(3, 1.0j),
        ),
    ]
    for phi, f in cases:
        plan = SamplePlan(n_samples=60_000, seed=int(rng.integers(1, 1 << 31)), d=phi.d)
        est, ci = mc_comp_norm_sq(phi, f, plan)
        exact = comp_norm_sq(phi, f)
        assert abs(est - exact) <= 2.0 * ci + 1e-9


def test_mc_comp_norm_rejects_outside_class():
    phi = AffineSymbol.unchecked(1.0, (1.0,))
    with pytest.raises(ValueError):
        mc_comp_norm_sq(phi, DirichletPoly.one(), SamplePlan(100, 1, 1))


# --- inner-factor symbols -------------------------------------------------

def test_inner_params_validation():
    with pytest.raises(ValueError):
        InnerSymbolParams(lambdas=(0.5,), thetas=())
    with pytest.raises(ValueError):
        InnerSymbolParams(lambdas=(-0.1,), thetas=(0.0,))
    with pytest.raises(ValueError):
        InnerSymbolParams(lambdas=(0.5,), thetas=(0.0,), c=1.0, r=1.0)


def test_inner_modulus_deep_limit():
    params = InnerSymbolParams(lambdas=(0.5,), thetas=(0.0,))
    chi = Character((1.0,))
    val = inner_boundary_modulus(params, chi, sigma=40.0)
    assert val == pytest.approx(math.exp(-0.5), abs=1e-6)
    assert params.g_infinity == pytest.approx(math.exp(-0.5))


def test_inner_modulus_boundary_single_factor():
    params = InnerSymbolParams(lambdas=(0.5,), thetas=(0.0,))
    val = inner_boundary_modulus(params, Character((-1.0,)), sigma=1e-8)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_inner_modulus_boundary_random_characters():
    # keep every coordinate a fixed arc away from its factor's pole:
    # the deficit scales like sigma / dist^2, so pole-hugging draws
    # would swamp the limit
    params = get_fixture("example-7.3").symbol
    rng = np.random.default_rng(137)
    thetas = np.asarray(params.thetas)
    for _ in range(10):
        offs = rng.uniform(0.1, 2 * math.pi - 0.1, size=params.d)
        chi = tuple(np.exp(1j * (thetas + offs)))
        val = inner_boundary_modulus(params, chi, sigma=1e-8)
        assert val == pytest.approx(1.0, abs=1e-5)


def test_inner_modulus_ladder_is_bounded_by_one():
    params = get_fixture("example-7.3").symbol
    rng = np.random.default_rng(139)
    chi = tuple(np.exp(1j * rng.uniform(0.1, 6.0, size=params.d)))
    for sigma in (10.0, 1.0, 0.1, 0.01, 1e-4, 1e-8):
        assert inner_boundary_modulus(params, chi, sigma) <= 1.0 + 1e-9


def test_inner_pole_guard():
    params = InnerSymbolParams(lambdas=(0.5,), thetas=(0.0,))
    with pytest.raises(ValueError):
        # chi aligned with the pole and essentially on the boundary
        inner_boundary_modulus(params, Character((1.0,)), sigma=1e-14)


def test_inner_truncation_bound_decreases():
    params = get_fixture("example-7.3").symbol
    assert params.lambda_tail > 0.0
    vals = [inner_truncation_bound(params, s) for s in (0.01, 0.1, 1.0, 10.0)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    # deep inside, each omitted factor costs at most 2 lambda
    assert vals[-1] == pytest.approx(2.0 * params.lambda_tail, rel=0.1)


def test_mobius_symbol_deep_value_is_center():
    params = get_fixture("example-7.3").symbol
    chi = tuple(np.exp(1j * np.linspace(0.3, 5.0, params.d)))
    val = mobius_symbol_value(params, chi, sigma=45.0)
    assert val == pytest.approx(params.c, abs=1e-6)


def test_mobius_symbol_stays_in_frame():
    params = get_fixture("example-7.3").symbol
    rng = np.random.default_rng(149)
    for sigma in (5.0, 0.5, 0.05):
        chi = tuple(np.exp(1j * rng.uniform(0.05, 6.2, size=params.d)))
        val = mobius_symbol_value(params, chi, sigma)
        assert abs(val - params.c) < params.r + 1e-12


def test_mobius_symbol_boundary_modulus():
    params = get_fixture("example-7.3").symbol
    rng = np.random.default_rng(151)
    for _ in range(5):
        chi = tuple(np.exp(1j * rng.uniform(0.05, 6.2, size=params.d)))
        val = mobius_symbol_value(params, chi, sigma=1e-8)
        assert abs(val - params.c) / params.r == pytest.approx(1.0, abs=1e-5)


# --- one exponent-sum kernel ----------------------------------------------

def _ref_boundary(params: InnerSymbolParams, Z: np.ndarray) -> np.ndarray:
    """An independent boundary route: the imaginary part of each
    factor, summed as a real array."""
    A = np.zeros(Z.shape[1])
    at_pole = np.zeros(Z.shape[1], dtype=bool)
    for j, (lam, th) in enumerate(zip(params.lambdas, params.thetas)):
        if lam == 0.0:
            continue
        pole = complex(math.cos(th), math.sin(th))
        gap = pole - Z[j]
        hit = gap == 0
        at_pole |= hit
        A += lam * ((pole + Z[j]) / np.where(hit, 1.0, gap)).imag
    g = np.where(at_pole, 0.0, np.exp(-1j * A))
    ginf = params.g_infinity
    return params.c + params.r * (g - ginf) / (1.0 - ginf * g)


def test_inner_boundary_block_keeps_its_bits():
    params = get_fixture("example-7.3").symbol
    Z = sample_characters(SamplePlan(n_samples=4096, seed=61, d=params.d))
    # one column exactly at a pole of factor 2, one at every pole at once
    Z[2, 17] = complex(math.cos(params.thetas[2]), math.sin(params.thetas[2]))
    Z[:, 300] = [complex(math.cos(th), math.sin(th)) for th in params.thetas]
    out = params.boundary(Z)
    assert out.tobytes() == _ref_boundary(params, Z).tobytes()
    # g takes its radial limit 0 at the poles, so phi* = c - r g_inf
    limit = params.c - params.r * params.g_infinity
    assert out[17] == limit and out[300] == limit


@pytest.mark.parametrize("fn", [inner_boundary_modulus, mobius_symbol_value])
@pytest.mark.parametrize("offset", [0.0, 1e-13])
def test_near_pole_rejected_inside_the_disc(fn, offset):
    params = InnerSymbolParams(lambdas=(0.5, 0.3), thetas=(0.0, 2.0))
    chi = (np.exp(1j * (0.7)), np.exp(1j * (2.0 + offset)))
    with pytest.raises(ValueError, match="coordinate 1 is within 1e-12"):
        fn(params, chi, 1e-14)
    # the same character one step further in is accepted
    assert math.isfinite(abs(fn(params, chi, 1e-6)))


# --- column slices on every CPU ---------------------------------------------
#
# The references below are the serial route the slices replaced: every
# character through np.exp, one whole block at a time.

F5 = DirichletPoly({1: 1.0, 2: 0.5 - 0.25j, 3: 0.75j, 5: 0.3 + 0.1j, 6: -0.2})
SLICED_FIXTURES = ["example-7.1", "fig1-c", "example-7.3"]


def _serial_blocks(plan):
    gens = [np.random.Generator(np.random.Philox(key=[plan.seed, j])) for j in range(plan.d)]
    for i in range(0, plan.n_samples, torus._CHUNK):
        m = min(torus._CHUNK, plan.n_samples - i)
        yield np.stack([np.exp(1j * gen.uniform(0.0, 2.0 * math.pi, m)) for gen in gens])


def _serial_line_values(phi, t):
    primes = torus.first_primes(max(phi.d, 1))
    return phi.boundary(np.stack([np.exp(-1j * t * math.log(p)) for p in primes]))


def _serial_measure(phi, delta, plan):
    hits = 0
    for Z in _serial_blocks(plan):
        hits += int(np.count_nonzero(np.abs(phi.boundary(Z) - phi.c) < delta * phi.r))
    est = hits / plan.n_samples
    return est, 1.96 * math.sqrt(max(est * (1.0 - est), 0.0) / plan.n_samples)


def _serial_mc(phi, f, plan):
    total, total_sq = 0.0, 0.0
    for Z in _serial_blocks(plan):
        v = np.abs(evaluate(f, phi.boundary(Z))) ** 2
        total += float(np.sum(v))
        total_sq += float(np.sum(v * v))
    mean = total / plan.n_samples
    var = max(total_sq / plan.n_samples - mean * mean, 0.0)
    return mean, 1.96 * math.sqrt(var / plan.n_samples)


def _serial_curve(phi, t_min, t_max, steps):
    t = np.linspace(t_min, t_max, steps + 1)
    out = np.empty((t.size, 3))
    out[:, 0] = t
    for i in range(0, t.size, torus._CHUNK):
        vals = _serial_line_values(phi, t[i : i + torus._CHUNK])
        out[i : i + torus._CHUNK, 1] = vals.real
        out[i : i + torus._CHUNK, 2] = vals.imag
    return out


def _serial_ergodic(phi, delta, T, steps):
    t = np.linspace(-T, T, steps)
    hits = 0
    for i in range(0, t.size, torus._CHUNK):
        vals = _serial_line_values(phi, t[i : i + torus._CHUNK])
        hits += int(np.count_nonzero(np.abs(vals - phi.c) < delta * phi.r))
    return hits / t.size


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.fixture
def pool_size(monkeypatch):
    """Set the worker count; a fresh pool of that size is made on first
    use and shut down afterwards."""
    monkeypatch.setattr(torus, "_pool", None)
    yield lambda n: monkeypatch.setattr(torus, "_pool_size", lambda: n)
    if torus._pool is not None:
        torus._pool.shutdown()


@pytest.mark.parametrize("name", SLICED_FIXTURES)
def test_sliced_estimates_match_serial_route(name):
    # 2^19 + 4097 columns: one full block and one short one, each cut
    # into slices; 5 terms give dseries.evaluate chunks of 419,430 rows,
    # which no slice boundary matches
    phi = get_fixture(name).symbol
    plan = SamplePlan(n_samples=torus._CHUNK + 4097, seed=47, d=phi.d)
    for delta in (0.5, 0.9):
        assert _bits(measure_E_delta(phi, delta, plan)) == _bits(_serial_measure(phi, delta, plan))
    if name != "example-7.3":  # Monte Carlo norms need a bounded-class symbol
        assert _bits(mc_comp_norm_sq(phi, F5, plan)) == _bits(_serial_mc(phi, F5, plan))


@pytest.mark.parametrize("name", SLICED_FIXTURES)
def test_sliced_line_values_match_serial_route(name):
    phi = get_fixture(name).symbol
    steps = torus._CHUNK + 70_000  # crosses slice and block boundaries; t = 0 is on the grid
    out = curve_trace(phi, -300.0, 300.0, steps)
    assert 0.0 in out[:, 0]
    assert out.tobytes() == _serial_curve(phi, -300.0, 300.0, steps).tobytes()
    assert ergodic_measure(phi, 0.7, 250.0, steps + 1) == _serial_ergodic(phi, 0.7, 250.0, steps + 1)


def test_line_characters_keep_their_signed_zeros():
    class Identity:  # boundary values = the first character coordinate
        c, r, d = 0j, 1.0, 1

        def boundary(self, Z):
            return Z[0].copy()

    t = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, math.pi, -1e4, 3e5])
    assert torus._line_values(Identity(), t).tobytes() == _serial_line_values(Identity(), t).tobytes()


def test_results_do_not_depend_on_worker_count(pool_size):
    phi = get_fixture("fig1-b").symbol
    inner = get_fixture("example-7.3").symbol
    plan = SamplePlan(n_samples=3 * torus._SLICE + 77, seed=5, d=phi.d)
    inner_plan = SamplePlan(n_samples=2 * torus._SLICE + 9, seed=6, d=inner.d)

    def run():
        from h2comp.cli import _inner_rows
        return (
            sample_characters(plan).tobytes(),
            measure_E_delta(phi, 0.8, plan),
            mc_comp_norm_sq(phi, F5, plan),
            curve_trace(phi, -50.0, 50.0, 2 * torus._SLICE + 3).tobytes(),
            ergodic_measure(phi, 0.8, 50.0, 2 * torus._SLICE + 3),
            _inner_rows(inner, inner_plan, (0.1, 1e-8)),
        )

    pool_size(1)
    serial = run()
    assert torus._pool is None  # one worker: the slices ran inline
    pool_size(3)  # more workers than a 2-CPU host has, switching often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run() == serial
    finally:
        sys.setswitchinterval(interval)
    assert torus._pool is not None and torus._pool._max_workers == 3


def test_worker_error_reaches_the_caller(pool_size, monkeypatch, capsys):
    import threading

    from h2comp import cli

    pool_size(2)
    raised_in = []
    boundary = InnerSymbolParams.boundary

    def failing(self, Z):
        if Z.shape[1] < torus._SLICE:  # the short last slice
            raised_in.append(threading.current_thread())
            raise ValueError("boundary failed in a slice")
        return boundary(self, Z)

    monkeypatch.setattr(InnerSymbolParams, "boundary", failing)
    phi = get_fixture("example-7.3").symbol
    plan = SamplePlan(n_samples=2 * torus._SLICE + 5, seed=1, d=phi.d)
    with pytest.raises(ValueError, match="boundary failed in a slice"):
        measure_E_delta(phi, 0.5, plan)
    assert raised_in and raised_in[0] is not threading.main_thread()
    argv = ["measure", "--fixture", "example-7.3", "--delta", "0.5", "--samples", str(plan.n_samples)]
    assert cli.main(argv) == 1
    cap = capsys.readouterr()
    assert cap.out == "" and "Traceback" not in cap.err
    assert cap.err.strip().splitlines() == ["error: boundary failed in a slice"]


def test_sampling_works_in_a_forked_child(pool_size):
    import multiprocessing

    pool_size(2)
    phi = get_fixture("fig1-c").symbol
    plan = SamplePlan(n_samples=3 * torus._SLICE, seed=12, d=phi.d)
    expected = measure_E_delta(phi, 0.7, plan)  # the pool has threads now
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def child():
        send.send(measure_E_delta(phi, 0.7, plan))

    proc = ctx.Process(target=child)
    proc.start()
    try:
        assert recv.poll(60), "forked child did not report"
        assert recv.recv() == expected
    finally:
        proc.join(10)
        if proc.is_alive():
            proc.kill()
    assert proc.exitcode == 0


def test_exponent_sum_real_matches_mpmath():
    import mpmath as mp

    params = get_fixture("example-7.3").symbol
    rng = np.random.default_rng(2024)
    u = rng.uniform(0.0, 2.0 * math.pi, size=(params.d, 8))
    Z = np.exp(1j * u)
    primes = torus.first_primes(params.d)
    with mp.workdps(40):
        for sigma in (1.0, 1e-2, 1e-4, 1e-8, 1e-12):
            got = params.exponent_sum_real(Z, sigma)
            for i in range(Z.shape[1]):
                ref = mp.mpf(0)
                for j, (lam, th) in enumerate(zip(params.lambdas, params.thetas)):
                    pole = mp.expj(th)
                    z = mp.power(primes[j], -mp.mpf(sigma)) * mp.expj(u[j, i])
                    ref += lam * ((pole + z) / (pole - z)).real
                assert float(abs(got[i] - ref) / ref) < 1e-12, (sigma, i)
    with pytest.raises(ValueError, match="sigma must be positive"):
        params.exponent_sum_real(Z, 0.0)
