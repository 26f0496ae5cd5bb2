"""Boundary sampling on the infinite torus: measures, traces, inner factors."""

from __future__ import annotations

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from h2comp.affine import AffineSymbol, comp_norm_sq
from h2comp import torus
from h2comp.dseries import DirichletPoly, evaluate
from h2comp.fixtures import (
    get_fixture,
    poly_level_measure,
    poly_shapiro_closed_form,
    single_prime_symbol,
)
from h2comp.torus import (
    InnerSymbolParams,
    SamplePlan,
    curve_trace,
    ergodic_measure,
    inner_boundary_modulus,
    inner_truncation_bound,
    measure_E_delta,
    mc_comp_norm_sq,
    mobius_symbol_value,
    shapiro_constant,
)

SQ58 = math.sqrt(5.0 / 8.0)


# --- character sampling ---------------------------------------------------

def _all_characters(plan):
    """Every column of a plan's characters, drawn as one block."""
    return torus._characters(plan, 0, plan.n_samples)


def test_sampling_is_reproducible():
    plan = SamplePlan(n_samples=512, seed=1234, d=3)
    a = _all_characters(plan)
    b = _all_characters(plan)
    assert a.shape == (3, 512)
    assert np.array_equal(a, b)


def test_sampling_is_unimodular():
    Z = _all_characters(SamplePlan(n_samples=1000, seed=9, d=2))
    np.testing.assert_allclose(np.abs(Z), 1.0, atol=1e-12)


def test_sampling_seed_changes_draw():
    a = _all_characters(SamplePlan(n_samples=64, seed=1, d=1))
    b = _all_characters(SamplePlan(n_samples=64, seed=2, d=1))
    assert not np.array_equal(a, b)


def _full_phase_draw(plan):
    """One (d, n) draw of phases per coordinate stream, all held at once."""
    out = np.empty((plan.d, plan.n_samples))
    for j in range(plan.d):
        gen = np.random.Generator(np.random.Philox(key=[plan.seed, j]))
        out[j] = gen.uniform(0.0, 2.0 * math.pi, plan.n_samples)
    return out


def _characters_of(phases):
    """The characters of a block of phases, all at once, through the one
    character helper."""
    out = np.empty(phases.shape, dtype=complex)
    torus._unimodular(phases, out)
    return out


# 2 ulp of 1: how far a character may lie from e^{i theta} at its double phase
CHAR_ATOL = 4.44e-16

# eight column slices (2^19 columns): the block of the serial references
# below, and the grid sizes that cross many slice boundaries
_WIDE = 8 * torus._SLICE


def _mp_characters(phases):
    """e^{i theta} at 30 digits on the same double phases, rounded once."""
    import mpmath as mp

    flat = np.asarray(phases, dtype=float).reshape(-1)
    out = np.empty(flat.size, dtype=complex)
    with mp.workdps(30):
        for i, x in enumerate(flat):
            out[i] = complex(mp.expj(mp.mpf(float(x))))
    return out.reshape(np.shape(phases))


def _assert_characters_exact_to(got, phases):
    ref = _mp_characters(phases)
    np.testing.assert_allclose(got.real, ref.real, rtol=0, atol=CHAR_ATOL)
    np.testing.assert_allclose(got.imag, ref.imag, rtol=0, atol=CHAR_ATOL)


def test_sampling_matches_one_full_draw_across_blocks():
    for n in (5, _WIDE, _WIDE + 1, 2 * _WIDE + 12345):
        plan = SamplePlan(n_samples=n, seed=2718, d=2)
        phases = _full_phase_draw(plan)
        got = _all_characters(plan)
        assert got.tobytes() == _characters_of(phases).tobytes()
        _assert_characters_exact_to(got[:, ::211], phases[:, ::211])


def test_characters_start_at_their_counter_offset():
    # each slice opens every stream at counter lo // 4, skipping the
    # columns before lo; the last range is the short last slice
    n = 2 * _WIDE + 12345
    plan = SamplePlan(n_samples=n, seed=2718, d=6)
    phases = _full_phase_draw(plan)
    full = _characters_of(phases)
    _assert_characters_exact_to(full[:, ::257], phases[:, ::257])
    last = n - n % torus._SLICE
    for lo, hi in [
        (0, 1),
        (0, torus._SLICE),
        (4, torus._SLICE),
        (torus._SLICE, 2 * torus._SLICE),
        (_WIDE + torus._SLICE, _WIDE + 2 * torus._SLICE),
        (last, n),
    ]:
        assert torus._characters(plan, lo, hi).tobytes() == full[:, lo:hi].tobytes(), (lo, hi)
        assert torus._phases(plan, lo, hi).tobytes() == phases[:, lo:hi].tobytes(), (lo, hi)


def test_characters_keep_every_bit_of_a_64_bit_seed():
    # a list key [seed, j] turns into float64 once seed >= 2^63: seeds
    # 2^63 and 2^63 + 1 then drew the same phases, and 2^64 - 1 warned
    def draw(seed):
        return torus._characters(SamplePlan(n_samples=8, seed=seed, d=2), 0, 8)

    assert not np.array_equal(draw(2**63), draw(2**63 + 1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        draw(2**64 - 1)
    assert caught == []


def test_chunked_estimates_match_full_array_route():
    # n ends in a short slice; the full-array route slices one draw
    n = _WIDE + 4097
    phi = get_fixture("fig1-c").symbol
    f = DirichletPoly({1: 1.0, 2: 0.5 - 0.25j, 3: 0.75j, 6: -0.2})
    plan = SamplePlan(n_samples=n, seed=31, d=phi.d)
    theta = _full_phase_draw(plan)
    hits, parts = 0, []
    for i in range(0, n, _WIDE):
        vals = phi.boundary(theta[:, i : i + _WIDE])
        hits += int(np.count_nonzero(np.abs(vals - phi.c) < 0.6 * phi.r))
        parts += _slice_moments(np.abs(evaluate(f, vals)) ** 2)
    est = hits / n
    assert measure_E_delta(phi, 0.6, plan) == (est, 1.96 * math.sqrt(est * (1.0 - est) / n))
    _, mean, m2 = torus._merge_moments(parts)
    ci = 1.96 * math.sqrt(m2 / n / n)
    assert mc_comp_norm_sq(phi, f, plan) == (mean, ci)


@pytest.mark.parametrize("n", [1 << 16, 3 * torus._SLICE + 5])
def test_mc_variance_does_not_cancel(n):
    # |f o phi|^2 is about 1e12 and varies by about 1e3: E[v^2] - mean^2
    # cancels to 0 there, while the slice moments keep its digits
    phi = get_fixture("fig1-a").symbol
    f = DirichletPoly({1: 1e6, 2: 1e-3})
    plan = SamplePlan(n_samples=n, seed=404, d=phi.d)
    est, ci = mc_comp_norm_sq(phi, f, plan)
    v = np.abs(evaluate(f, phi.boundary(_full_phase_draw(plan)))) ** 2
    mean = float(np.sum(v)) / n
    ref = 1.96 * math.sqrt(float(np.sum((v - mean) ** 2)) / n / n)
    assert est == pytest.approx(mean, rel=1e-15)
    assert ci > 0.0
    assert ci == pytest.approx(ref, rel=1e-6)


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
    # chi = (1, 1) at phases 0 and chi = (-1, -1) at phases pi
    phi = AffineSymbol(1.5, (0.6, 0.4))
    vals = phi.boundary(np.array([[0.0, math.pi], [0.0, math.pi]]))
    assert vals[0] == pytest.approx(phi.c + phi.r)
    assert vals[1] == pytest.approx(phi.c - phi.r)


def test_boundary_value_triangle():
    rng = np.random.default_rng(17)
    phi = AffineSymbol(1.5, (0.5, 0.3, 0.2))
    vals = phi.boundary(rng.uniform(0, 2 * math.pi, size=(3, 50)))
    assert np.all(np.abs(vals - phi.c) <= phi.r + 1e-12)


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


@pytest.mark.parametrize("delta", [-0.1, 1.5, math.nan, math.inf])
def test_shapiro_constant_rejects_delta_outside_unit_interval(delta):
    phi = AffineSymbol(1.5, (0.5, 0.5))
    with pytest.raises(ValueError, match="delta must lie in"):
        shapiro_constant(phi, delta, SamplePlan(100, 1, 2))


def test_shapiro_constant_validates_before_the_delta_one_shortcut():
    # the weight at delta = 1 is 0, but the arguments are checked first
    phi = get_fixture("fig1-b").symbol
    for delta in (1.0, 0.5):
        with pytest.raises(ValueError, match="plan has d=3"):
            shapiro_constant(phi, delta, SamplePlan(100, 1, 3))
        with pytest.raises(ValueError, match="nondegenerate frame radius"):
            shapiro_constant(AffineSymbol(2.0, ()), delta, SamplePlan(100, 1, 1))


def test_shapiro_constant_poly_fixture():
    phi = get_fixture("example-7.1").symbol
    plan = SamplePlan(n_samples=200_000, seed=4, d=1)
    c = shapiro_constant(phi, SQ58, plan)
    expected = (13.0 - 4.0 * math.sqrt(10.0)) / 18.0
    assert c == pytest.approx(expected, abs=2e-3)


# --- the stored level-set measure ----------------------------------------

@pytest.fixture
def phase_draws(monkeypatch):
    """Count the slices of phases drawn, with nothing stored to start."""
    monkeypatch.setattr(torus, "_last_measure", None)
    calls = []
    draw = torus._phases
    monkeypatch.setattr(torus, "_phases", lambda *a: calls.append(a) or draw(*a))
    return calls


def test_shapiro_constant_reads_the_measure_just_made(phase_draws, monkeypatch):
    phi = get_fixture("fig1-b").symbol
    plan = SamplePlan(n_samples=2 * torus._SLICE + 5, seed=8, d=phi.d)
    est, _ = measure_E_delta(phi, 0.8, plan)
    assert len(phase_draws) == 3
    phase_draws.clear()
    stored = shapiro_constant(phi, 0.8, plan)
    assert phase_draws == []
    monkeypatch.setattr(torus, "_last_measure", None)
    fresh = shapiro_constant(phi, 0.8, plan)
    assert len(phase_draws) == 3
    assert _bits(stored) == _bits(fresh) == _bits(torus._shapiro_weight(0.8) * est)


def test_shapiro_constant_samples_for_other_arguments(phase_draws):
    phi = get_fixture("fig1-b").symbol
    plan = SamplePlan(n_samples=1000, seed=8, d=phi.d)
    twin = AffineSymbol(phi.c, phi.coeffs, twist=phi.twist)
    assert twin == phi and twin is not phi
    for args in [
        (phi, 0.7, plan),
        (phi, 0.8, SamplePlan(1000, 9, phi.d)),
        (phi, 0.8, SamplePlan(1001, 8, phi.d)),
        (twin, 0.8, plan),
    ]:
        measure_E_delta(phi, 0.8, plan)
        phase_draws.clear()
        shapiro_constant(*args)
        assert len(phase_draws) == 1, args
    # a second identical measure samples again
    measure_E_delta(phi, 0.8, plan)
    phase_draws.clear()
    measure_E_delta(phi, 0.8, plan)
    assert len(phase_draws) == 1


def test_failed_sweep_stores_nothing(phase_draws, monkeypatch):
    phi = get_fixture("example-7.3").symbol
    plan = SamplePlan(n_samples=2 * torus._SLICE + 5, seed=1, d=phi.d)
    with pytest.raises(ValueError):
        measure_E_delta(phi, 1.5, plan)
    assert torus._last_measure is None

    def failing(self, theta):
        raise ValueError("boundary failed in a slice")

    with monkeypatch.context() as m:
        m.setattr(InnerSymbolParams, "boundary", failing)
        with pytest.raises(ValueError, match="boundary failed"):
            measure_E_delta(phi, 0.5, plan)
    assert torus._last_measure is None
    phase_draws.clear()
    shapiro_constant(phi, 0.5, plan)
    assert len(phase_draws) == 3


def test_stored_measure_under_thread_contention(monkeypatch):
    import threading

    monkeypatch.setattr(torus, "_last_measure", None)
    # slices below the pool's threshold, so every call runs inline
    cases = [
        (get_fixture(name).symbol, delta, seed)
        for name in ("fig1-a", "fig1-b", "example-7.1")
        for delta, seed in ((0.6, 1), (0.9, 2))
    ]
    cases = [(phi, delta, SamplePlan(512, seed, phi.d)) for phi, delta, seed in cases]
    expected = [torus._shapiro_weight(d) * measure_E_delta(phi, d, plan).estimate for phi, d, plan in cases]
    wrong = []

    def worker(k):
        for i in range(200):
            phi, delta, plan = cases[(k + i) % len(cases)]
            if i % 2:
                measure_E_delta(phi, delta, plan)
            got = shapiro_constant(phi, delta, plan)
            if got != expected[(k + i) % len(cases)]:
                wrong.append((k, i, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


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


def test_mc_ci95_is_a_95_percent_interval():
    # z = (est - series) / (ci95 / 1.96) over seeded runs with 5-term f:
    # its spread is 1, and |z| > 1.96 happens 5% of the time.  The share
    # band [2, 21] of 200 misses a Binomial(200, 0.05) count with
    # probability under 1e-3.
    rng = np.random.default_rng(20261020)
    z = []
    for i in range(200):
        phi = get_fixture(("fig1-a", "fig1-b", "fig1-c")[i % 3]).symbol
        support = [1, *(int(n) for n in rng.choice(np.arange(2, 13), 4, replace=False))]
        f = DirichletPoly({n: complex(rng.normal(), rng.normal()) for n in support})
        plan = SamplePlan(n_samples=8192, seed=int(rng.integers(0, 2**63)), d=phi.d)
        est, ci = mc_comp_norm_sq(phi, f, plan)
        z.append((est - comp_norm_sq(phi, f)) / (ci / 1.96))
    z = np.array(z)
    assert 0.85 <= z.std() <= 1.15
    assert 2 <= np.count_nonzero(np.abs(z) > 1.96) <= 21


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
    val = inner_boundary_modulus(params, (1.0,), sigma=40.0)
    assert val == pytest.approx(math.exp(-0.5), abs=1e-6)
    assert params.g_infinity == pytest.approx(math.exp(-0.5))


def test_inner_modulus_boundary_single_factor():
    params = InnerSymbolParams(lambdas=(0.5,), thetas=(0.0,))
    val = inner_boundary_modulus(params, (-1.0,), sigma=1e-8)
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
        inner_boundary_modulus(params, (1.0,), sigma=1e-14)


@pytest.mark.parametrize("fn", [inner_boundary_modulus, mobius_symbol_value])
@pytest.mark.parametrize("chi, message", [
    ((2.0,) * 6, "not unimodular"),
    ((0.5j,) * 6, "not unimodular"),
    ((math.nan,) * 6, "not unimodular"),
    ((1.0,) * 5, "symbol needs 6"),
], ids=["two", "half-i", "nan", "short"])
def test_characters_off_the_torus_rejected(fn, chi, message):
    # the closed form of Re S assumes |chi_j| = 1: off the circle it
    # returns a modulus below 1 that belongs to no point of the symbol
    params = get_fixture("example-7.3").symbol
    with pytest.raises(ValueError, match=message):
        fn(params, chi, 0.1)


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


def test_mobius_symbol_value_near_a_pole_matches_mpmath():
    # the column of `inner-check --samples 500 --seed 9` with the largest
    # Re S at sigma = 1e-6: factor 5 is 5.0e-4 from its pole, so S = 0.48
    # - 99.5i, and Re S cancels in the complex quotient
    import mpmath as mp

    params = get_fixture("example-7.3").symbol
    plan = SamplePlan(n_samples=500, seed=9, d=params.d)
    sigma = 1e-6
    Z = torus._characters(plan, 0, plan.n_samples)
    col = int(np.argmax(params.exponent_sum_real(Z, sigma)))
    assert col == 45
    phases = torus._phases(plan, 0, plan.n_samples)[:, col]
    primes = torus.first_primes(params.d)
    with mp.workdps(30):
        S = mp.mpc(0)
        for lam, th, p, u in zip(params.lambdas, params.thetas, primes, phases):
            pole, z = mp.expj(th), mp.expj(float(u)) * mp.power(p, -mp.mpf(sigma))
            S += lam * (pole + z) / (pole - z)
        g, ginf = mp.exp(-S), mp.exp(-mp.fsum(params.lambdas))
        ref = complex(params.c + params.r * (g - ginf) / (1 - ginf * g))
    val = mobius_symbol_value(params, Z[:, col], sigma)
    # what is left is Im S: rounding the pole e^{4i} and z_5 across the
    # gap costs about 8e-12 there, and it turns g along the frame circle
    assert abs(val.imag - ref.imag) < 5e-13
    assert abs(val - ref) < 6.5e-12


# --- the inner boundary kernel ----------------------------------------------

def _ref_boundary(params: InnerSymbolParams, theta: np.ndarray) -> np.ndarray:
    """The boundary kernel written out plainly: lambda / tan of each half
    difference, `_cot_turns` near a pole or on a row past one turn, and
    the frame in half-angle form."""
    A = np.zeros(theta.shape[1])
    at_pole = np.zeros(theta.shape[1], dtype=bool)
    for lam, th, phase in zip(params.lambdas, params.thetas, theta):
        gap = phase - th
        t = np.tan(0.5 * gap)
        near = np.abs(t) < 2.0**-7
        if not np.all(np.abs(gap) <= 2.0 * math.pi):
            near[:] = True
        term = lam / np.where(near, 1.0, t)
        term[near], pole = torus._cot_turns(lam, th, phase[near])
        at_pole[np.flatnonzero(near)[pole]] = True
        A = A + term
    ginf = params.g_infinity
    # the frame of e^{-iA}: c + r e^{-iB}, tan(B/2) = k tan(A/2)
    v = np.tan(0.5 * A) * ((1.0 + ginf) / (1.0 - ginf))
    h = 2.0 / (1.0 + v * v)
    out = np.empty(theta.shape[1], dtype=complex)
    out.real = (h - 1.0) * params.r + params.c.real
    out.imag = v * h * -params.r + params.c.imag
    out[at_pole] = params.c - params.r * ginf
    return out


def test_inner_boundary_block_keeps_its_bits():
    params = get_fixture("example-7.3").symbol
    theta = torus._phases(SamplePlan(n_samples=4096, seed=61, d=params.d), 0, 4096)
    # one column exactly at a pole of factor 2, one at every pole at once,
    # and columns 1e-9 and 1e-12 off a pole on either side
    theta[2, 17] = params.thetas[2]
    theta[:, 300] = params.thetas
    theta[1, 400:404] = params.thetas[1] + np.array([1e-9, -1e-9, 1e-12, -1e-12])
    theta[0, 500:502] = 2.0 * math.pi - np.array([1e-9, 1e-12])
    out = params.boundary(theta)
    assert out.tobytes() == _ref_boundary(params, theta).tobytes()
    # g takes its radial limit 0 at the poles, so phi* = c - r g_inf
    limit = params.c - params.r * params.g_infinity
    assert out[17] == limit and out[300] == limit
    # a line trace: every row but the first passes one turn
    t = np.linspace(-40.0, 40.0, 1001)
    theta = np.stack([0.0 - t * math.log(p) for p in torus.first_primes(params.d)])
    assert params.boundary(theta).tobytes() == _ref_boundary(params, theta).tobytes()


def test_cot_turns_matches_mpmath():
    # lambda cot((phase - theta)/2) modulo 2 pi: phases near both poles
    # of the half angle, inexact differences past one turn, and an
    # exact pole, which gets term 0
    import mpmath as mp

    lam, th = 0.4, 1.0
    offs = [1e-3, 1e-6, 1e-9, 1e-12, 1e-15]
    phase = np.array(
        [th + o for o in offs] + [th - o for o in offs] + [th + 2.0 * math.pi - o for o in offs]
        + [th - 2.0 * math.pi + o for o in offs] + [123.456, -987.654, 0.5 + 40.0 * math.pi, th]
    )
    got, pole = torus._cot_turns(lam, th, phase)
    assert pole.tolist() == [False] * (phase.size - 1) + [True]
    assert got[-1] == 0.0
    with mp.workdps(40):
        for x, g in zip(phase[:-1], got[:-1]):
            diff = float(g) - mp.mpf(lam) * mp.cot((mp.mpf(float(x)) - mp.mpf(th)) / 2)
            # equal modulo whole turns
            assert abs(diff - 2 * mp.pi * mp.nint(diff / (2 * mp.pi))) < 1e-15, x


def test_inner_params_need_a_positive_lambda_sum():
    # with g = 1 everywhere, g_inf = 1 and the frame's automorphism is 0/0
    with pytest.raises(ValueError, match="positive sum"):
        InnerSymbolParams(lambdas=(0.0, 0.0), thetas=(0.0, 1.0))
    with pytest.raises(ValueError, match="positive sum"):
        InnerSymbolParams(lambdas=(1e-17,), thetas=(0.0,))


def test_exponent_sum_needs_positive_depth():
    params = get_fixture("example-7.3").symbol
    Z = _all_characters(SamplePlan(n_samples=8, seed=3, d=params.d))
    for sigma in (0.0, -1.0):
        with pytest.raises(ValueError, match="sigma must be positive"):
            params.exponent_sum(Z, sigma)


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
# The references below are the serial route the slices replaced: one
# whole block of phases at a time.

F5 = DirichletPoly({1: 1.0, 2: 0.5 - 0.25j, 3: 0.75j, 5: 0.3 + 0.1j, 6: -0.2})
SLICED_FIXTURES = ["example-7.1", "fig1-c", "example-7.3"]


def _serial_blocks(plan):
    gens = [np.random.Generator(np.random.Philox(key=[plan.seed, j])) for j in range(plan.d)]
    for i in range(0, plan.n_samples, _WIDE):
        m = min(_WIDE, plan.n_samples - i)
        yield np.stack([gen.uniform(0.0, 2.0 * math.pi, m) for gen in gens])


def _serial_line_values(phi, t):
    primes = torus.first_primes(max(phi.d, 1))
    # the phases of exp(-1j t log p), with +0.0 at t = 0
    return phi.boundary(np.stack([0.0 - t * math.log(p) for p in primes]))


def _serial_measure(phi, delta, plan):
    hits = 0
    for Z in _serial_blocks(plan):
        hits += int(np.count_nonzero(np.abs(phi.boundary(Z) - phi.c) < delta * phi.r))
    est = hits / plan.n_samples
    return est, 1.96 * math.sqrt(max(est * (1.0 - est), 0.0) / plan.n_samples)


def _serial_mc(phi, f, plan):
    parts = []
    for Z in _serial_blocks(plan):
        v = np.abs(evaluate(f, phi.boundary(Z))) ** 2
        parts += _slice_moments(v)
    n, mean, m2 = torus._merge_moments(parts)
    return mean, 1.96 * math.sqrt(m2 / n / n)


def _slice_moments(v):
    """The moments of each 2^16-column slice of v, in order."""
    return [torus._slice_moments(v[i : i + torus._SLICE]) for i in range(0, v.size, torus._SLICE)]


def _serial_curve(phi, t_min, t_max, steps):
    t = np.linspace(t_min, t_max, steps + 1)
    out = np.empty((t.size, 3))
    out[:, 0] = t
    for i in range(0, t.size, _WIDE):
        vals = _serial_line_values(phi, t[i : i + _WIDE])
        out[i : i + _WIDE, 1] = vals.real
        out[i : i + _WIDE, 2] = vals.imag
    return out


def _serial_ergodic(phi, delta, T, steps):
    t = np.linspace(-T, T, steps)
    hits = 0
    for i in range(0, t.size, _WIDE):
        vals = _serial_line_values(phi, t[i : i + _WIDE])
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
    # 2^19 + 4097 columns: eight full slices and a short one; the serial
    # route evaluates blocks of eight slices at once
    phi = get_fixture(name).symbol
    plan = SamplePlan(n_samples=_WIDE + 4097, seed=47, d=phi.d)
    for delta in (0.5, 0.9):
        assert _bits(measure_E_delta(phi, delta, plan)) == _bits(_serial_measure(phi, delta, plan))
    if name != "example-7.3":  # Monte Carlo norms need a bounded-class symbol
        assert _bits(mc_comp_norm_sq(phi, F5, plan)) == _bits(_serial_mc(phi, F5, plan))


@pytest.mark.parametrize("name", SLICED_FIXTURES)
def test_sliced_line_values_match_serial_route(name):
    phi = get_fixture(name).symbol
    steps = _WIDE + 70_000  # crosses slice and serial-block boundaries; t = 0 is on the grid
    out = curve_trace(phi, -300.0, 300.0, steps)
    assert 0.0 in out[:, 0]
    assert out.tobytes() == _serial_curve(phi, -300.0, 300.0, steps).tobytes()
    assert ergodic_measure(phi, 0.7, 250.0, steps + 1) == _serial_ergodic(phi, 0.7, 250.0, steps + 1)


def test_line_characters_keep_their_signed_zeros():
    class Identity:  # boundary values = the first character coordinate
        c, r, d = 0j, 1.0, 1

        def boundary(self, theta):
            chi = np.empty(theta.shape[1], dtype=complex)
            torus._unimodular(theta[0], chi)
            return chi

    t = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, math.pi, -1e4, 3e5])
    got = torus._line_values(Identity(), t)
    # the phases of p^{-it}, with +0.0 at t = +-0.0
    phases = 0.0 - t * math.log(2)
    assert not np.signbit(phases[:2]).any()
    _assert_characters_exact_to(got, phases)
    # zero parts carry the sign of sin(theta), which is the sign of theta near 0
    ref = _mp_characters(phases)
    assert np.array_equal(np.signbit(got.real), np.signbit(ref.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(ref.imag) | np.signbit(phases) & (ref.imag == 0))
    assert got[:2].tobytes() == np.array([1.0, 1.0], dtype=complex).tobytes()


def test_unimodular_at_adversarial_phases():
    tiny = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308])
    k = np.arange(-8, 9) * (math.pi / 2.0)
    near = np.concatenate([k, np.nextafter(k, np.inf), np.nextafter(k, -np.inf)])
    two_pi = np.array([np.nextafter(2.0 * math.pi, 0.0), np.nextafter(math.pi, 4.0), np.nextafter(math.pi, 0.0)])
    rng = np.random.default_rng(2026)
    wide = np.concatenate([10.0 ** np.arange(3, 16), -(10.0 ** rng.uniform(3.0, 15.0, 40)), rng.uniform(-1e3, 1e3, 40)])
    phases = np.concatenate([tiny, near, two_pi, wide])
    got = np.empty(phases.size, dtype=complex)
    # halving a subnormal phase underflows, which is exact enough
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        torus._unimodular(phases, got)
    assert np.isfinite(got).all()
    _assert_characters_exact_to(got, phases)
    np.testing.assert_allclose(np.abs(got), 1.0, rtol=0, atol=CHAR_ATOL)
    # at +-0.0 the character is 1 +- 0i, with the sign of the phase
    assert got[:2].tobytes() == np.array([1.0, 0.0, 1.0, -0.0]).tobytes()
    assert np.array_equal(np.signbit(got.imag[: tiny.size]), np.signbit(tiny))


def test_results_do_not_depend_on_worker_count(pool_size):
    phi = get_fixture("fig1-b").symbol
    inner = get_fixture("example-7.3").symbol
    plan = SamplePlan(n_samples=3 * torus._SLICE + 77, seed=5, d=phi.d)
    inner_plan = SamplePlan(n_samples=2 * torus._SLICE + 9, seed=6, d=inner.d)

    def run():
        from h2comp.cli import _inner_rows
        return (
            _all_characters(plan).tobytes(),
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


def _traced_peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_sampled_memory_is_one_slice_per_worker(pool_size):
    # a (6, 2^19) block of characters alone would take 48 MiB, and a
    # (3, 2^19) block 24 MiB; a (6, 2^16) slice takes 6 MiB
    pool_size(2)
    inner = get_fixture("example-7.3").symbol
    plan = SamplePlan(n_samples=1 << 20, seed=21, d=inner.d)
    assert _traced_peak_mib(lambda: measure_E_delta(inner, 0.9, plan)) < 32
    phi = get_fixture("fig1-c").symbol
    plan = SamplePlan(n_samples=1 << 20, seed=22, d=phi.d)
    assert _traced_peak_mib(lambda: mc_comp_norm_sq(phi, F5, plan)) < 40


def test_worker_error_reaches_the_caller(pool_size, monkeypatch, capsys):
    import threading

    from h2comp import cli

    pool_size(2)
    raised_in = []
    boundary = InnerSymbolParams.boundary

    def failing(self, theta):
        if theta.shape[1] < torus._SLICE:  # the short last slice
            raised_in.append(threading.current_thread())
            raise ValueError("boundary failed in a slice")
        return boundary(self, theta)

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
