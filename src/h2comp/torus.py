"""Boundary sampling on the infinite polytorus and vertical-line averages.

A Dirichlet symbol evaluated "at the boundary" means: replace each
p_j^{-s} by an independent uniform unimodular character value chi_j.
Every distributional quantity here — the measure of the level set

    E_delta = { chi : |phi*(chi) - c| < delta * r },

the constant it induces in the pointwise upper bound, and the Monte
Carlo identity ||f o phi||^2 = E |f(phi*(chi))|^2 — is estimated from
such samples, with binomial or empirical-variance confidence radii
reported alongside.

Sampling is bit-for-bit reproducible: a counter-based generator keyed
by (seed, coordinate) drives each torus coordinate on its own stream,
so estimates do not depend on evaluation order or chunking.  The
elementwise work runs on every CPU the process may use, in column
slices; reductions run afterwards on the whole block in a fixed order,
so no result depends on the number of workers either.

Vertical-line versions (`ergodic_measure`, `curve_trace`) average over
t in [-T, T] instead; the flow t -> (p_j^{-it})_j equidistributes over
the polytorus, so the two kinds of averages agree in the limit, which
the tests check at matched tolerances.

Inner-factor symbols: g(s) = exp(-sum_j lambda_j (e^{i theta_j} + p_j^{-s})
/ (e^{i theta_j} - p_j^{-s})) is inner for summable nonnegative lambda;
pushing it through the disc automorphism (g - g(inf)) / (1 - g(inf) g)
and framing by D(c, r) gives symbols whose boundary values fill the
frame circle — the equality case of the subordination principle.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .affine import AffineSymbol, in_gordon_hedenmalm
from .dseries import Character, DirichletPoly, evaluate
from .primes import first_primes

__all__ = [
    "SamplePlan",
    "MeasureResult",
    "sample_characters",
    "boundary_value",
    "measure_E_delta",
    "shapiro_constant",
    "ergodic_measure",
    "curve_trace",
    "mc_comp_norm_sq",
    "InnerSymbolParams",
    "inner_boundary_modulus",
    "inner_truncation_bound",
    "mobius_symbol_value",
]

_CHUNK = 1 << 19
_SLICE = 1 << 16


# --- column slices on every CPU -------------------------------------------
#
# numpy releases the GIL in its elementwise loops, so contiguous column
# slices of a block run in parallel on threads.  Small slices keep each
# thread's temporaries small; with wider slices the per-thread malloc
# arenas raised the peak resident size.

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _pool_size() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _reset_pool() -> None:
    """Forget the pool: a forked child has none of its threads."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool)


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_pool_size(), thread_name_prefix="h2comp-torus")
        return _pool


def _map_slices(fn, m: int) -> list:
    """[fn(lo, hi) for each slice [lo, hi) of range(m)], in order, with
    slices of at most _SLICE columns run on every CPU.  `fn` must do only
    elementwise work, so the results do not depend on the worker count.
    Every slice has finished when this returns or raises; the exception
    of the first failed slice in order reaches the caller."""
    bounds = [(lo, min(lo + _SLICE, m)) for lo in range(0, m, _SLICE)]
    if len(bounds) < 2 or _pool_size() < 2:
        return [fn(lo, hi) for lo, hi in bounds]
    pool = _executor()
    futures = [pool.submit(fn, lo, hi) for lo, hi in bounds]
    wait(futures)
    return [f.result() for f in futures]


def _unimodular(phase: np.ndarray, out: np.ndarray) -> None:
    """out = e^{i phase}, written as cos and sin in place.  For every
    phase other than -0.0 these are the bits of np.exp(1j * phase)."""
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)


@dataclass(frozen=True)
class SamplePlan:
    """How many boundary characters to draw, from which seed, in how
    many torus coordinates.  Identical plans give identical samples."""

    n_samples: int
    seed: int
    d: int

    def __post_init__(self):
        if not isinstance(self.n_samples, (int, np.integer)) or self.n_samples < 1:
            raise ValueError("n_samples must be a positive integer")
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if not isinstance(self.d, (int, np.integer)) or self.d < 1:
            raise ValueError("d must be a positive integer")


class MeasureResult(NamedTuple):
    estimate: float
    ci95: float


def sample_characters(plan: SamplePlan) -> np.ndarray:
    """Unit-modulus samples, shape (d, n_samples).

    Coordinate j uses the counter-based stream keyed (seed, j), so the
    same (seed, j) always reproduces the same column of phases no
    matter how many coordinates any particular symbol needs.
    """
    return np.concatenate([Z.copy() for Z in _character_blocks(plan)], axis=1)


def _character_blocks(plan: SamplePlan):
    """The samples of `plan` as (d, m) blocks of at most _CHUNK columns,
    drawn straight from the per-coordinate streams.

    A stream hands out the same phases whether it is read in one draw or
    in pieces, so the blocks side by side are `sample_characters(plan)`
    bit for bit.  Every block is written into one buffer, so memory stays
    at one block for any n_samples, and a block is valid only until the
    next one is drawn.  Each stream is drawn serially; the cos and sin
    of its phases run in column slices.
    """
    gens = [np.random.Generator(np.random.Philox(key=[plan.seed, j])) for j in range(plan.d)]
    buf = np.empty((plan.d, min(_CHUNK, plan.n_samples)), dtype=complex)
    for i in range(0, plan.n_samples, _CHUNK):
        m = min(_CHUNK, plan.n_samples - i)
        for j, gen in enumerate(gens):
            u, row = gen.uniform(0.0, 2.0 * math.pi, m), buf[j, :m]
            _map_slices(lambda lo, hi: _unimodular(u[lo:hi], row[lo:hi]), m)
        yield buf[:, :m]


# --- boundary values ------------------------------------------------------
#
# A sampleable symbol exposes its frame as `.c` and `.r`, its torus
# dimension as `.d`, and `boundary(Z)`: phi*(chi) for a (d, m) block of
# character values.

def _required_dim(phi) -> int:
    return max(int(phi.d), 1)


def _line_grid(phi, t_min: float, t_max: float, n: int) -> np.ndarray:
    """n uniform points on [t_min, t_max], where every phase t log p_j
    the line characters take is a finite float."""
    log_p = math.log(first_primes(_required_dim(phi))[-1])
    if not (math.isfinite(t_max - t_min) and math.isfinite(max(abs(t_min), abs(t_max)) * log_p)):
        raise ValueError(f"phases t log p_j on [{t_min}, {t_max}] are not finite")
    return np.linspace(t_min, t_max, n)


def _line_values(phi, t: np.ndarray) -> np.ndarray:
    """phi(it) along the imaginary axis: the boundary values at the
    characters Z_j = p_j^{-it}, in column slices."""
    logs = [math.log(p) for p in first_primes(_required_dim(phi))]
    out = np.empty(t.size, dtype=complex)

    def fill(lo, hi):
        Z = np.empty((len(logs), hi - lo), dtype=complex)
        for row, log_p in zip(Z, logs):
            # 0 - t log p is -t log p, with +0.0 at t = 0 as in exp(-1j t log p)
            _unimodular(0.0 - t[lo:hi] * log_p, row)
        out[lo:hi] = phi.boundary(Z)

    _map_slices(fill, t.size)
    return out


def _character_column(chi: Character | Sequence[complex], d: int) -> np.ndarray:
    """The first d coordinates of a character, as a (d, 1) block."""
    vals = chi.values if isinstance(chi, Character) else tuple(complex(v) for v in chi)
    if len(vals) < d:
        raise ValueError(f"character has {len(vals)} coordinates, symbol needs {d}")
    return np.array(vals[:d], dtype=complex).reshape(d, 1)


def boundary_value(phi, chi: Character | Sequence[complex]) -> complex:
    """phi*(chi) for a single character."""
    return complex(phi.boundary(_character_column(chi, _required_dim(phi)))[0])


# --- measures -------------------------------------------------------------

def measure_E_delta(phi, delta: float, plan: SamplePlan) -> MeasureResult:
    """Fraction of boundary characters with |phi* - c| < delta * r,
    with a binomial 95% confidence radius."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    c, r = phi.c, phi.r
    if not r > 0.0:
        raise ValueError("level-set measures need a nondegenerate frame radius")
    d = _required_dim(phi)
    if plan.d != d:
        raise ValueError(f"plan has d={plan.d}, symbol needs d={d}")
    n = plan.n_samples
    hits = 0
    for Z in _character_blocks(plan):
        hits += sum(_map_slices(
            lambda lo, hi: int(np.count_nonzero(np.abs(phi.boundary(Z[:, lo:hi]) - c) < delta * r)),
            Z.shape[1],
        ))
    est = hits / n
    ci = 1.96 * math.sqrt(max(est * (1.0 - est), 0.0) / n)
    return MeasureResult(est, ci)


def _shapiro_weight(delta: float) -> float:
    """(1/2) (1-delta)/(1+delta), the factor of m(E_delta) in C_delta."""
    return 0.5 * (1.0 - delta) / (1.0 + delta)


def shapiro_constant(phi, delta: float, plan: SamplePlan) -> float:
    """C_delta = (1/2) (1-delta)/(1+delta) m(E_delta): the weight the
    level set lends to the point evaluation in the pointwise bound."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    if delta == 1.0:
        return 0.0
    est, _ = measure_E_delta(phi, delta, plan)
    return _shapiro_weight(delta) * est


def ergodic_measure(phi, delta: float, T: float, steps: int) -> float:
    """Fraction of t in [-T, T] (uniform grid) with |phi(it) - c| < delta * r."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    if not T > 0.0 or steps < 2:
        raise ValueError("need T > 0 and at least 2 grid points")
    c, r = phi.c, phi.r
    if not r > 0.0:
        raise ValueError("level-set measures need a nondegenerate frame radius")
    t = _line_grid(phi, -T, T, int(steps))
    hits = 0
    for i in range(0, t.size, _CHUNK):
        vals = _line_values(phi, t[i : i + _CHUNK])
        hits += int(np.count_nonzero(np.abs(vals - c) < delta * r))
    return hits / t.size


def curve_trace(phi, t_min: float, t_max: float, steps: int) -> np.ndarray:
    """The boundary curve phi(it) sampled on a uniform grid: an array of
    rows (t, Re phi(it), Im phi(it)), steps+1 of them."""
    if not t_max > t_min:
        raise ValueError("need t_max > t_min")
    if steps < 1:
        raise ValueError("need at least one step")
    t = _line_grid(phi, t_min, t_max, int(steps) + 1)
    out = np.empty((t.size, 3))
    out[:, 0] = t
    for i in range(0, t.size, _CHUNK):
        vals = _line_values(phi, t[i : i + _CHUNK])
        out[i : i + _CHUNK, 1] = vals.real
        out[i : i + _CHUNK, 2] = vals.imag
    return out


def mc_comp_norm_sq(phi, f: DirichletPoly, plan: SamplePlan) -> MeasureResult:
    """Monte Carlo ||f o phi||^2 = E |f(phi*(chi))|^2 with a 95% radius.

    Valid because the boundary-character distribution is the Haar
    measure the composition norm integrates against.
    """
    d = _required_dim(phi)
    if plan.d != d:
        raise ValueError(f"plan has d={plan.d}, symbol needs d={d}")
    if isinstance(phi, AffineSymbol) and not in_gordon_hedenmalm(phi):
        raise ValueError("Monte Carlo norms require a symbol in the bounded class")
    n = plan.n_samples
    total = 0.0
    total_sq = 0.0
    buf = np.empty(min(_CHUNK, n))
    for Z in _character_blocks(plan):
        v = buf[: Z.shape[1]]

        def fill(lo, hi):
            v[lo:hi] = np.abs(evaluate(f, phi.boundary(Z[:, lo:hi]))) ** 2

        _map_slices(fill, v.size)
        # the sums run on the whole block, so they add in one fixed order
        total += float(np.sum(v))
        total_sq += float(np.sum(v * v))
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    ci = 1.96 * math.sqrt(var / n)
    return MeasureResult(mean, ci)


# --- inner-factor symbols -------------------------------------------------

@dataclass(frozen=True)
class InnerSymbolParams:
    """Parameters of g(s) = exp(-sum_j lambda_j M(chi-rotated p_j^{-s};
    theta_j)) with M(z; theta) = (e^{i theta} + z)/(e^{i theta} - z),
    framed by the disc D(c, r).

    Nonnegative summable lambdas make g inner with g(+inf) =
    exp(-sum lambda_j); `lambda_tail` carries the certified mass of any
    truncated-away tail of the lambda sequence, which feeds the error
    bound reported by the evaluation routines.
    """

    lambdas: tuple[float, ...]
    thetas: tuple[float, ...]
    c: complex = 1.5 + 0.0j
    r: float = 1.0
    lambda_tail: float = 0.0

    def __post_init__(self):
        lam = tuple(float(x) for x in self.lambdas)
        th = tuple(float(x) for x in self.thetas)
        if len(lam) != len(th):
            raise ValueError("lambdas and thetas must have equal length")
        if any(x < 0.0 for x in lam):
            raise ValueError("lambdas must be nonnegative")
        if not float(self.lambda_tail) >= 0.0:
            raise ValueError("lambda_tail must be nonnegative")
        cc = complex(self.c)
        rr = float(self.r)
        if not (rr > 0.0 and cc.real - 0.5 >= rr - 1e-12):
            raise ValueError("frame disc needs Re c - 1/2 >= r > 0")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "c", cc)
        object.__setattr__(self, "r", rr)
        object.__setattr__(self, "lambda_tail", float(self.lambda_tail))

    @property
    def d(self) -> int:
        return len(self.lambdas)

    @property
    def g_infinity(self) -> float:
        return math.exp(-sum(self.lambdas))

    def exponent_sum(self, Z: np.ndarray, sigma: float = 0.0) -> np.ndarray:
        """S = sum_j lambda_j (e^{i theta_j} + z_j)/(e^{i theta_j} - z_j),
        z_j = p_j^{-sigma} Z[j], for a (d, m) block Z of character values
        at depth sigma >= 0; g = exp(-S).  At sigma > 0 a column within
        1e-12 of a factor pole raises ValueError; at sigma = 0 a column
        exactly at a pole gets S = +inf, the radial limit, where g = 0.
        """
        primes = first_primes(self.d)
        S = np.zeros(Z.shape[1], dtype=complex)
        at_pole = np.zeros(Z.shape[1], dtype=bool)
        for j, (lam, th) in enumerate(zip(self.lambdas, self.thetas)):
            if lam == 0.0:
                continue
            pole = complex(math.cos(th), math.sin(th))
            z = Z[j] * float(primes[j]) ** (-sigma) if sigma > 0.0 else Z[j]
            gap = pole - z
            if sigma > 0.0 and np.any(np.abs(gap) < 1e-12):
                raise ValueError(f"character coordinate {j} is within 1e-12 of the factor pole")
            hit = gap == 0
            at_pole |= hit
            gap[hit] = 1.0
            # lambda_j multiplies the numerator inside the disc and the
            # quotient on the boundary: each order rounds as the reports
            # and digests of its depth pin, bit for bit
            S += lam * (pole + z) / gap if sigma > 0.0 else lam * ((pole + z) / gap)
        S[at_pole] = np.inf
        return S

    def exponent_sum_real(self, Z: np.ndarray, sigma: float) -> np.ndarray:
        """Re S at depth sigma > 0 for a (d, m) block Z of unimodular
        character values, from the closed form Re M = (1 - |z|^2) /
        |e^{i theta} - z|^2 with 1 - |z|^2 = -expm1(-2 sigma log p_j).

        The real part of the complex quotient in `exponent_sum` cancels
        near the boundary: at sigma = 1e-8 it keeps about 8 digits, and
        this form keeps all but the rounding of the characters.
        """
        if not sigma > 0.0:
            raise ValueError("sigma must be positive")
        primes = first_primes(self.d)
        re_S = np.zeros(Z.shape[1])
        for j, (lam, th) in enumerate(zip(self.lambdas, self.thetas)):
            if lam == 0.0:
                continue
            gap = complex(math.cos(th), math.sin(th)) - Z[j] * float(primes[j]) ** (-sigma)
            one_minus_z2 = -math.expm1(-2.0 * sigma * math.log(primes[j]))
            re_S += lam * one_minus_z2 / (gap.real**2 + gap.imag**2)
        return re_S

    def frame(self, g: np.ndarray) -> np.ndarray:
        """c + r (g - g_inf)/(1 - g_inf g): the disc automorphism that
        sends g_inf to 0, then the frame disc D(c, r)."""
        ginf = self.g_infinity
        return self.c + self.r * (g - ginf) / (1.0 - ginf * g)

    def boundary(self, Z: np.ndarray) -> np.ndarray:
        """phi*(chi) = frame(g) at depth 0 for a (d, m) block Z.

        On the torus each factor of S is purely imaginary, so g =
        exp(-i Im S) and |g| = 1 up to the rounding of cos and sin; the
        computed real part of S is rounding noise, which grows near a
        pole, and is dropped.
        """
        S = self.exponent_sum(Z)
        return self.frame(np.where(np.isinf(S.real), 0.0, np.exp(-1j * S.imag)))

    def to_jsonable(self) -> dict:
        return {
            "lambdas": list(self.lambdas),
            "thetas": list(self.thetas),
            "c": [self.c.real, self.c.imag],
            "r": self.r,
            "lambda_tail": self.lambda_tail,
        }


def inner_boundary_modulus(params: InnerSymbolParams, chi, sigma: float) -> float:
    """|g| at distance sigma from the boundary along the character chi.

    Tends to 1 as sigma -> 0+ (inner) and to exp(-sum lambda_j) as
    sigma -> +inf.  A character landing within 1e-12 of a pole of one
    Blaschke-type factor is rejected.
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    S = params.exponent_sum(_character_column(chi, params.d), sigma)
    return float(np.exp(-S.real)[0])


def inner_truncation_bound(params: InnerSymbolParams, sigma: float) -> float:
    """Bound on |log g_true - log g| from the truncated-away lambda tail:
    each omitted factor contributes at most 2 lambda_j / dist, and at
    vertical position sigma every omitted z has modulus at most
    p_{J+1}^{-sigma}."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    if params.lambda_tail == 0.0:
        return 0.0
    p_next = first_primes(params.d + 1)[params.d]
    dist = 1.0 - float(p_next) ** (-sigma)
    return 2.0 * params.lambda_tail / dist


def mobius_symbol_value(params: InnerSymbolParams, chi, sigma: float) -> complex:
    """Value of the framed symbol c + r (g - g_inf)/(1 - g_inf g) at
    vertical position sigma along the character chi.

    Sends +infinity to c; the image stays inside D(c, r), reaching the
    frame circle exactly in the boundary limit sigma -> 0+.  A character
    landing within 1e-12 of a factor pole is rejected.
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    S = params.exponent_sum(_character_column(chi, params.d), sigma)
    return complex(params.frame(np.exp(-S))[0])
