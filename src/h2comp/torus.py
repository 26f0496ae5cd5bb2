"""Boundary sampling on the infinite polytorus and vertical-line averages.

A Dirichlet symbol evaluated "at the boundary" means: replace each
p_j^{-s} by an independent uniform unimodular character value chi_j.
Every distributional quantity here — the measure of the level set

    E_delta = { chi : |phi*(chi) - c| < delta * r },

the constant it induces in the pointwise upper bound, and the Monte
Carlo identity ||f o phi||^2 = E |f(phi*(chi))|^2 — is estimated from
such samples, with binomial or empirical-variance confidence radii
reported alongside.

A sample is a column of phases theta_j uniform on [0, 2 pi), with
chi_j = e^{i theta_j}, and the phases are what every symbol's
`boundary(theta)` takes: affine and polynomial symbols form the
characters from them, inner symbols need only the phase differences.
Every character comes from one tangent, e^{i theta} = (1 + it)/(1 - it)
with t = tan(theta/2) (`_unimodular`, from `dseries`): numpy's float64
tan is a SIMD kernel and its cos and sin are scalar libm, so no
boundary value on the torus and no array `evaluate` calls cos, sin or
a complex exp.

Sampling is bit-for-bit reproducible: a counter-based generator keyed by
(seed, coordinate), the seed any 64-bit unsigned integer, drives each
torus coordinate on its own stream, so estimates do not depend on
evaluation order or chunking.  A column slice of the samples is drawn
straight from its own counter offset in each stream, so every slice is
drawn, evaluated and reduced in one task on every CPU the process may
use, and memory stays at one slice per worker for any sample count.
Float reductions run afterwards in a fixed order, so no result depends
on the number of workers either.

C_delta is the measure m(E_delta) times a weight, so `shapiro_constant`
reads the estimate of the last `measure_E_delta` call when that call had
the same symbol object, delta and plan, and samples only otherwise.
`measure_E_delta` never reads that stored result: every call samples.

Vertical-line versions (`ergodic_measure`, `curve_trace`) average over
t in [-T, T] instead, at the phases -t log p_j; the flow t ->
(p_j^{-it})_j equidistributes over the polytorus, so the two kinds of
averages agree in the limit, which the tests check at matched
tolerances.

Inner-factor symbols: g(s) = exp(-sum_j lambda_j (e^{i theta_j} + p_j^{-s})
/ (e^{i theta_j} - p_j^{-s})) is inner for summable nonnegative lambda;
pushing it through the disc automorphism (g - g(inf)) / (1 - g(inf) g)
and framing by D(c, r) gives symbols whose boundary values fill the
frame circle — the equality case of the subordination principle.  On
the torus each factor is i cot((phi_j - theta_j)/2), so their boundary
values come in closed form from tangents of phase differences.  Inside
the disc, at depth sigma, each factor is written from the same phase
difference and p_j^{-sigma} (`InnerSymbolParams.interior_values`), again
from one tangent per factor, so the inner symbols take phases at every
depth and no character is formed.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dseries import DirichletPoly, _unimodular, evaluate
from .primes import first_primes

__all__ = [
    "SamplePlan",
    "MeasureResult",
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

# A multiple of 4: a Philox counter step gives 4 of the uint64s that
# `Generator.uniform` turns into one double each, so a slice that starts
# at a multiple of 4 starts on a counter step (see `_phases`).
_SLICE = 1 << 16


# --- column slices on every CPU -------------------------------------------
#
# numpy releases the GIL in its elementwise loops, so contiguous column
# slices of the samples or of a line grid run in parallel on threads.
# Small slices keep each thread's temporaries small; with wider slices
# the per-thread malloc arenas raised the peak resident size.

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


def _phases(plan: SamplePlan, lo: int, hi: int) -> np.ndarray:
    """Columns [lo, hi) of the phases uniform on [0, 2 pi), as a real
    (d, hi - lo) block drawn without the columns before `lo`.

    Philox4x64 gives 4 uint64 per counter step and `Generator.uniform`
    turns each into one double, so the stream opened at counter lo // 4
    starts exactly at column lo; lo must be a multiple of 4.
    """
    theta = np.empty((plan.d, hi - lo))
    for j, row in enumerate(theta):
        # a plain list turns a seed of 2^63 or more into a float64 key
        key = np.array([plan.seed, j], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key, counter=lo // 4))
        # uniform(0, 2 pi) is 0 + 2 pi * random(), drawn here in place
        gen.random(out=row)
        row *= 2.0 * math.pi
    return theta


# --- boundary values ------------------------------------------------------
#
# A sampleable symbol exposes its frame as `.c` and `.r`, its torus
# dimension as `.d`, and `boundary(theta)`: phi*(chi) at the characters
# chi_j = e^{i theta_j} for a real (d, m) block of phases.

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
    phases -t log p_j of the characters p_j^{-it}.  The line routes call
    it on one column slice of their grid at a time."""
    logs = [math.log(p) for p in first_primes(_required_dim(phi))]
    theta = np.empty((len(logs), t.size))
    for row, log_p in zip(theta, logs):
        # 0 - t log p is -t log p, with +0.0 at t = 0 as in exp(-1j t log p)
        np.subtract(0.0, t * log_p, out=row)
    return phi.boundary(theta)


# --- measures -------------------------------------------------------------

def _check_level_args(phi, delta: float, plan: SamplePlan) -> None:
    """Raise ValueError unless delta lies in [0, 1], the frame radius is
    positive and the plan has the symbol's torus dimension."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    if not phi.r > 0.0:
        raise ValueError("level-set measures need a nondegenerate frame radius")
    d = _required_dim(phi)
    if plan.d != d:
        raise ValueError(f"plan has d={plan.d}, symbol needs d={d}")


# The last `measure_E_delta` result with its key (symbol object, delta,
# plan), for `shapiro_constant` to read.  One tuple is swapped in whole,
# so a reader in any thread sees a result with its own key.
_last_measure: tuple | None = None


def measure_E_delta(phi, delta: float, plan: SamplePlan) -> MeasureResult:
    """Fraction of boundary characters with |phi* - c| < delta * r,
    with a binomial 95% confidence radius.

    Every call samples; the result is kept, with its symbol object,
    delta and plan, for `shapiro_constant` to read.
    """
    global _last_measure
    _check_level_args(phi, delta, plan)
    c, r = phi.c, phi.r
    n = plan.n_samples

    def count(lo, hi):
        vals = phi.boundary(_phases(plan, lo, hi))
        return int(np.count_nonzero(np.abs(vals - c) < delta * r))

    hits = sum(_map_slices(count, n))
    est = hits / n
    ci = 1.96 * math.sqrt(max(est * (1.0 - est), 0.0) / n)
    result = MeasureResult(est, ci)
    _last_measure = (phi, delta, plan, result)
    return result


def _shapiro_weight(delta: float) -> float:
    """(1/2) (1-delta)/(1+delta), the factor of m(E_delta) in C_delta."""
    return 0.5 * (1.0 - delta) / (1.0 + delta)


def shapiro_constant(phi, delta: float, plan: SamplePlan) -> float:
    """C_delta = (1/2) (1-delta)/(1+delta) m(E_delta): the weight the
    level set lends to the point evaluation in the pointwise bound.

    When the last `measure_E_delta` call had the same symbol object,
    delta and plan, m(E_delta) is its stored estimate, bit for bit what
    a new sweep would count; otherwise this samples.  At delta = 1 the
    weight is 0 and nothing is sampled.
    """
    _check_level_args(phi, delta, plan)
    if delta == 1.0:
        return 0.0
    last = _last_measure
    if last is not None and last[0] is phi and last[1] == delta and last[2] == plan:
        est = last[3].estimate
    else:
        est = measure_E_delta(phi, delta, plan).estimate
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

    def count(lo, hi):
        return int(np.count_nonzero(np.abs(_line_values(phi, t[lo:hi]) - c) < delta * r))

    return sum(_map_slices(count, t.size)) / t.size


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

    def fill(lo, hi):
        vals = _line_values(phi, t[lo:hi])
        out[lo:hi, 1] = vals.real
        out[lo:hi, 2] = vals.imag

    _map_slices(fill, t.size)
    return out


def _slice_moments(v: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, sum of squared deviations) of one slice, two-pass."""
    mean = float(np.sum(v)) / v.size
    dev = v - mean
    return v.size, mean, float(np.sum(dev * dev))


def _merge_moments(parts) -> tuple[int, float, float]:
    """The moments of the concatenated slices, merged left to right
    (Chan, Golub and LeVeque, "Algorithms for computing the sample
    variance", Amer. Stat. 37, 1983)."""
    n, mean, m2 = parts[0]
    for nb, mean_b, m2_b in parts[1:]:
        total = n + nb
        delta = mean_b - mean
        mean += delta * (nb / total)
        m2 += m2_b + delta * delta * (n * nb / total)
        n = total
    return n, mean, m2


def mc_comp_norm_sq(phi, f: DirichletPoly, plan: SamplePlan) -> MeasureResult:
    """Monte Carlo ||f o phi||^2 = E |f(phi*(chi))|^2 with a 95% radius.

    Valid because the boundary-character distribution is the Haar
    measure the composition norm integrates against.  Each column slice
    returns its count, mean and squared deviations, merged in slice
    order, so the variance does not cancel as E[v^2] - mean^2 would.
    """
    d = _required_dim(phi)
    if plan.d != d:
        raise ValueError(f"plan has d={plan.d}, symbol needs d={d}")

    def moments(lo, hi):
        return _slice_moments(np.abs(evaluate(f, phi.boundary(_phases(plan, lo, hi)))) ** 2)

    n, mean, m2 = _merge_moments(_map_slices(moments, plan.n_samples))
    var = m2 / n
    return MeasureResult(mean, 1.96 * math.sqrt(var / n))


# --- inner-factor symbols -------------------------------------------------
#
# Double-double helpers for `_cot_turns` and the interior kernel: a pair
# (hi, lo) stands for the unrounded sum hi + lo (Dekker, "A
# floating-point technique for extending the available precision",
# Numer. Math. 18, 1971).

# 2 pi = fl(2 pi) + _TWO_PI_LO + _TWO_PI_LO2 to about 1e-48
_TWO_PI_LO, _TWO_PI_LO2 = 2.4492935982947064e-16, -5.989539619436679e-33


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    def split(x):
        hi = x * 134217729.0  # 2^27 + 1
        hi = hi - (hi - x)
        return hi, x - hi

    p = a * b
    (ah, al), (bh, bl) = split(a), split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _mod_two_pi(hi, lo):
    """hi + lo less its nearest whole number of turns 2 pi n, as a pair."""
    n = np.rint(hi / (2.0 * math.pi))
    p, pe = _two_prod(n, 2.0 * math.pi)
    # hi - p is exact: the two lie within a factor 2 of each other
    h, l = _two_sum(hi - p, lo - pe - n * _TWO_PI_LO)
    return h, l - n * _TWO_PI_LO2


def _cot_turns(lam: float, th: float, phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lam cot((phase - th)/2) up to whole turns 2 pi, and the columns
    where phase == th, which get 0.  The half difference x is taken
    exactly and reduced by whole turns, lam / x is formed as a pair and
    reduced too, and lam (cot x - 1/x) is added in double."""
    gap, gap_lo = _two_sum(phase, -th)
    pole = gap == 0.0
    h, l = _mod_two_pi(np.where(pole, 1.0, gap), gap_lo)
    # no double resolves the turns of lam / x long before |x| = 2^-500;
    # the floor keeps every step below finite and normal
    x = np.copysign(np.maximum(np.abs(0.5 * h), 2.0**-500), h)
    q = lam / x
    p, pe = _two_prod(q, x)
    q, q_lo = _mod_two_pi(q, ((lam - p) - pe - q * (0.5 * l)) / x)
    # cot x - 1/x from its Taylor series where 1/tan x - 1/x would cancel
    x2 = x * x
    series = -x * (1.0 / 3.0 + x2 * (1.0 / 45.0 + x2 * (2.0 / 945.0)))
    rest = np.where(np.abs(x) < 2.0**-6, series, 1.0 / np.tan(x) - 1.0 / x)
    return np.where(pole, 0.0, q + (q_lo + lam * rest)), pole


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
        if not math.exp(-sum(lam)) < 1.0:
            raise ValueError("lambdas must have a positive sum, so that g_infinity < 1")
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

    def interior_values(
        self, theta: np.ndarray, sigmas: Sequence[float]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """[(Re S, g) at each depth sigma > 0 in `sigmas`] for a (d, m)
        block of phases, with g = exp(-Re S) e^{-i Im S}.

        With rho = p_j^{-sigma} and u = phi_j - theta_j, each factor is
        M = (1 + rho e^{iu})/(1 - rho e^{iu}): Re M = (1 - rho^2)/D and
        Im M = 4 rho sin(u/2) cos(u/2)/D, D = (1 - rho)^2 + 4 rho
        sin^2(u/2) = |e^{i theta_j} - z_j|^2, and 1 - rho^2 =
        -expm1(-2 sigma log p_j).  u is reduced by whole turns as in
        `_cot_turns`, and its half-angle sine and cosine come from one
        tangent w = tan(u/4), shared by every depth.  A column within
        1e-12 of a factor pole (D < 1e-24) raises ValueError.
        """
        if not all(s > 0.0 for s in sigmas):
            raise ValueError("sigma must be positive")
        re_S = np.zeros((len(sigmas), theta.shape[1]))
        im_S = np.zeros_like(re_S)
        primes = first_primes(self.d)
        for j, (lam, th, phase) in enumerate(zip(self.lambdas, self.thetas, theta)):
            if lam == 0.0:
                continue
            u, _ = _mod_two_pi(*_two_sum(phase, -th))
            w = np.tan(np.multiply(u, 0.25, out=u), out=u)
            # sin(u/2) = 2w/(1 + w^2), cos(u/2) = (1 - w^2)/(1 + w^2)
            q = 1.0 / (1.0 + w * w)
            sin_half = 2.0 * w * q
            sin_cos = sin_half * ((1.0 - w * w) * q)
            sin2 = np.multiply(sin_half, sin_half, out=sin_half)
            log_p = math.log(primes[j])
            for re, im, sigma in zip(re_S, im_S, sigmas):
                rho = math.exp(-sigma * log_p)
                D = sin2 * (4.0 * rho)
                D += math.expm1(-sigma * log_p) ** 2
                if D.min(initial=math.inf) < 1e-24:
                    raise ValueError(f"character coordinate {j} is within 1e-12 of the factor pole")
                re += lam * -math.expm1(-2.0 * sigma * log_p) / D
                im += np.divide(sin_cos, D, out=D) * (lam * 4.0 * rho)
        g = np.empty(re_S.shape, dtype=complex)
        _unimodular(np.negative(im_S, out=im_S), g)
        modulus = np.exp(-re_S)
        g.real *= modulus
        g.imag *= modulus
        return list(zip(re_S, g))

    def frame(self, g: np.ndarray) -> np.ndarray:
        """c + r (g - g_inf)/(1 - g_inf g): the disc automorphism that
        sends g_inf to 0, then the frame disc D(c, r)."""
        ginf = self.g_infinity
        return self.c + self.r * (g - ginf) / (1.0 - ginf * g)

    def boundary(self, theta: np.ndarray) -> np.ndarray:
        """phi*(chi) = frame(g) at depth 0 for a (d, m) block of phases.

        On the torus each factor is (e^{i theta_j} + e^{i phi})/(e^{i
        theta_j} - e^{i phi}) = i cot((phi - theta_j)/2), so g = e^{-iA}
        with A = sum_j lambda_j cot((phi_j - theta_j)/2), and frame(g) =
        c + r e^{-iB} with tan(B/2) = k tan(A/2), k = (1 + g_inf)/(1 -
        g_inf): one tangent per factor and one per sample, and no
        complex arithmetic.  Where |cot| > 128, or phi_j - theta_j may
        round off, `_cot_turns` recomputes the term modulo 2 pi.  A
        column with phi_j == theta_j sits on a pole and takes the radial
        limit g = 0, so phi* = c - r g_inf.
        """
        A = np.zeros(theta.shape[1])
        at_pole = np.zeros(theta.shape[1], dtype=bool)
        for lam, th, phase in zip(self.lambdas, self.thetas, theta):
            if lam == 0.0:
                continue
            t = np.subtract(phase, th)
            # past one turn the difference may round off: recompute them all
            wide = not -2.0 * math.pi <= t.min(initial=0.0) <= t.max(initial=0.0) <= 2.0 * math.pi
            t *= 0.5
            np.tan(t, out=t)
            # near a pole, where |cot| > 128
            idx = np.arange(t.size) if wide else np.flatnonzero(np.abs(t) < 2.0**-7)
            t[idx] = 1.0
            term = np.divide(lam, t, out=t)
            if idx.size:
                term[idx], pole = _cot_turns(lam, th, phase[idx])
                at_pole[idx[pole]] = True
            A += term
        # e^{-iB} = (1 - iv)/(1 + iv) = (h - 1) - i v h, v = tan(B/2), h = 2/(1 + v^2)
        ginf = self.g_infinity
        A *= 0.5
        v = np.tan(A, out=A)
        v *= (1.0 + ginf) / (1.0 - ginf)
        h = np.multiply(v, v)
        h += 1.0
        np.divide(2.0, h, out=h)
        out = np.empty(theta.shape[1], dtype=complex)
        np.multiply(h - 1.0, self.r, out=out.real)
        out.real += self.c.real
        v *= h
        v *= -self.r
        np.add(v, self.c.imag, out=out.imag)
        out[at_pole] = self.c - self.r * ginf
        return out

    def to_jsonable(self) -> dict:
        return {
            "lambdas": list(self.lambdas),
            "thetas": list(self.thetas),
            "c": [self.c.real, self.c.imag],
            "r": self.r,
            "lambda_tail": self.lambda_tail,
        }


def _phase_column(theta: Sequence[float], d: int) -> np.ndarray:
    """The first d phases of a point of the torus, as a (d, 1) block.
    Fewer than d phases, or a phase that is not finite, raises
    ValueError."""
    vals = [float(v) for v in theta]
    if len(vals) < d:
        raise ValueError(f"point has {len(vals)} phases, symbol needs {d}")
    for v in vals:
        if not math.isfinite(v):
            raise ValueError(f"phase {v} is not finite")
    return np.array(vals[:d]).reshape(d, 1)


def inner_boundary_modulus(params: InnerSymbolParams, theta, sigma: float) -> float:
    """|g| at distance sigma from the boundary at the point with phases
    theta, the character e^{i theta}.

    Tends to 1 as sigma -> 0+ (inner) and to exp(-sum lambda_j) as
    sigma -> +inf.  A point landing within 1e-12 of a pole of one
    Blaschke-type factor is rejected.
    """
    [(re_S, _)] = params.interior_values(_phase_column(theta, params.d), (sigma,))
    return float(np.exp(-re_S[0]))


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


def mobius_symbol_value(params: InnerSymbolParams, theta, sigma: float) -> complex:
    """Value of the framed symbol c + r (g - g_inf)/(1 - g_inf g) at
    vertical position sigma at the point with phases theta.

    Sends +infinity to c; the image stays inside D(c, r), reaching the
    frame circle exactly in the boundary limit sigma -> 0+.  A point
    landing within 1e-12 of a factor pole is rejected.
    """
    [(_, g)] = params.interior_values(_phase_column(theta, params.d), (sigma,))
    return complex(params.frame(g)[0])
