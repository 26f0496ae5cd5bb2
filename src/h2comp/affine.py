"""Affine symbols phi(s) = c + sum_j c_j p_j^{-s} and their composition norms.

A symbol with nonnegative coefficients on the first d primes and
Re c - 1/2 >= c_1 + ... + c_d > 0 (or = 0 with Re c > 1/2) generates a
bounded composition operator on the square-summable Dirichlet series;
its image line sweeps the disc D(c, r) with r = sum c_j.  Complex
coefficients are reduced to their moduli plus a recorded unimodular
twist: the twist is a vertical-limit rotation and changes no norm in
this module.

The central computation is

    ||f o phi||^2 = sum_k |w_k|^2 * m_k,
    w_k = sum_n a_n n^{-c} (-r log n)^k / k!,
    m_k = || sum_j (c_j / r) p_j^{-s} ||_{2k}^{2k},

where m_k is the 2k-th power mean of the normalized coefficient vector.
Both factors are kept scaled so that every intermediate lies in [0, 1]
times an explicit prefactor; the series is truncated with a certified
tail bound.  A brute-force oracle (`comp_bruteforce_norm_sq`) assembles
f o phi literally, each power of the symbol's line a dense array over
the exponent vectors of one total degree, and takes the plain square
norm — a genuinely independent route kept for cross-checks.

Coefficient-vector comparisons (majorization, mixing decompositions,
exact dominance of multinomial power sums) live here too: weak
supermajorization of the coefficients forces ordering of all the power
means at once, while the exact dominance check witnesses that the
power-mean ordering is strictly weaker than majorization.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dseries import DirichletPoly, _unimodular, evaluate
from .errors import InequalityViolation
from .primes import dimension_needed, exponents_over, first_primes

__all__ = [
    "AffineSymbol",
    "PolynomialSymbol",
    "in_gordon_hedenmalm",
    "xi",
    "majorizes",
    "bvn_decompose",
    "h2k_means",
    "comp_norm_sq",
    "comp_bruteforce_norm_sq",
    "effective_constant",
    "annulus_radii",
    "hq_dominance",
]

COMP_K_DEFAULT = 200
COMP_K_CAP = 2000
COMP_TAIL_TOL = 1e-10
_BRUTE_K_CAP = 600
_BRUTE_LAYER_CAP = 1 << 21


def _coeffs(v) -> tuple[float, ...]:
    """The nonnegative prime-coefficient vector (c_1, ..., c_d) as floats."""
    vals = tuple(float(x) for x in v)
    for x in vals:
        if not math.isfinite(x):
            raise ValueError(f"coefficient {x} is not finite")
        if x < 0.0:
            raise ValueError(f"coefficient {x} is negative")
    return vals


@dataclass(frozen=True, slots=True)
class AffineSymbol:
    """phi(s) = c + sum_j c_j chi_j p_j^{-s} on the first d primes.

    Coefficients are stored as moduli `coeffs`; unimodular phases, if
    any, live in `twist`.  Construction, `dataclasses.replace` included,
    validates that every value is finite and class membership (Re c >
    1/2, and Re c - 1/2 >= sum c_j when d >= 1), so every instance
    generates a bounded operator and no function re-checks it.
    """

    c: complex
    coeffs: tuple[float, ...] = ()
    twist: tuple[complex, ...] | None = None

    def __post_init__(self):
        cc = complex(self.c)
        zs = [complex(z) for z in self.coeffs]
        tws = None if self.twist is None else [complex(t) for t in self.twist]
        if not all(map(cmath.isfinite, [cc, *zs, *(tws or ())])):
            raise ValueError(
                f"symbol c={cc}, coeffs={tuple(zs)}, twist={tws} has a non-finite value"
            )
        mods = [abs(z) for z in zs]
        phases = [z / m if m > 0.0 else 1.0 + 0.0j for z, m in zip(zs, mods)]
        if tws is not None:
            if len(tws) != len(mods):
                raise ValueError("twist length must match coefficient length")
            for j, t in enumerate(tws):
                if abs(abs(t) - 1.0) > 1e-12:
                    raise ValueError(f"twist value {t} is not unimodular")
                phases[j] = phases[j] * t
        if any(abs(p - 1.0) > 1e-15 for p in phases):
            tw: tuple[complex, ...] | None = tuple(phases)
        else:
            tw = None
        object.__setattr__(self, "c", cc)
        object.__setattr__(self, "coeffs", tuple(mods))
        object.__setattr__(self, "twist", tw)
        if not in_gordon_hedenmalm(self):
            raise ValueError(
                f"symbol c={cc}, coeffs={tuple(mods)} is outside the bounded class "
                "(need Re c > 1/2 and Re c - 1/2 >= sum of coefficients)"
            )

    @property
    def d(self) -> int:
        return len(self.coeffs)

    @property
    def r(self) -> float:
        return float(sum(self.coeffs))

    @property
    def primes(self) -> tuple[int, ...]:
        return first_primes(self.d)

    def effective_coeffs(self) -> tuple[complex, ...]:
        """Coefficients with the twist folded back in."""
        if self.twist is None:
            return tuple(complex(x) for x in self.coeffs)
        return tuple(x * t for x, t in zip(self.coeffs, self.twist))

    def boundary(self, theta: np.ndarray) -> np.ndarray:
        """phi*(chi) at chi_j = e^{i theta_j} for a (d, m) block of phases.

        The terms are added one prime at a time, c_1 chi_1 first; line
        traces and sampled measures both come through here, so they
        round alike.
        """
        out = np.full(theta.shape[1], self.c, dtype=complex)
        chi = np.empty(theta.shape[1], dtype=complex)
        for cj, phase in zip(self.effective_coeffs(), theta):
            _unimodular(phase, chi)
            out += cj * chi
        return out

    def to_jsonable(self) -> dict:
        out: dict = {
            "c": [self.c.real, self.c.imag],
            "coeffs": list(self.coeffs),
        }
        if self.twist is not None:
            out["twist"] = [[t.real, t.imag] for t in self.twist]
        return out


@dataclass(frozen=True, eq=False, slots=True)
class PolynomialSymbol:
    """phi(s) = c + sum_{n >= 2} a_n n^{-s}, framed by the disc D(c, radius).

    No affine structure is assumed: the finitely many terms may sit on
    prime powers and carry arbitrary complex coefficients.  `radius` is
    the radius of the frame disc the boundary curve is expected to fill;
    boundary operations check |phi* - c| <= radius sample by sample
    rather than by a coefficient inequality, because the triangle
    inequality is far from sharp for these symbols.  Equality and
    hashing are by identity, since `terms` is a dict.
    """

    c: complex
    terms: dict[int, complex]
    radius: float

    def __post_init__(self):
        cc = complex(self.c)
        tt: dict[int, complex] = {}
        for n, a in dict(self.terms).items():
            idx = int(n)
            if idx < 2 or idx != n:
                raise ValueError(f"term index {n!r} must be an integer >= 2")
            a = complex(a)
            if a != 0:
                tt[idx] = a
        rr = float(self.radius)
        if not rr > 0.0:
            raise ValueError("frame radius must be positive")
        if not cc.real - 0.5 >= rr - 1e-12:
            raise ValueError("frame disc must satisfy Re c - 1/2 >= radius")
        object.__setattr__(self, "c", cc)
        object.__setattr__(self, "terms", dict(sorted(tt.items())))
        object.__setattr__(self, "radius", rr)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self.terms)

    @property
    def d(self) -> int:
        """Torus coordinates needed to evaluate the boundary values."""
        return dimension_needed(self.terms)

    @property
    def r(self) -> float:
        return self.radius

    def boundary(self, theta: np.ndarray) -> np.ndarray:
        """phi*(chi) at chi_j = e^{i theta_j} for a (d, m) block of
        phases: each term a_n n^{-s}, n = prod_j p_j^{e_j}, becomes a_n
        times the one character at the phase sum_j e_j theta_j, the
        terms added in increasing n."""
        out = np.full(theta.shape[1], self.c, dtype=complex)
        chi = np.empty(theta.shape[1], dtype=complex)
        primes = first_primes(self.d)
        for n, a in self.terms.items():
            phase = None
            for e, row in zip(exponents_over(n, primes), theta):
                if e:
                    phase = e * row if phase is None else phase + e * row
            _unimodular(phase, chi)
            out += a * chi
        return out

    def to_jsonable(self) -> dict:
        return {
            "c": [self.c.real, self.c.imag],
            "terms": [[n, a.real, a.imag] for n, a in self.terms.items()],
            "radius": self.radius,
        }


# --- class membership and disc geometry ----------------------------------

def in_gordon_hedenmalm(phi: AffineSymbol) -> bool:
    """Whether phi generates a bounded composition operator.

    For these symbols membership means Re c > 1/2 together with
    Re c - 1/2 >= sum_j c_j (degenerate d = 0 needs only the first
    condition).  Boundary cases are admitted to 1e-12 slack so that
    symbols built from decimal data land on the expected side.
    """
    a = phi.c.real - 0.5
    if not a > 0.0:
        return False
    return a >= phi.r - 1e-12


def _xi_from(a: float, r: float) -> float:
    # scaled by the power of two of a (exact; none below 1/2): no square overflows
    e = max(math.frexp(a)[1], 0)
    sa, sr = math.ldexp(a, -e), math.ldexp(r, -e)
    gap = sa * sa - sr * sr
    if gap < -1e-12 * max(math.ldexp(1.0, -2 * e), sa * sa):
        raise ValueError(f"xi undefined: Re c - 1/2 = {a} < r = {r}")
    return math.ldexp(sa + math.sqrt(max(gap, 0.0)), e)


def xi(phi: AffineSymbol) -> float:
    """Largest half-plane parameter: the disc D(c, r) sits inside
    Re s > 1/2 tangentially measured by xi = (Re c - 1/2) + sqrt((Re c - 1/2)^2 - r^2)."""
    return _xi_from(phi.c.real - 0.5, phi.r)


def effective_constant(coeffs) -> float:
    """C = sum c_j^2 / (sum c_j)^2, the weight a mixed upper bound puts
    on the single-prime extreme; 1 for one prime, 1/d for uniform."""
    cv = _coeffs(coeffs)
    r = sum(cv)
    if not r > 0.0:
        raise ValueError("effective constant needs a nonzero coefficient vector")
    # scale by the power of two of r so that no square underflows; the
    # scaling is exact, so nothing moves where no square underflowed
    e = math.frexp(r)[1]
    scaled = [math.ldexp(x, -e) for x in cv]
    r = math.ldexp(r, -e)
    return float(sum(x * x for x in scaled)) / (r * r)


def annulus_radii(phi: AffineSymbol) -> tuple[float, float]:
    """(inner, outer) radii of the closure of the boundary curve
    |phi(it) - c|: outer is r, inner is max(0, 2 max_j c_j - r)."""
    r = phi.r
    if phi.d == 0 or r == 0.0:
        return (0.0, 0.0)
    return (max(0.0, 2.0 * max(phi.coeffs) - r), r)


# --- majorization ---------------------------------------------------------

def majorizes(b, c) -> bool:
    """Whether c majorizes b: equal sums and every descending prefix of
    c dominates the matching prefix of b."""
    bv = _coeffs(b)
    cv = _coeffs(c)
    if len(bv) != len(cv):
        raise ValueError("majorization compares vectors of equal length")
    sb, sc = sum(bv), sum(cv)
    if abs(sb - sc) > 1e-12 * max(1.0, sb, sc):
        raise ValueError(f"sum mismatch: {sb} vs {sc}")
    pb = np.cumsum(sorted(bv, reverse=True))
    pc = np.cumsum(sorted(cv, reverse=True))
    return bool(np.all(pb <= pc + 1e-12))


def _compose(q: tuple[int, ...], p: tuple[int, ...]) -> tuple[int, ...]:
    # (q then on top of p): result[i] = p[q[i]], i.e. apply p first.
    return tuple(p[i] for i in q)


def bvn_decompose(b, c) -> list[tuple[float, tuple[int, ...]]]:
    """Express b as a convex combination of coordinate permutations of c.

    Requires that c majorizes b.  Classical construction: sort both,
    repeatedly apply the pinch that moves surplus at the first offending
    coordinate to the first deficient one (each pinch is an average of
    the identity and a transposition, and retires at least one
    coordinate), then undo the sorting.  Returns (weight, perm) pairs
    with positive weights summing to 1, where perm is a tuple q acting
    by (q(c))[i] = c[q[i]].
    """
    bv = _coeffs(b)
    cv = _coeffs(c)
    if not majorizes(bv, cv):
        raise ValueError("decomposition requires the target to majorize the left vector")
    d = len(bv)
    sb = tuple(int(i) for i in np.argsort(-np.asarray(bv), kind="stable"))
    sc = tuple(int(i) for i in np.argsort(-np.asarray(cv), kind="stable"))
    inv_sb = tuple(int(i) for i in np.argsort(sb, kind="stable"))

    target = [bv[i] for i in sb]
    x = [cv[i] for i in sc]
    ident = tuple(range(d))
    mix: dict[tuple[int, ...], float] = {ident: 1.0}

    for _ in range(max(0, d - 1)):
        # first surplus / first deficit on the sorted scale
        i = next((k for k in range(d) if x[k] - target[k] > 1e-13), None)
        if i is None:
            break
        j = next((k for k in range(i + 1, d) if target[k] - x[k] > 1e-13), None)
        if j is None:
            break
        delta = min(x[i] - target[i], target[j] - x[j])
        lam = 1.0 - delta / (x[i] - x[j])
        tau = list(range(d))
        tau[i], tau[j] = j, i
        tau = tuple(tau)
        new_mix: dict[tuple[int, ...], float] = {}
        for perm, w in mix.items():
            new_mix[perm] = new_mix.get(perm, 0.0) + w * lam
            swapped = _compose(tau, perm)
            new_mix[swapped] = new_mix.get(swapped, 0.0) + w * (1.0 - lam)
        mix = {p: w for p, w in new_mix.items() if w > 1e-15}
        x[i] -= delta
        x[j] += delta

    # undo the sorting: b = inv_sb(x_final), x_final = sum w * perm(sc(c))
    out = []
    for perm, w in mix.items():
        full = _compose(inv_sb, _compose(perm, sc))
        out.append((w, full))
    out.sort(key=lambda t: (-t[0], t[1]))

    total = sum(w for w, _ in out)
    if abs(total - 1.0) > 1e-12:
        raise InequalityViolation(f"mixture weights sum to {total}, not 1")
    recon = np.zeros(d)
    for w, perm in out:
        recon += w * np.array([cv[perm[i]] for i in range(d)])
    if float(np.max(np.abs(recon - np.asarray(bv)))) > 1e-10:
        raise InequalityViolation("mixing decomposition failed to reconstruct the target")
    return out


# --- power means of normalized coefficient vectors ------------------------

def h2k_means(coeffs, K: int) -> np.ndarray:
    """m_k = || sum_j (c_j / r) p_j^{-s} ||_{2k}^{2k} for k = 0..K.

    Each m_k is the multinomial power sum
    sum_{|j| = k} (k! / prod j_i!)^2 prod (c_i / r)^{2 j_i} <= 1.
    Computed by folding one prime at a time: appending a prime with
    normalized mass p (previous mass q = 1 - p) convolves the profile
    with the squared binomial(k, p) weights — the powers of the new
    prime are multiplicatively independent of everything before, so
    picking the split is exact.  All intermediates stay in [0, 1].
    """
    cv = _coeffs(coeffs)
    if K < 0:
        raise ValueError("K must be nonnegative")
    active = [x for x in cv if x > 0.0]
    if not active:
        raise ValueError("power means need a nonzero coefficient vector")
    k = np.arange(K + 1)
    H = np.ones(K + 1)          # single prime: every power mean is 1
    rho = active[0]
    lg = np.array([math.lgamma(i + 1.0) for i in range(K + 1)])   # log i!
    kk = k[:, None]
    jj = k[None, :]
    lower = jj <= kk
    diff = np.where(lower, kk - jj, 0)
    lgbin = lg[kk] - lg[jj] - lg[diff]
    for ci in active[1:]:
        rho_new = rho + ci
        p = ci / rho_new
        q = rho / rho_new
        logg = 2.0 * (lgbin + diff * math.log(p) + jj * math.log(q))
        G = np.where(lower, np.exp(logg), 0.0)
        H = G @ H
        rho = rho_new
    return H


# --- composition norms ----------------------------------------------------

def _taylor_weights(f: DirichletPoly, c: complex, r: float, K: int) -> np.ndarray:
    """w_k = sum_n a_n n^{-c} (-r log n)^k / k! for k = 0..K, by the
    per-term recurrence cur *= (-r log n) / k (no large powers appear)."""
    sup = f.support
    a = np.array([f.coeff(n) for n in sup], dtype=complex)
    cur = a * np.array([n ** (-c) for n in sup], dtype=complex)
    fac = -r * np.log(np.array(sup, dtype=float))
    out = np.empty(K + 1, dtype=complex)
    out[0] = cur.sum()
    for k in range(1, K + 1):
        cur = cur * (fac / k)
        out[k] = cur.sum()
    return out


def _tail_log_bound(logA: float, x: float, K: int) -> float:
    """log of A^2 sum_{k > K} (x^k / k!)^2, bounded by the first term
    times a geometric series; +inf when the ratio has not turned over."""
    if x <= 0.0:
        return -math.inf
    ratio = (x / (K + 2.0)) ** 2
    if ratio >= 0.99:
        return math.inf
    first = 2.0 * ((K + 1.0) * math.log(x) - math.lgamma(K + 2.0))
    return 2.0 * logA + first - math.log1p(-ratio)


def _certified_K(f: DirichletPoly, re_c: float, r: float, K_max: int | None) -> int:
    """Smallest admissible truncation K with certified tail < 1e-10."""
    sup = f.support
    absA = sum(abs(f.coeff(n)) * n ** (-re_c) for n in sup)
    x = r * math.log(max(sup))
    logA = math.log(absA) if absA > 0.0 else -math.inf
    K = COMP_K_DEFAULT if K_max is None else int(K_max)
    cap = max(COMP_K_CAP, K)
    while True:
        lt = _tail_log_bound(logA, x, K)
        if lt < math.log(COMP_TAIL_TOL):
            return K
        if K >= cap:
            raise ValueError(
                f"truncation K={K} cannot certify the series tail below "
                f"{COMP_TAIL_TOL} (need roughly K > {math.e * x:.0f}); "
                "pass a larger K_max"
            )
        K = min(cap, 2 * K)


def comp_norm_sq(phi: AffineSymbol, f: DirichletPoly, K_max: int | None = None) -> float:
    """||f o phi||^2 via the derivative series with certified truncation.

    sum_k |w_k|^2 m_k with the scaled Taylor weights and the power means
    of the normalized coefficient vector; the twist never enters because
    twisting is a complete isometry on each convolution power.
    """
    if not f:
        return 0.0
    r = phi.r
    if r == 0.0 or phi.d == 0:
        return abs(evaluate(f, phi.c)) ** 2
    if max(f.support) == 1:
        return abs(f.coeff(1)) ** 2
    K = _certified_K(f, phi.c.real, r, K_max)
    means = h2k_means(phi.coeffs, K)
    w = _taylor_weights(f, phi.c, r, K)
    return float(np.sum((w.real**2 + w.imag**2) * means))


def comp_bruteforce_norm_sq(phi: AffineSymbol, f: DirichletPoly, K_max: int | None = None) -> float:
    """||f o phi||^2 assembled literally: f o phi = sum_k t_k line^k with
    t_k = sum_n a_n n^{-c} (-log n)^k / k! and line = sum_j c_j chi_j p_j^{-s}
    over the primes with c_j != 0, then the plain square norm.

    line^k is a dense array over the exponent vectors of total degree k,
    one axis per active prime but the last, which takes the rest; one
    multiplication by the line is one unshifted and one shifted add per
    axis.  The keys of layer k have total degree k, so each layer adds
    its own square sum.  Exponentially slower than `comp_norm_sq` and
    kept independent of it (no power means, binomial fold or multinomial
    formula), as the cross-check oracle.
    """
    if not f:
        return 0.0
    r = phi.r
    if r == 0.0 or phi.d == 0:
        return abs(evaluate(f, phi.c)) ** 2
    if max(f.support) == 1:
        return abs(f.coeff(1)) ** 2
    K = _certified_K(f, phi.c.real, r, K_max)
    if K > _BRUTE_K_CAP:
        raise ValueError(
            f"brute-force expansion needs K={K} convolution powers; "
            "use comp_norm_sq for symbols this wide"
        )
    *zs, z_last = [z for z in phi.effective_coeffs() if z != 0]
    if (K + 1) ** len(zs) > _BRUTE_LAYER_CAP:
        raise ValueError(
            f"brute-force expansion needs {K + 1}^{len(zs)} entries in its last "
            "layer; use comp_norm_sq for symbols this wide"
        )

    sup = f.support
    cur = np.array([f.coeff(n) * n ** (-phi.c) for n in sup], dtype=complex)
    neg_ln = -np.log(np.array(sup, dtype=float))

    total = 0.0
    power = np.ones((1,) * len(zs), dtype=complex)
    for k in range(K + 1):
        if k:
            cur = cur * (neg_ln / k)
            old = power
            power = np.zeros((k + 1,) * len(zs), dtype=complex)
            power[(slice(k),) * len(zs)] = z_last * old
            for j, z in enumerate(zs):
                at = [slice(k)] * len(zs)
                at[j] = slice(1, k + 1)
                power[tuple(at)] += z * old
        layer = complex(cur.sum()) * power
        total += float(np.sum(layer.real**2 + layer.imag**2))
    return total


# --- exact dominance of multinomial power sums ----------------------------

def _power_sums(vals: list, K: int) -> list:
    """S_k = sum over |j| = k of multinomial(k; j)^2 prod v_i^(2 j_i), k = 0..K.

    Folds in one entry v at a time, S_k <- sum_j C(k, j)^2 v^(2j) S_{k-j},
    because multinomial(k; j_1..j_d) = C(k, j_d) multinomial(k - j_d;
    j_1..j_{d-1}).  The arithmetic is that of the entries: ints and
    Fractions stay exact, floats stay floats.
    """
    S = [1] + [0] * K
    for v in vals:
        if v == 0:
            continue
        pw = [v ** (2 * j) for j in range(K + 1)]
        S = [
            sum(math.comb(k, j) ** 2 * pw[j] * S[k - j] for j in range(k + 1))
            for k in range(K + 1)
        ]
    return S


def hq_dominance(b, c, K: int = 60) -> list[tuple]:
    """Compare the multinomial power sums of two coefficient vectors.

    Returns [(k, lhs_k, rhs_k, ok)] for k = 1..K where lhs_k / rhs_k are
    the sums sum_{|j|=k} multinomial(k; j)^2 prod v^(2j) for b and c and
    ok means lhs_k <= rhs_k.  When both vectors consist of ints or
    Fractions the comparison is exact; otherwise floats are used.  The
    sums must agree (k = 1 is then an equality up to rounding).
    """
    if not isinstance(K, (int, np.integer)) or isinstance(K, bool) or K < 1:
        raise ValueError("K must be a positive integer")
    if K > 60:
        raise ValueError("exact dominance comparison is capped at K = 60")
    bl = list(b)
    cl = list(c)
    if len(bl) == 0 or len(cl) == 0:
        raise ValueError("dominance comparison needs nonempty vectors")
    exact = all(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in bl + cl)
    if exact:
        if sum(bl) != sum(cl):
            raise ValueError(f"sum mismatch: {sum(bl)} vs {sum(cl)}")
    else:
        bl = [float(v) for v in bl]
        cl = [float(v) for v in cl]
        if abs(sum(bl) - sum(cl)) > 1e-12 * max(1.0, sum(bl), sum(cl)):
            raise ValueError(f"sum mismatch: {sum(bl)} vs {sum(cl)}")
    lhs = _power_sums(bl, K)
    rhs = _power_sums(cl, K)
    return [(k, lhs[k], rhs[k], lhs[k] <= rhs[k]) for k in range(1, K + 1)]
