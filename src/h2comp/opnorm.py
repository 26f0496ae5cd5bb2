"""Norm brackets for composition operators: truncated matrices, kernel
quotients, and the closed-form upper/lower families.

Nothing in this module certifies an operator norm from above by
truncation — a finite section only ever under-approximates.  What it
certifies is the bracket

    max(applicable lower bounds)  <=  ||C_phi||^2  <=  min(applicable upper bounds)

assembled in a `BoundReport`.  Lower bounds come from four routes: the
value zeta(2 Re c) carried by the constant direction, suprema of
adjoint kernel quotients (closed-form for one prime, grid-refined for
several), the largest singular value of an explicit truncated matrix,
and reproducing-kernel quotients pushed through that matrix.  Upper
bounds are the closed forms: zeta(1 + xi) for a single prime, its
mixture with zeta(2 Re c) weighted by the effective constant, the
uniform-coefficient bound zeta(2 Re c)(1 + 1/d), and the averaged
refinement available on the diagonal Re c - 1/2 = r beyond the
crossing point alpha0.

The truncated matrix is exact arithmetic on the coefficient lattice:
column n holds the coefficients of n^{-phi(s)},

    A[k, n] = n^{-c} prod_j (-c_j log n)^{k_j} / k_j!,

whose square column sum approaches ||C_phi n^{-s}||^2 from below with a
certified per-column defect.  Each total-degree block of A has rank
one, so A = U M diag(n^{-i Im c}) with U an isometry and the real
(K_out + 1) x n_in degree factor M[t, n] = ||alpha_t|| n^{-Re c} (log n)^t.
The weights ||alpha_t||^2 do not depend on n: the factor and its
column defects read one vector of their logarithms (`_log_weights`).
The package never forms the lattice.  `build_matrix` is the one affine
section: it holds M and the phases n^{-i Im c}, one row per total
degree, and computes the certified defects the first time they are
read.  Every caller, `bound_suite` and `sigma_max_series` included,
takes the section's norm from `sigma_max_sq` (the Gram matrix of M)
and its kernel quotients from `kernel_quotient` (||M (phase v)||).

The separate family phi_alpha(s) = 1/2 + alpha (1 - 2^{-s})/(1 + 2^{-s})
maps into the powers-of-two lattice, and it needs no section: the
images of the monomials n^{-s}, n <= n_in, have the closed-form Gram
matrix G[n, m] = (nm)^{-1/2} (min(n, m)/max(n, m))^alpha, whose top
eigenvalue `_family_gram_lower` finds by power iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .affine import (
    AffineSymbol,
    _tail_log_bound,
    _xi_from,
    effective_constant,
    xi,
)
from .errors import InequalityViolation, NonConvergence
from .zeta import (
    LambdaSpec,
    PrimeSemigroup,
    alpha0,
    zeta,
)

__all__ = [
    "TruncatedOperator",
    "BoundEntry",
    "BoundReport",
    "build_matrix",
    "sigma_max_sq",
    "sigma_max_series",
    "kernel_quotient",
    "kernel_quotient_report",
    "KernelQuotientReport",
    "adjoint_bound_general",
    "adjoint_bound_2s",
    "bound_suite",
    "PhiAlphaSymbol",
    "suite_for_phi_alpha",
]

# section caps (`_check_section`): entries of the (K_out + 1) x n_in
# factor (and columns of the family's Gram), and the output degree,
# which also caps the column-defect tail K_big and so bounds the
# O((d - 1) K^2) convolution of the degree weights
_ENTRY_CAP = 8_000_000
_K_CAP = 4000
# Brent refinement of the adjoint suprema: step cap and relative
# tolerance (the square root of the float64 epsilon)
_BRENT_ITERS = 60
_BRENT_RTOL = 1.5e-8
_GATE_TOL = 1e-9
# real kernel points of the bound suite's quotient entry
_KERNEL_SIGMAS = (0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0)
# step cap of the power iteration on the family's column Gram
_POWER_ITERS = 1000


# --- truncated matrices ---------------------------------------------------

@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """Finite section of an affine composition operator on the
    coefficient side.

    The entries are `factor * phase`: the real degree factor and the
    column phases n^{-i Im c}.  Columns are indexed by the input
    frequencies `input_ns` = 1..n_in; row t is the total degree t.
    `column_defects[i]` is a certified upper bound on
    ||C_phi n^{-s}||^2 minus the truncated column square sum, so
    truncated column norms are exact up to a known gap; it is computed
    from the builder's `make_defects` the first time it is read.
    """

    symbol: AffineSymbol
    factor: np.ndarray
    phase: np.ndarray
    make_defects: Callable[[], np.ndarray] = field(repr=False)

    @property
    def entries(self) -> np.ndarray:
        return self.factor * self.phase

    @property
    def input_ns(self) -> tuple[int, ...]:
        return tuple(range(1, self.factor.shape[1] + 1))

    @cached_property
    def column_defects(self) -> np.ndarray:
        return self.make_defects()

    def column_norm_sq(self) -> np.ndarray:
        return np.sum(self.factor**2, axis=0)


def _log_weights(moduli: Sequence[float], K: int) -> np.ndarray:
    """log ||alpha_t||^2 for t <= K: the multinomial sum over |k| = t of
    prod_j c_j^{2 k_j} / (k_j!)^2 (= m_t r^{2t} / (t!)^2), as a log-sum-exp
    convolution of the active primes' rows 2k log c_j - 2 log k!, 32
    output degrees at a time, in O(K) memory."""
    lg = np.array([math.lgamma(k + 1.0) for k in range(K + 1)])
    lw, *rest = [2.0 * (np.arange(K + 1) * math.log(c) - lg) for c in moduli]
    for row in rest:
        # W[t, k] = lw[t - k], and -inf for k > t: a strided view of lw
        W = sliding_window_view(np.concatenate((np.full(K, -np.inf), lw)), K + 1)[:, ::-1]
        lw = np.empty(K + 1)
        for t in range(0, K + 1, 32):
            S = W[t : t + 32, : t + 32] + row[: t + 32]
            top = S.max(axis=1)
            lw[t : t + 32] = top + np.log(np.exp(S - top[:, None]).sum(axis=1))
    return lw


def _column_defects(re_c: float, moduli: Sequence[float], ns: np.ndarray, K_out: int) -> np.ndarray:
    """Certified series tails: the mass of column n beyond degree K_out.

    Each term n^{-2 Re c} ||alpha_K||^2 (log n)^{2K} and the remainder
    bound are formed from logarithms (`_log_weights`), so no power or
    factorial has to fit a float.  Since ||alpha_K||^2 <= r^{2K}/(K!)^2,
    a whole column is at most n^{-2(Re c - r)}, and no defect exceeds
    that.  If the remainder bound has turned over by K_big = _K_CAP in
    no column, every defect is that bound and no tail term is summed."""
    ns = ns.astype(float)
    x = float(sum(moduli)) * np.log(ns)
    out = np.zeros(len(ns))
    live = x > 0.0
    if not live.any():
        return out
    K_big, xmax = K_out, float(x.max())
    while _tail_log_bound(0.0, xmax, K_big) > math.log(1e-22) and K_big < _K_CAP:
        K_big += 8
    la = -re_c * np.log(ns[live])
    bound = np.exp(2.0 * (la + x[live]))
    remainder = np.array([math.exp(_tail_log_bound(a, xi_, K_big)) for a, xi_ in zip(la, x[live])])
    if np.isfinite(remainder).any():
        lw = _log_weights(moduli, K_big)
        lln = np.log(np.log(ns[live]))
        acc = sum(np.exp(2.0 * (la + K * lln) + lw[K]) for K in range(K_out + 1, K_big + 1))
        bound = np.minimum(acc + remainder, bound)
    out[live] = bound
    return out


def _check_section(n_in: int, K_out: int) -> None:
    """Raise ValueError unless an affine section has at least one input
    column, an output degree 0 <= K_out <= _K_CAP and at most _ENTRY_CAP
    entries in its (K_out + 1) x n_in factor."""
    if n_in < 1 or not 0 <= K_out <= _K_CAP or (K_out + 1) * n_in > _ENTRY_CAP:
        raise ValueError(
            f"section of {K_out + 1} x {n_in} is outside the caps "
            f"(n_in >= 1, 0 <= K_out <= {_K_CAP}, {_ENTRY_CAP} entries)"
        )


def build_matrix(phi: AffineSymbol, n_in: int, K_out: int) -> TruncatedOperator:
    """Truncated coefficient matrix of C_phi: the lattice section A as
    A = U M diag(phase), with U an isometry, the real (K + 1) x n_in
    degree factor M and phase[n] = n^{-i Im c}.

    Input frequencies 1..n_in; output rows the total degrees t <= K
    (K_out, or 0 with no active prime).  The degree-t block of A is
    alpha_t (x) n^{-c} (log n)^t with alpha_t[k] = prod_j (-c_j)^{k_j} /
    k_j!, a rank-one block, so M[t, n] = ||alpha_t|| n^{-Re c} (log n)^t,
    and singular values, column norms and every ||A v|| = ||M (phase v)||
    are those of the lattice matrix.  Row 0 is n^{-Re c}, and row t is
    row t - 1 times log n ||alpha_t|| / ||alpha_{t-1}|| (`_log_weights`);
    every entry is at most n^{-(Re c - r)} <= 1, so no step overflows.
    Column n = 1 is the unit vector at degree 0: constants map to
    constants.  The section size is checked against the caps; the
    certified column defects are computed on first read."""
    _check_section(n_in, K_out)
    moduli = [x for x in phi.coeffs if x > 0.0]
    K = K_out if moduli else 0
    M = np.zeros((K + 1, n_in))
    M[0, 0] = 1.0
    ns = np.arange(2, n_in + 1, dtype=float)  # columns n >= 2
    M[0, 1:] = ns ** (-phi.c.real)
    if K:
        ln = np.log(ns)
        step = np.exp(np.diff(_log_weights(moduli, K)) / 2.0)
        for t in range(1, K + 1):
            M[t, 1:] = M[t - 1, 1:] * ln * step[t - 1]
    phase = np.array([n ** complex(0.0, -phi.c.imag) for n in range(1, n_in + 1)])
    return TruncatedOperator(
        symbol=phi,
        factor=M,
        phase=phase,
        make_defects=lambda: _column_defects(phi.c.real, moduli, np.arange(1, n_in + 1), K_out),
    )


def sigma_max_sq(op: TruncatedOperator) -> float:
    """Largest squared singular value of the section: the top eigenvalue
    of the smaller Gram matrix of its real factor (the phases cancel),
    from LAPACK's Hermitian eigensolver.

    The result is a valid lower bound for the full operator's squared
    norm: a finite section never exceeds it.
    """
    A = op.factor
    rows, cols = A.shape
    G = A @ A.T if rows <= cols else A.T @ A
    try:
        return float(np.linalg.eigvalsh(G)[-1])
    except np.linalg.LinAlgError as e:
        # a LinAlgError is a ValueError, which would read as bad input
        raise NonConvergence(f"Hermitian eigensolver failed: {e}") from None


def sigma_max_series(phi: AffineSymbol, levels: Sequence[tuple[int, int]]) -> list[tuple[int, int, float]]:
    """sigma_max^2 at increasing truncation levels [(n_in, K_out), ...]."""
    return [(n_in, K_out, sigma_max_sq(build_matrix(phi, n_in, K_out))) for n_in, K_out in levels]


# --- kernel quotients -----------------------------------------------------

@dataclass(frozen=True)
class KernelQuotientReport:
    """Quotient ||A k_w|| / ||k_w|| through a finite section, with the two
    truncation defects needed to relate it to the untruncated quotient."""

    ratio: float
    image_defect: float     # additive bound lost from dropped output rows
    kernel_tail: float      # relative mass of the kernel beyond the input columns


def _kernel_point(op: TruncatedOperator, w: float) -> tuple[np.ndarray, float]:
    """The section's input frequencies as floats, and w as a real kernel
    point; raises ValueError unless w is real and w > 1/2."""
    ww = complex(w)
    if ww.imag != 0.0 or not ww.real > 0.5:
        raise ValueError("kernel points need a real w > 1/2")
    return np.arange(1, op.factor.shape[1] + 1, dtype=float), ww.real


def kernel_quotient(op: TruncatedOperator, w: float) -> float:
    """||A k_w|| / ||k_w|| through the section A at a real w > 1/2, with
    the kernel truncated to the input columns, v[n] = n^{-w}: through
    the factor, ||M (phase v)|| / ||v||.  Any such quotient is a true
    lower bound for the operator norm."""
    ns, s = _kernel_point(op, w)
    v = ns**-s
    image = op.factor @ (op.phase * v)
    return float(np.linalg.norm(image)) / float(np.linalg.norm(v))


def kernel_quotient_report(op: TruncatedOperator, w: float) -> KernelQuotientReport:
    """`kernel_quotient` of the section at a real w > 1/2, with (i)
    sum v_n sqrt(defect_n) / ||v||, bounding what the dropped output rows
    could add, and (ii) the relative square-mass of the kernel beyond
    the last input column."""
    ratio = kernel_quotient(op, w)
    ns, s = _kernel_point(op, w)
    v = ns**-s
    nv = float(np.linalg.norm(v))
    image_defect = float(np.sum(v * np.sqrt(np.maximum(op.column_defects, 0.0)))) / nv
    trunc = float(np.sum(ns ** (-2.0 * s)))
    kernel_tail = math.sqrt(max(zeta(2.0 * s) - trunc, 0.0)) / nv
    return KernelQuotientReport(ratio=ratio, image_defect=image_defect, kernel_tail=kernel_tail)


# --- adjoint suprema ------------------------------------------------------

def _brent_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Brent's maximum of a unimodal-enough f on [lo, hi] (Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 5):
    parabolic steps through the three best points, golden-section steps
    where a parabola is not trusted.  It stops once the bracket lies
    within `_BRENT_RTOL * |x|` of the best point x, or after
    `_BRENT_ITERS` steps, and evaluates f only inside [lo, hi].
    Returns the best point and its value."""
    cgold = (3.0 - math.sqrt(5.0)) / 2.0
    a, b = lo, hi
    x = w = v = a + cgold * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    for _ in range(_BRENT_ITERS):
        m = 0.5 * (a + b)
        tol = _BRENT_RTOL * abs(x)
        tol2 = 2.0 * tol
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol:
            # vertex x + p/q of the parabola through (x, w, v)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = tol if x < m else -tol
                parabolic = True
        if not parabolic:
            e = (a - x) if x >= m else (b - x)
            d = cgold * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu >= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def _refined_grid_max(f, xs, vals, lo_edge: float, hi_edge: float) -> float:
    """The best grid value vals[i] = f(xs[i]), or Brent's maximum of f
    between the neighbours of that grid point if it is larger, so the
    result is never below the grid maximum.  At either end of the grid,
    lo_edge or hi_edge stands in for the missing neighbour."""
    i = int(np.argmax(vals))
    lo = xs[i - 1] if i > 0 else lo_edge
    hi = xs[i + 1] if i + 1 < len(xs) else hi_edge
    return max(vals[i], _brent_max(f, lo, hi)[1])


def adjoint_bound_general(phi: AffineSymbol, spec: LambdaSpec, sigma_grid) -> float:
    """Lower bound sup_sigma zeta(2 min-Re phi(sigma)) / zeta_Lambda(2 sigma).

    Kernels supported on a thinner frequency set Lambda keep the full
    image kernel upstairs while shrinking the denominator; the symbol's
    real part is taken at its vertical-limit minimum, which a rotation
    of the coefficients attains.  Grid maximum plus Brent's refinement
    between its neighbours (`_refined_grid_max`).
    """
    grid = sorted(float(s) for s in sigma_grid)
    if not grid:
        raise ValueError("sigma grid is empty")
    half_absc = spec.abscissa / 2.0
    if grid[0] <= half_absc:
        raise ValueError(
            f"sigma grid must stay strictly above {half_absc} for this frequency set"
        )

    # every point q is evaluated at, grid or refinement, lies above
    # half_absc, so the Dirichlet sum is called without re-validation
    c_re = phi.c.real
    terms = tuple((cj, float(p)) for cj, p in zip(phi.coeffs, phi.primes))
    dirichlet_sum = spec.dirichlet_sum

    def min_re(sigma: float) -> float:
        """Minimal real part of the symbol over its vertical limits at Re s = sigma."""
        return c_re - sum(cj * p ** (-sigma) for cj, p in terms)

    def q(sigma: float) -> float:
        return zeta(2.0 * min_re(sigma)) / dirichlet_sum(2.0 * sigma)

    # the grid scan is q point by point with the zeta calls gathered
    # into one vector call; `min_re` and the Dirichlet sum stay scalar
    num = zeta(np.array([2.0 * min_re(s) for s in grid]))
    vals = num / np.array([dirichlet_sum(2.0 * s) for s in grid])
    return _refined_grid_max(q, grid, vals, half_absc + 0.5 * (grid[0] - half_absc), grid[-1] * 1.5)


def adjoint_bound_2s(c: complex, r: float) -> float:
    """sup over 0 < x <= 1 of (2 - x) x zeta(2 Re c - 2 r (1 - x)),
    the closed-form adjoint supremum for the one-prime symbol c + r 2^{-s}.

    Requires Re c - 1/2 >= r > 0.  The x -> 0+ boundary contributes
    1/r exactly when 2 Re c - 2 r = 1 (and nothing otherwise); the
    interior is scanned on a log grid, refined by Brent's method, and
    the point x = 1 - r/xi — where the generic interior maximum proves
    the 1/xi comparison — is always included as a candidate.  The grid
    stays away from 0: on the diagonal the zeta argument there sits so
    close to 1 that rounding it inflates the pole past the true
    boundary limit, which is supplied exactly instead.
    """
    cc = complex(c)
    rr = float(r)
    a = cc.real - 0.5
    if not (rr > 0.0 and a >= rr - 1e-12):
        raise ValueError("need Re c - 1/2 >= r > 0")
    base = 2.0 * cc.real - 2.0 * rr  # >= 1 up to rounding

    def g(x: float) -> float:
        arg = base + 2.0 * rr * x
        if arg <= 1.0:
            return 0.0
        return (2.0 - x) * x * zeta(arg)

    xs = np.geomspace(1e-5, 1.0, 512)
    x_val = _xi_from(max(a, rr), rr)
    # the grid is strictly increasing, so a sorted append of a point not
    # on it keeps every point once (np.unique would first import
    # numpy.ma, about 18 ms per process)
    if x_val > rr:
        x_xi = 1.0 - rr / x_val
        if x_xi not in xs:
            xs = np.sort(np.append(xs, x_xi))
    # g on the whole grid, with one vector zeta call
    args = base + 2.0 * rr * xs
    live = args > 1.0
    vals = np.zeros(len(xs))
    vals[live] = (2.0 - xs[live]) * xs[live] * zeta(args[live])
    best = _refined_grid_max(g, xs, vals, xs[0], 1.0)
    if abs(base - 1.0) <= 1e-12:
        best = max(best, 1.0 / rr)
    return best


# --- bound reports --------------------------------------------------------

# Every entry of a bound report, in report order: its key, its side, the
# kind of symbol whose suite computes it ("any" for both suites) and, if
# its suite may find it inapplicable, the condition it needs.  A report
# on one kind lists the other kind's entries as inapplicable.
_ENTRIES = (
    ("genlower", "lower", "any", None),
    ("adjoint_lower", "lower", "any", None),
    ("matrix_lower", "lower", "any", None),
    ("kernel_S_lower", "lower", "any", None),
    ("brevig_lower", "lower", "family", None),
    ("mpq_upper", "upper", "affine", "several active primes: only the mixture bound applies"),
    ("combo_upper", "upper", "affine", "no prime part"),
    ("smallnorm_upper", "upper", "affine", "coefficients not uniform"),
    ("newupper", "upper", "affine",
     "needs one prime, Re c - 1/2 = r, and r at least the crossing point"),
    ("brevig_upper", "upper", "family", None),
)
LOWER_KEYS = tuple(key for key, side, _, _ in _ENTRIES if side == "lower")
UPPER_KEYS = tuple(key for key, side, _, _ in _ENTRIES if side == "upper")
ENTRY_ORDER = tuple(key for key, _, _, _ in _ENTRIES)
# provenance of an entry in a report on the other kind of symbol
_ONLY_FOR = {"affine": "affine-symbol bound only", "family": "only for the interpolation family"}


@dataclass(frozen=True)
class BoundEntry:
    value: float
    applicable: bool
    provenance: str


@dataclass
class BoundReport:
    """Named lower/upper bounds for a squared operator norm, with the
    consistency gate max(lowers) <= min(uppers) + 1e-9, and the section
    size (n_in input columns, output degree k_out, None for the family)
    its suite used."""

    entries: dict[str, BoundEntry] = field(default_factory=dict)
    n_in: int | None = None
    k_out: int | None = None

    def applicable(self, keys: Sequence[str]) -> dict[str, float]:
        return {
            k: self.entries[k].value
            for k in keys
            if k in self.entries and self.entries[k].applicable
        }

    def max_lower(self) -> float:
        vals = self.applicable(LOWER_KEYS)
        return max(vals.values()) if vals else -math.inf

    def min_upper(self) -> float:
        vals = self.applicable(UPPER_KEYS)
        return min(vals.values()) if vals else math.inf

    def bracket(self) -> tuple[float, float]:
        return (self.max_lower(), self.min_upper())

    def violations(self) -> list[str]:
        lows = self.applicable(LOWER_KEYS)
        ups = self.applicable(UPPER_KEYS)
        out = []
        for lk, lv in lows.items():
            for uk, uv in ups.items():
                if lv > uv + _GATE_TOL:
                    out.append(f"{lk}={lv:.15g} exceeds {uk}={uv:.15g} by {lv - uv:.3g}")
        return out

    def gate_ok(self) -> bool:
        return not self.violations()

    def to_jsonable(self) -> dict:
        ent = {}
        for k in ENTRY_ORDER:
            if k not in self.entries:
                continue
            e = self.entries[k]
            ent[k] = {
                "value": e.value if math.isfinite(e.value) else None,
                "applicable": e.applicable,
                "provenance": e.provenance,
            }
        lo, hi = self.bracket()
        return {
            "entries": ent,
            "bracket": {
                "max_lower": lo if math.isfinite(lo) else None,
                "min_upper": hi if math.isfinite(hi) else None,
            },
            "gate_ok": self.gate_ok(),
            "violations": self.violations(),
        }


def _active_primes(phi: AffineSymbol) -> int:
    return sum(1 for x in phi.coeffs if x > 0)


def _truncation(kind: str, n_in: int | None, K_out: int | None) -> tuple[int, int | None]:
    """The section size (n_in, K_out) of a report on a symbol of `kind`,
    with None for a size that takes the kind's default: 64 columns and
    output degree 40 for affine symbols, 512 columns for the family,
    whose column Gram has no output degree (K_out is None)."""
    if kind == "family":
        return (512 if n_in is None else n_in), None
    return (64 if n_in is None else n_in), (40 if K_out is None else K_out)


def _report(kind: str, entries: dict[str, BoundEntry], n_in: int, k_out: int | None) -> BoundReport:
    """The report on a symbol of `kind` from the entries its suite found
    applicable, in table order; every other entry is a placeholder that
    names the condition it needs or the kind it belongs to."""
    rep = BoundReport(n_in=n_in, k_out=k_out)
    for key, _, owner, needs in _ENTRIES:
        reason = needs if owner in ("any", kind) else _ONLY_FOR[owner]
        rep.entries[key] = entries.get(key, BoundEntry(math.nan, False, reason))
    return rep


def _adjoint_entry(phi: AffineSymbol) -> BoundEntry:
    """The `adjoint_lower` entry of `bound_suite`: the trivial kernel for
    a constant symbol, the closed form for one active prime, and the
    quotient restricted to the active primes' frequencies otherwise."""
    r = phi.r
    if r == 0.0:
        return BoundEntry(
            zeta(2.0 * phi.c.real), True, "degenerate constant symbol: adjoint of the trivial kernel"
        )
    if _active_primes(phi) == 1:
        return BoundEntry(adjoint_bound_2s(phi.c, r), True, "closed-form one-prime adjoint supremum")
    spec = PrimeSemigroup(tuple(p for p, cj in zip(phi.primes, phi.coeffs) if cj > 0))
    return BoundEntry(
        adjoint_bound_general(phi, spec, np.geomspace(0.1, 50.0, 96)),
        True,
        "restricted-frequency adjoint quotient, grid plus Brent refinement",
    )


def bound_suite(phi: AffineSymbol, n_in: int | None = None, K_out: int | None = None) -> BoundReport:
    """Assemble every applicable bound for ||C_phi||^2.

    The matrix and kernel entries read the `build_matrix` section of
    n_in columns and output degree K_out (defaults as in `_truncation`);
    they need no column defects.
    """
    re_c = phi.c.real
    gap = re_c - 0.5
    r = phi.r
    d_all = phi.d
    d_act = _active_primes(phi)
    n_in, K_out = _truncation("affine", n_in, K_out)
    e: dict[str, BoundEntry] = {}
    e["genlower"] = BoundEntry(
        zeta(2.0 * re_c), True, "square norm of the image of the constant-direction kernel"
    )

    e["adjoint_lower"] = _adjoint_entry(phi)

    op = build_matrix(phi, n_in, K_out)
    e["matrix_lower"] = BoundEntry(
        sigma_max_sq(op),
        True,
        f"largest singular value of the {math.comb(K_out + d_act, d_act)}x{n_in} section (K_out={K_out})",
    )
    e["kernel_S_lower"] = BoundEntry(
        max(kernel_quotient(op, s) ** 2 for s in _KERNEL_SIGMAS),
        True,
        "best truncated reproducing-kernel quotient on the real grid",
    )

    # the upper entries below are written only where they apply; the
    # table names what each one needs
    if d_act <= 1:
        e["mpq_upper"] = BoundEntry(
            zeta(1.0 + _xi_from(gap, r)), True, "one-prime contraction to the widest half-plane"
        )
    if r > 0.0:
        C = effective_constant(phi.coeffs)
        e["combo_upper"] = BoundEntry(
            (1.0 - C) * zeta(2.0 * re_c) + C * zeta(1.0 + _xi_from(gap, r)),
            True,
            f"effective-constant mixture with C={C:.15g}",
        )
    uniform = (
        d_all >= 1
        and r > 0.0
        and (max(phi.coeffs) - min(phi.coeffs)) <= 1e-12 * max(phi.coeffs)
    )
    if uniform:
        e["smallnorm_upper"] = BoundEntry(
            zeta(2.0 * re_c) * (1.0 + 1.0 / d_all), True, f"uniform coefficients over d={d_all} primes"
        )
    on_diag = d_act == 1 and abs(gap - r) <= 1e-12
    if on_diag and r >= alpha0() - 1e-12:
        e["newupper"] = BoundEntry(
            0.5 * (zeta(1.0 + 2.0 * r) + zeta(1.0 + r)),
            True,
            "averaged half-sum refinement on the diagonal",
        )
    return _report("affine", e, n_in, K_out)


# --- the interpolation family phi_alpha -----------------------------------

@dataclass(frozen=True)
class PhiAlphaSymbol:
    """phi_alpha(s) = 1/2 + alpha (1 - 2^{-s}) / (1 + 2^{-s}), alpha > 0.

    Fixes the half-plane boundary (as s -> 0 along the line) and sends
    +infinity to 1/2 + alpha; its image Dirichlet series live on the
    powers-of-two lattice.
    """

    alpha: float

    def __post_init__(self):
        if not float(self.alpha) > 0.0:
            raise ValueError("alpha must be positive")
        object.__setattr__(self, "alpha", float(self.alpha))

    def to_jsonable(self) -> dict:
        return {"alpha": self.alpha}


def _family_gram_lower(alpha: float, n_in: int) -> float:
    """Top eigenvalue of the family's column Gram on n = 1..n_in, the
    squared norm of C_{phi_alpha} on the first n_in monomials.

    Image n is n^{-(1/2+alpha)} exp(beta_n z/(1+z)) on the lattice's
    circle, beta_n = 2 alpha log n, where z/(1+z) = 1/2 + (i/2) tan(theta/2)
    and tan(theta/2) is standard Cauchy (characteristic function
    e^{-|t|}), so G[n, m] = (nm)^{-1/2} (min(n, m)/max(n, m))^alpha.
    G v is two cumulative sums, n^{-alpha-1/2} cumsum(m^{alpha-1/2} v)
    plus n^{alpha-1/2} times the exclusive reverse cumsum of
    m^{-alpha-1/2} v, with no BLAS call.  Power iteration from
    v = n^{-alpha-1/2} stops at the first Rayleigh quotient that does
    not rise, or after `_POWER_ITERS` steps; every quotient is a lower
    bound, so is the result."""
    if not 1 <= n_in <= _ENTRY_CAP:
        raise ValueError(f"the family's Gram needs 1 <= n_in <= {_ENTRY_CAP}, got {n_in}")
    # n^{alpha - 1/2} reaches e^{alpha log n_in}; keep that inside double range
    if 2.0 * float(alpha) * math.log(n_in) > 1250.0:
        raise ValueError("alpha * log(n_in) too large: coefficients overflow doubles")
    lnn = np.log(np.arange(1, n_in + 1, dtype=float))
    down = np.exp(-(alpha + 0.5) * lnn)
    up = np.exp((alpha - 0.5) * lnn)
    v, best = down, 0.0
    for _ in range(_POWER_ITERS):
        v = v / math.sqrt(np.sum(v * v))
        x = down * v
        w = down * np.cumsum(up * v) + up * np.append(np.cumsum(x[:0:-1])[::-1], 0.0)
        q = float(np.sum(v * w))
        if not q > best:
            break
        best, v = q, w
    return best


def phi_alpha_kernel_ratio_sq(alpha: float, w: float) -> float:
    """Exact square of the kernel quotient for the family at real w > 0.

    The adjoint sends the lattice kernel at w to the full-space kernel
    at phi_alpha(w), so the quotient is zeta(2 phi_alpha(w)) * (1 - 4^{-w})
    in closed form; it climbs to 2/alpha as w -> 0."""
    a = float(alpha)
    if not a > 0.0:
        raise ValueError("alpha must be positive")
    if not w > 0.0:
        raise ValueError("the lattice kernel needs w > 0")
    t = 2.0 ** (-float(w))
    x = (1.0 - t) / (1.0 + t)
    return (1.0 - t * t) * zeta(1.0 + 2.0 * a * x)


def phi_alpha_adjoint_sup(alpha: float) -> float:
    """sup over 0 < x <= 1 of 4x/(1+x)^2 * zeta(1 + 2 alpha x), with its
    boundary limits 2/alpha (x -> 0) and zeta(1 + 2 alpha) (x = 1).

    Both limits enter as exact closed-form candidates, so the sampled
    grid stays away from 0, where rounding 1 + 2 alpha x would otherwise
    inflate the zeta pole and break the lower-bound guarantee."""
    a = float(alpha)
    if not a > 0.0:
        raise ValueError("alpha must be positive")

    def g(x: float) -> float:
        if x <= 0.0:
            return 0.0
        return 4.0 * x / (1.0 + x) ** 2 * zeta(1.0 + 2.0 * a * x)

    xs = np.geomspace(1e-5, 1.0, 512)
    # g on the whole grid, with one vector zeta call
    vals = 4.0 * xs / (1.0 + xs) ** 2 * zeta(1.0 + 2.0 * a * xs)
    return max(_refined_grid_max(g, xs, vals, xs[0] * 0.5, 1.0), 2.0 / a, zeta(1.0 + 2.0 * a))


def _family_kernel_entry(alpha: float) -> BoundEntry:
    """The `kernel_S_lower` entry of `suite_for_phi_alpha`: the best exact
    kernel quotient over 64 real points from 1e-4 to 4; it needs no
    section."""
    best = max(phi_alpha_kernel_ratio_sq(alpha, float(w)) for w in np.geomspace(1e-4, 4.0, 64))
    return BoundEntry(best, True, "best exact kernel quotient over real points near 0")


def suite_for_phi_alpha(alpha: float, n_in: int | None = None) -> BoundReport:
    """Bound report for the interpolation family.

    The closed-form bracket is max(2/alpha, zeta(1+2 alpha)) from below
    and max(2/alpha, zeta(1+alpha)) from above; below the crossing point
    alpha0 both collapse to 2/alpha and the report certifies the norm
    exactly.  The matrix entry is the top eigenvalue of the closed-form
    column Gram on n_in input columns (`_family_gram_lower`; default as
    in `_truncation`), with no output degree; the kernel entry evaluates
    the exact quotient on a grid of real points near 0.
    """
    a = float(alpha)
    n_in, _ = _truncation("family", n_in, None)
    lower = max(2.0 / a, zeta(1.0 + 2.0 * a))
    upper = max(2.0 / a, zeta(1.0 + a))
    if a <= alpha0():
        if abs(lower - 2.0 / a) > 1e-12 * max(1.0, 2.0 / a) or abs(upper - 2.0 / a) > 1e-12 * max(1.0, 2.0 / a):
            raise InequalityViolation(
                "below the crossing point both closed-form bounds must equal 2/alpha"
            )
    e: dict[str, BoundEntry] = {}
    e["genlower"] = BoundEntry(
        zeta(1.0 + 2.0 * a), True, "square norm of the image of the constant-direction kernel"
    )
    e["brevig_lower"] = BoundEntry(lower, True, "closed-form family bracket, lower side")
    e["brevig_upper"] = BoundEntry(upper, True, "closed-form family bracket, upper side")
    e["adjoint_lower"] = BoundEntry(
        phi_alpha_adjoint_sup(a), True, "kernel-line adjoint supremum for the family"
    )
    e["matrix_lower"] = BoundEntry(
        _family_gram_lower(a, n_in),
        True,
        f"top eigenvalue of the closed-form column Gram on {n_in} columns, by power iteration",
    )
    e["kernel_S_lower"] = _family_kernel_entry(a)
    return _report("family", e, n_in, None)
