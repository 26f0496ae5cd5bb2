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
certified per-column defect.  The separate family phi_alpha(s) =
1/2 + alpha (1 - 2^{-s})/(1 + 2^{-s}) maps into the powers-of-two
lattice; its columns have the exact closed-form square norm 1/n, which
makes the truncation defect exactly computable as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .affine import (
    AffineSymbol,
    _tail_log_bound,
    _xi_from,
    effective_constant,
    h2k_means,
    in_gordon_hedenmalm,
    xi,
)
from .errors import InequalityViolation, NonConvergence
from .zeta import (
    FullIntegers,
    GeometricPowers,
    LambdaSpec,
    PrimeSemigroup,
    abscissa,
    alpha0,
    zeta,
    zeta_lambda,
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
    "phi_alpha_operator",
    "suite_for_phi_alpha",
]

_ROW_CAP = 200_000
_ENTRY_CAP = 8_000_000
_BLOCK_ENTRIES = 16_384     # rows x columns per block of the last lattice product (256 KB)
_GOLDEN_ITERS = 60
_GATE_TOL = 1e-9
# real kernel points of the bound suite's quotient entry
_KERNEL_SIGMAS = (0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0)


# --- truncated matrices ---------------------------------------------------

@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """Finite section of a composition operator on the coefficient side.

    Columns are indexed by the input frequencies `input_ns`; rows by
    multi-indices on the output lattice (exponents over the active
    primes, total degree <= K_out).  `column_defects[i]` is a certified
    upper bound on ||C_phi n^{-s}||^2 minus the truncated column square
    sum, so truncated column norms are exact up to a known gap.
    """

    symbol: object
    input_ns: tuple[int, ...]
    out_indices: tuple[tuple[int, ...], ...]
    entries: np.ndarray
    column_defects: np.ndarray

    def column_norm_sq(self) -> np.ndarray:
        return np.sum(np.abs(self.entries) ** 2, axis=0)


@lru_cache(maxsize=32)
def _multi_indices(d: int, K: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors ordered by total degree, then lexicographically.

    Cached: every symbol with the same active-prime count and K_out
    shares one lattice, and the tuple result is immutable."""
    if d == 0:
        return ((),)
    out: list[tuple[int, ...]] = []

    def fill(prefix: tuple[int, ...], rem_dims: int, rem_total: int):
        if rem_dims == 1:
            out.append(prefix + (rem_total,))
            return
        for first in range(rem_total + 1):
            fill(prefix + (first,), rem_dims - 1, rem_total - first)

    for total in range(K + 1):
        fill((), d, total)
    return tuple(out)


@lru_cache(maxsize=32)
def _product_plan(d: int, K: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Gather plan for the lattice products of `build_matrix`, one level per prime.

    Level j lists the distinct prefixes (k_0, ..., k_j) of the rows of
    `_multi_indices(d, K)` as read-only (parent, exponent) index arrays:
    entry i is entry parent[i] of level j - 1 (level -1 is the single
    n^{-c} row) times F_j[exponent[i]].  The last level is the rows
    themselves, in row order.
    """
    idx = _multi_indices(d, K)
    plan = []
    prev = {(): 0}
    for j in range(d):
        level = list(dict.fromkeys(k[: j + 1] for k in idx))
        parent = np.array([prev[p[:-1]] for p in level], dtype=np.intp)
        expo = np.array([p[-1] for p in level], dtype=np.intp)
        parent.flags.writeable = expo.flags.writeable = False
        plan.append((parent, expo))
        prev = {p: i for i, p in enumerate(level)}
    return tuple(plan)


def _factor_tables(t: np.ndarray, K: int) -> np.ndarray:
    """F[j, e] = F[j, e-1] * t[j] / e with F[j, 0] = 1, for all columns at once.

    The complex product is formed from separate real and imaginary float
    operations, as numpy's scalar complex multiply forms it.  Its
    vectorized complex multiply may fuse them into FMAs and round
    differently (it does on AVX-512 hosts), which would move the last
    bit of entries defined by the scalar recurrence.
    """
    F = np.empty((t.shape[0], K + 1, t.shape[1]), dtype=complex)
    F[:, 0] = 1.0
    tr, ti = t.real, t.imag
    for e in range(1, K + 1):
        ar, ai = F[:, e - 1].real, F[:, e - 1].imag
        cur = F[:, e]
        cur.real = ar * tr - ai * ti
        cur.imag = ar * ti + ai * tr
        cur /= e
    return F


def _column_defects(re_c: float, coeffs: Sequence[float], ns: np.ndarray, K_out: int) -> np.ndarray:
    """Certified series tails: the mass of column n beyond degree K_out."""
    r = float(sum(coeffs))
    x = r * np.log(ns.astype(float))
    xmax = float(x.max()) if x.size else 0.0
    if xmax == 0.0 or r == 0.0:
        return np.zeros(len(ns))
    K_big = K_out
    while _tail_log_bound(0.0, xmax, K_big) > math.log(1e-22) and K_big < 4000:
        K_big += 8
    means = h2k_means(coeffs, K_big)
    v = np.ones(len(ns))
    acc = np.zeros(len(ns))
    for K in range(1, K_big + 1):
        v = v * (x / K) ** 2
        if K > K_out:
            acc += v * means[K]
    remainder = np.array([
        math.exp(_tail_log_bound(0.0, xi_, K_big)) if xi_ > 0 else 0.0 for xi_ in x
    ])
    return ns.astype(float) ** (-2.0 * re_c) * (acc + remainder)


def build_matrix(phi: AffineSymbol, n_in: int, K_out: int) -> TruncatedOperator:
    """Truncated coefficient matrix of C_phi with certified column defects.

    Input frequencies 1..n_in; output multi-indices over the active
    (nonzero-coefficient) primes up to total degree K_out.  Column n = 1
    is the unit vector at the zero index: constants map to constants.
    """
    if not in_gordon_hedenmalm(phi):
        raise ValueError("truncated matrices require a symbol in the bounded class")
    if n_in < 1:
        raise ValueError("need at least one input column")
    if K_out < 0:
        raise ValueError("K_out must be nonnegative")
    eff = [z for z in phi.effective_coeffs() if z != 0]
    d_act = len(eff)
    rows = math.comb(K_out + d_act, d_act)
    if rows > _ROW_CAP or rows * n_in > _ENTRY_CAP:
        raise ValueError(
            f"truncation size {rows} x {n_in} exceeds the configured caps "
            f"({_ROW_CAP} rows, {_ENTRY_CAP} entries)"
        )
    # a tail that overflows floats is still bounded above by inf
    with np.errstate(over="ignore", invalid="ignore"):
        defects = _column_defects(phi.c.real, [abs(z) for z in eff], np.arange(1, n_in + 1), K_out)
    defects[~np.isfinite(defects)] = np.inf
    # an entry that overflows or turns invalid raises FloatingPointError,
    # so no non-finite entry reaches the eigensolver
    with np.errstate(over="raise", invalid="raise"):
        idx = _multi_indices(d_act, K_out)
        A = np.zeros((rows, n_in), dtype=complex)
        A[0, 0] = 1.0
        # columns n >= 2; n^{-c} and t = -c_j log n stay Python complex
        # scalars, so every entry keeps the bits of its scalar definition
        ns = range(2, n_in + 1)
        base = np.array([n ** (-phi.c) for n in ns], dtype=complex)
        if d_act == 0:
            A[0, 1:] = base
        else:
            lns = [math.log(n) for n in ns]
            F = _factor_tables(np.array([[-cj * ln for ln in lns] for cj in eff], dtype=complex), K_out)
            plan = _product_plan(d_act, K_out)
            P = base[None, :]
            for j, (parent, expo) in enumerate(plan[:-1]):
                P = P[parent] * F[j, expo]
            parent, expo = plan[-1]
            step = max(1, _BLOCK_ENTRIES // max(1, n_in - 1))
            for r0 in range(0, rows, step):
                np.multiply(P[parent[r0:r0 + step]], F[-1, expo[r0:r0 + step]], out=A[r0:r0 + step, 1:])
    return TruncatedOperator(
        symbol=phi,
        input_ns=tuple(range(1, n_in + 1)),
        out_indices=idx,
        entries=A,
        column_defects=defects,
    )


def sigma_max_sq(op: TruncatedOperator) -> float:
    """Largest squared singular value: the top eigenvalue of the smaller
    Gram matrix, from LAPACK's Hermitian eigensolver.

    The result is a valid lower bound for the full operator's squared
    norm: a finite section never exceeds it.
    """
    A = op.entries
    rows, cols = A.shape
    G = A @ A.conj().T if rows <= cols else A.conj().T @ A
    try:
        return float(np.linalg.eigvalsh(G)[-1])
    except np.linalg.LinAlgError as e:
        # a LinAlgError is a ValueError, which would read as bad input
        raise NonConvergence(f"Hermitian eigensolver failed: {e}") from None


def sigma_max_series(phi: AffineSymbol, levels: Sequence[tuple[int, int]]) -> list[tuple[int, int, float]]:
    """sigma_max^2 at increasing truncation levels [(n_in, K_out), ...]."""
    out = []
    for n_in, K_out in levels:
        op = build_matrix(phi, n_in, K_out)
        out.append((n_in, K_out, sigma_max_sq(op)))
    return out


# --- kernel quotients -----------------------------------------------------

@dataclass(frozen=True)
class KernelQuotientReport:
    """Quotient ||A k_w|| / ||k_w|| through a finite section, with the two
    truncation defects needed to relate it to the untruncated quotient."""

    ratio: float
    image_defect: float     # additive bound lost from dropped output rows
    kernel_tail: float      # relative mass of the kernel beyond the input columns


def kernel_quotient_report(
    phi: AffineSymbol,
    w: complex,
    n_in: int = 64,
    K_out: int = 40,
    op: TruncatedOperator | None = None,
) -> KernelQuotientReport:
    """Apply the truncated matrix to a truncated reproducing kernel.

    The kernel at w has coefficients n^{-conj(w)}; any quotient of the
    finite section is a true lower bound for the operator norm.  The
    report carries (i) sum |v_n| sqrt(defect_n) / ||v||, bounding what
    the dropped output rows could add, and (ii) the relative square-mass
    of the kernel beyond the last input column.
    """
    ww = complex(w)
    if not ww.real > 0.5:
        raise ValueError("kernel points need Re w > 1/2")
    if op is None:
        op = build_matrix(phi, n_in, K_out)
    ns = np.array(op.input_ns, dtype=float)
    v = ns ** (-np.conj(ww))
    nv = float(np.linalg.norm(v))
    img = float(np.linalg.norm(op.entries @ v))
    ratio = img / nv
    image_defect = float(np.sum(np.abs(v) * np.sqrt(np.maximum(op.column_defects, 0.0)))) / nv
    full = zeta(2.0 * ww.real)
    trunc = float(np.sum(ns ** (-2.0 * ww.real)))
    kernel_tail = math.sqrt(max(full - trunc, 0.0)) / nv
    return KernelQuotientReport(ratio=ratio, image_defect=image_defect, kernel_tail=kernel_tail)


def kernel_quotient(
    phi: AffineSymbol,
    w: complex,
    n_in: int = 64,
    K_out: int = 40,
    op: TruncatedOperator | None = None,
) -> float:
    return kernel_quotient_report(phi, w, n_in, K_out, op).ratio


# --- adjoint suprema ------------------------------------------------------

def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximum of a unimodal-enough f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_ITERS):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    if f1 >= f2:
        return x1, f1
    return x2, f2


def _refined_grid_max(f, xs, vals, lo_edge: float, hi_edge: float) -> float:
    """The best grid value vals[i] = f(xs[i]), or the golden-section maximum
    of f between the neighbours of that grid point if it is larger.  At
    either end of the grid, lo_edge or hi_edge stands in for the missing
    neighbour."""
    i = int(np.argmax(vals))
    lo = xs[i - 1] if i > 0 else lo_edge
    hi = xs[i + 1] if i + 1 < len(xs) else hi_edge
    return max(vals[i], _golden_max(f, lo, hi)[1])


def _phi_min_re(phi: AffineSymbol, sigma: float) -> float:
    """Minimal real part of the symbol over its vertical limits at Re s = sigma."""
    return phi.c.real - sum(
        cj * float(p) ** (-sigma) for cj, p in zip(phi.coeffs, phi.primes)
    )


def adjoint_bound_general(phi: AffineSymbol, spec: LambdaSpec, sigma_grid) -> float:
    """Lower bound sup_sigma zeta(2 min-Re phi(sigma)) / zeta_Lambda(2 sigma).

    Kernels supported on a thinner frequency set Lambda keep the full
    image kernel upstairs while shrinking the denominator; the symbol's
    real part is taken at its vertical-limit minimum, which a rotation
    of the coefficients attains.  Grid maximum plus golden-section
    refinement around it.
    """
    if not in_gordon_hedenmalm(phi):
        raise ValueError("adjoint bounds require a symbol in the bounded class")
    grid = sorted(float(s) for s in sigma_grid)
    if not grid:
        raise ValueError("sigma grid is empty")
    half_absc = abscissa(spec) / 2.0
    if grid[0] <= half_absc:
        raise ValueError(
            f"sigma grid must stay strictly above {half_absc} for this frequency set"
        )

    def q(sigma: float) -> float:
        re_phi = _phi_min_re(phi, sigma)
        return zeta(2.0 * re_phi) / zeta_lambda(spec, 2.0 * sigma)

    # the grid scan is q point by point with the zeta calls gathered
    # into one vector call; `_phi_min_re` and `zeta_lambda` stay scalar
    num = zeta(np.array([2.0 * _phi_min_re(phi, s) for s in grid]))
    vals = num / np.array([zeta_lambda(spec, 2.0 * s) for s in grid])
    return _refined_grid_max(q, grid, vals, half_absc + 0.5 * (grid[0] - half_absc), grid[-1] * 1.5)


def adjoint_bound_2s(c: complex, r: float) -> float:
    """sup over 0 < x <= 1 of (2 - x) x zeta(2 Re c - 2 r (1 - x)),
    the closed-form adjoint supremum for the one-prime symbol c + r 2^{-s}.

    Requires Re c - 1/2 >= r > 0.  The x -> 0+ boundary contributes
    1/r exactly when 2 Re c - 2 r = 1 (and nothing otherwise); the
    interior is scanned on a log grid, refined by golden section, and
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

    xs = list(np.geomspace(1e-5, 1.0, 512))
    x_val = _xi_from(max(a, rr), rr)
    if x_val > rr:
        xs.append(1.0 - rr / x_val)
    xs = np.array(sorted(set(xs)))
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
    size (n_in input columns, output degree k_out) its suite used."""

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


def _default_kout(d_act: int) -> int:
    if d_act <= 1:
        return 40
    K = 1
    while math.comb(K + 1 + d_act, d_act) <= 4096:
        K += 1
    return min(K, 40)


def _active_primes(phi: AffineSymbol) -> int:
    return sum(1 for x in phi.coeffs if x > 0)


def _truncation(kind: str, sym, n_in: int | None, K_out: int | None) -> tuple[int, int]:
    """The section size (n_in, K_out) of a report on `sym`, a symbol of
    `kind`, with None for a size that takes the kind's default: 64
    columns and `_default_kout` of the active-prime count for affine
    symbols, 512 columns and 400 lattice levels for the family."""
    if kind == "family":
        return (512 if n_in is None else n_in), (400 if K_out is None else K_out)
    if K_out is None:
        K_out = _default_kout(_active_primes(sym))
    return (64 if n_in is None else n_in), K_out


def _vertical_twin(phi: AffineSymbol) -> AffineSymbol:
    """phi with every coefficient rotated to -c_j.

    A diagonal unitary on the output lattice relates the finite sections
    of phi and its twin, so their singular values agree, while real
    kernel points realize the minimal real part of the twin and give the
    strongest quotients.
    """
    return AffineSymbol(
        phi.c,
        phi.coeffs,
        twist=tuple(-1.0 for _ in phi.coeffs) if phi.d else None,
        validate=False,
    )


def _report(kind: str, entries: dict[str, BoundEntry], n_in: int, k_out: int) -> BoundReport:
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
        "restricted-frequency adjoint quotient, grid plus golden refinement",
    )


def bound_suite(phi: AffineSymbol, n_in: int | None = None, K_out: int | None = None) -> BoundReport:
    """Assemble every applicable bound for ||C_phi||^2.

    The truncated matrix and the kernel quotients go through the
    vertical twin of phi (`_vertical_twin`), on a section of n_in
    columns and output degree K_out (defaults as in `_truncation`).
    """
    if not in_gordon_hedenmalm(phi):
        raise ValueError("bound suite requires a symbol in the bounded class")
    re_c = phi.c.real
    gap = re_c - 0.5
    r = phi.r
    d_all = phi.d
    d_act = _active_primes(phi)
    n_in, K_out = _truncation("affine", phi, n_in, K_out)
    e: dict[str, BoundEntry] = {}
    e["genlower"] = BoundEntry(
        zeta(2.0 * re_c), True, "square norm of the image of the constant-direction kernel"
    )

    e["adjoint_lower"] = _adjoint_entry(phi)

    flipped = _vertical_twin(phi)
    op = build_matrix(flipped, n_in, K_out)
    e["matrix_lower"] = BoundEntry(
        sigma_max_sq(op),
        True,
        f"largest singular value of the {len(op.out_indices)}x{n_in} section (K_out={K_out})",
    )

    best_kernel = 0.0
    for s in _KERNEL_SIGMAS:
        # real kernel points: the flipped twin attains the minimal real
        # part of the symbol there, which maximizes the quotient
        rep_k = kernel_quotient_report(flipped, complex(s, 0.0), op=op)
        best_kernel = max(best_kernel, rep_k.ratio**2)
    e["kernel_S_lower"] = BoundEntry(
        best_kernel, True, "best truncated reproducing-kernel quotient on the real grid"
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


def _exp_mobius_coeffs(beta: np.ndarray, K: int) -> np.ndarray:
    """Rows of exp(beta * z / (1 + z)) Taylor coefficients, one per beta.

    Worked per degree with the convolution recurrence
    m E_m = sum_j j B_j E_{m-j}, B_j = beta (-1)^{j+1}; every row stays
    bounded by e^{beta/2} in square sum, so the recurrence is tame.
    """
    nb = len(beta)
    E = np.zeros((nb, K + 1))
    E[:, 0] = 1.0
    signs = np.array([j * (-1.0) ** (j + 1) for j in range(K + 1)])
    for m in range(1, K + 1):
        # sum_{j=1..m} j (-1)^{j+1} E[:, m-j]
        acc = E[:, m - 1 :: -1][:, :m] @ signs[1 : m + 1]
        E[:, m] = beta * acc / m
    return E


def phi_alpha_operator(alpha: float, n_in: int, K_out: int) -> TruncatedOperator:
    """Finite section of C_{phi_alpha} into the powers-of-two lattice.

    Columns are the input frequencies n = 1..n_in; rows the output
    powers 2^m, m <= K_out.  Column n is n^{-(1/2+alpha)} times the
    Taylor coefficients of exp(2 alpha log n * z/(1+z)); its exact
    square norm is 1/n (the exponent has real part 1/2 almost
    everywhere on the circle), so the column defects are exact.
    """
    sym = PhiAlphaSymbol(alpha)
    if n_in < 1 or K_out < 0:
        raise ValueError("need n_in >= 1 and K_out >= 0")
    if (K_out + 1) * n_in > _ENTRY_CAP:
        raise ValueError("lattice section exceeds the configured entry cap")
    # square sums of the exponential factor are e^beta, so individual
    # coefficients reach e^{beta/2}; keep that inside double range
    if 2.0 * float(alpha) * math.log(n_in) > 1250.0:
        raise ValueError("alpha * log(n_in) too large: coefficients overflow doubles")
    lnn = np.log(np.arange(1, n_in + 1, dtype=float))
    beta = 2.0 * alpha * lnn
    E = _exp_mobius_coeffs(beta, K_out)
    lead = np.exp(-(0.5 + alpha) * lnn)
    A = (E * lead[:, None]).T.copy()  # rows m, cols n-1
    col_sq = np.sum(A * A, axis=0)
    defects = np.maximum(1.0 / np.arange(1, n_in + 1, dtype=float) - col_sq, 0.0)
    return TruncatedOperator(
        symbol=sym,
        input_ns=tuple(range(1, n_in + 1)),
        out_indices=tuple((int(m),) for m in range(K_out + 1)),
        entries=A,
        column_defects=defects,
    )


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


def suite_for_phi_alpha(alpha: float, n_in: int | None = None, K_out: int | None = None) -> BoundReport:
    """Bound report for the interpolation family.

    The closed-form bracket is max(2/alpha, zeta(1+2 alpha)) from below
    and max(2/alpha, zeta(1+alpha)) from above; below the crossing point
    alpha0 both collapse to 2/alpha and the report certifies the norm
    exactly.  The matrix entry goes through the finite section with
    n_in integer input columns and K_out + 1 lattice output rows
    (defaults as in `_truncation`); the kernel entry evaluates the exact
    quotient on a grid of real points near 0.
    """
    a = float(alpha)
    n_in, K_out = _truncation("family", None, n_in, K_out)
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
    op = phi_alpha_operator(a, n_in, K_out)
    e["matrix_lower"] = BoundEntry(
        sigma_max_sq(op),
        True,
        f"largest singular value of the finite section ({K_out + 1}x{n_in})",
    )
    best = max(phi_alpha_kernel_ratio_sq(a, float(w)) for w in np.geomspace(1e-4, 4.0, 64))
    e["kernel_S_lower"] = BoundEntry(
        best, True, "best exact kernel quotient over real points near 0"
    )
    return _report("family", e, n_in, K_out)
