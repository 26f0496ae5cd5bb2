"""Hardy space of the unit disc: truncated composition and the pointwise
bounds that transfer to half-plane symbols.

The Dirichlet-series results in this package repeatedly reduce, after
the substitution z = 2^{-s}, to one-variable facts:

  * composition with a holomorphic self-map phi fixing 0 is a
    contraction (the classical domination principle);
  * for psi(z) = z / (2 - z) — the disc avatar of the half-plane map
    behind the averaged upper bound — the matrix of C_psi in the
    monomial basis is explicit: row j holds 2^{-j} C(j-1, k-1), and
    summing its squared first column gives exactly 1/3, from which
    ||C_psi f||^2 <= (|f(0)|^2 + ||f||^2) / 2;
  * a level set {|phi*| < delta} of the boundary modulus upgrades the
    contraction to a strict convex combination with the point value at
    the origin.

Everything is finite linear algebra on truncated coefficient vectors.
Boundary values on the n-th roots of unity come from one inverse FFT of
the coefficients folded modulo n, which is exact for any degree.  The
self-map hypotheses (|phi(0)| < 1, boundary modulus <= 1 on a 4096-point
grid) are verified once per composition matrix, before it is built.
Composition is the literal power expansion: `composition_matrix` holds
phi^k truncated at degree N in column k, one truncated convolution per
column, and `compose_truncated` applies that matrix to the coefficients
of f.  It shares nothing with the closed-form `psi_matrix`, so each
checks the other.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "PowerSeries",
    "composition_matrix",
    "compose_truncated",
    "psi_matrix",
    "psi_z2z",
    "mobius_comp_norm_sq",
    "littlewood_check",
    "shapiro_bound_check",
    "ShapiroCheck",
    "LittlewoodCheck",
]

_BOUNDARY_GRID = 4096
# uniform boundary grid for the level-set measure of `shapiro_bound_check`
_LEVEL_GRID = 1 << 14
_SELF_MAP_TOL = 1e-9


class PowerSeries:
    """Truncated Taylor series sum_k a_k z^k as a coefficient vector."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must form a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", arr.copy())

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def __call__(self, z):
        zz = np.asarray(z, dtype=complex)
        out = np.zeros_like(zz)
        for a in self.coeffs[::-1]:
            out = out * zz + a
        return complex(out) if out.ndim == 0 else out

    def __repr__(self):
        return f"PowerSeries(degree={self.degree}, norm_sq={self.norm_sq():.6g})"


def _boundary_values(phi: PowerSeries, n: int) -> np.ndarray:
    """phi(e^{2 pi i k / n}) for k = 0 .. n-1, from one inverse FFT.

    z^j and z^{j mod n} agree on the n-th roots of unity, so the
    coefficients are folded modulo n first and a series of any degree
    gives its exact grid values.
    """
    a = phi.coeffs
    folded = np.zeros(-(-a.size // n) * n, dtype=complex)
    folded[: a.size] = a
    return np.fft.ifft(folded.reshape(-1, n).sum(axis=0), norm="forward")


def _check_self_map(phi: PowerSeries) -> None:
    if abs(phi.coeffs[0]) >= 1.0:
        raise ValueError("composition needs |phi(0)| < 1")
    sup = float(np.max(np.abs(_boundary_values(phi, _BOUNDARY_GRID))))
    if sup > 1.0 + _SELF_MAP_TOL:
        raise ValueError(
            f"phi is not a self-map of the disc: boundary modulus reaches {sup:.6g}"
        )


def composition_matrix(phi: PowerSeries, N: int, D: int) -> np.ndarray:
    """Matrix of f -> f o phi from degree <= D to degree <= N.

    Column k holds the first N+1 Taylor coefficients of phi^k, built
    from column k-1 by one convolution with phi truncated at degree N.
    phi is verified to be a self-map (origin inside, boundary modulus
    <= 1 on a dense grid) once, before any column is formed.
    """
    if N < 0 or D < 0:
        raise ValueError("N and D must be nonnegative")
    _check_self_map(phi)
    p = phi.coeffs[: N + 1]
    M = np.zeros((N + 1, D + 1), dtype=complex)
    col = np.ones(1, dtype=complex)
    M[0, 0] = 1.0
    for k in range(1, D + 1):
        col = np.convolve(col, p)[: N + 1]
        M[: col.size, k] = col
    return M


def compose_truncated(f: PowerSeries, phi: PowerSeries, N: int) -> PowerSeries:
    """First N+1 Taylor coefficients of f(phi(z)): `composition_matrix`
    applied to the coefficients of f."""
    return PowerSeries(composition_matrix(phi, N, f.degree) @ f.coeffs)


def psi_z2z(N: int) -> PowerSeries:
    """z / (2 - z) truncated at degree N: coefficients 0, 2^{-1}, ..., 2^{-N}."""
    if N < 1:
        raise ValueError("need degree at least 1")
    out = np.zeros(N + 1, dtype=complex)
    j = np.arange(1, N + 1, dtype=float)
    out[1:] = 2.0 ** (-j)
    return PowerSeries(out)


def psi_matrix(N: int) -> np.ndarray:
    """Matrix of composition with z/(2 - z) on monomials, rows = output
    degree j, columns = input degree k:  entry 2^{-j} C(j-1, k-1) for
    1 <= k <= j, identity on constants.

    (z/(2-z))^k = z^k 2^{-k} sum_m C(m + k - 1, k - 1) (z/2)^m, which
    regroups to exactly these entries.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    M = np.zeros((N + 1, N + 1))
    M[0, 0] = 1.0
    if N == 0:
        return M
    lg = np.array([math.lgamma(i + 1.0) for i in range(N)])   # log i!
    j = np.arange(1, N + 1)
    jj = j[:, None]
    kk = j[None, :]
    ok = kk <= jj
    diff = np.where(ok, jj - kk, 0)
    logbin = lg[jj - 1] - lg[kk - 1] - lg[diff]
    vals = np.where(ok, np.exp(logbin - jj * math.log(2.0)), 0.0)
    M[1:, 1:] = vals
    return M


def mobius_comp_norm_sq(w: complex) -> float:
    """Exact squared norm of composition with the disc automorphism
    moving 0 to w: (1 + |w|) / (1 - |w|)."""
    aw = abs(complex(w))
    if aw >= 1.0:
        raise ValueError("need |w| < 1")
    return (1.0 + aw) / (1.0 - aw)


class LittlewoodCheck(NamedTuple):
    lhs: float
    rhs: float
    ok: bool


def littlewood_check(phi: PowerSeries, f: PowerSeries, N: int | None = None) -> LittlewoodCheck:
    """Verify ||f o phi||^2 <= ||f||^2 for a self-map fixing the origin.

    The truncated composition only loses mass, so the inequality is
    checked with a 1e-9 cushion on the right.
    """
    if abs(phi.coeffs[0]) > 1e-12:
        raise ValueError("this contraction needs phi(0) = 0")
    if N is None:
        N = max(f.degree, phi.degree, 1)
    comp = compose_truncated(f, phi, N)
    lhs = comp.norm_sq()
    rhs = f.norm_sq()
    return LittlewoodCheck(lhs, rhs, lhs <= rhs + 1e-9)


class ShapiroCheck(NamedTuple):
    lhs: float
    rhs: float
    c_delta: float
    level_measure: float
    ok: bool


def shapiro_bound_check(
    phi: PowerSeries,
    delta: float,
    f: PowerSeries,
) -> ShapiroCheck:
    """Verify ||f o phi||^2 <= C |f(0)|^2 + (1 - C) ||f||^2 with
    C = (1/2) (1-delta)/(1+delta) * m{|phi*| < delta}.

    The level-set measure comes from a uniform boundary grid, so the
    verdict allows a sampling cushion proportional to 1/_LEVEL_GRID
    on top of the 1e-6 tolerance; delta = 0 degenerates to the plain
    contraction bound.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    if abs(phi.coeffs[0]) > 1e-12:
        raise ValueError("this bound needs phi(0) = 0")
    N = max(f.degree, phi.degree, 1)
    comp = compose_truncated(f, phi, N)
    level = float(np.mean(np.abs(_boundary_values(phi, _LEVEL_GRID)) < delta))
    weight = 0.5 * (1.0 - delta) / (1.0 + delta)
    c_delta = weight * level
    lhs = comp.norm_sq()
    f0 = abs(complex(f.coeffs[0])) ** 2
    rhs = c_delta * f0 + (1.0 - c_delta) * f.norm_sq()
    slack = weight * (8.0 / _LEVEL_GRID)
    slack *= max(f.norm_sq() - f0, 0.0)
    ok = lhs <= rhs + 1e-6 + slack
    return ShapiroCheck(lhs, rhs, c_delta, level, ok)
