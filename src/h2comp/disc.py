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

Everything is finite linear algebra on truncated coefficient vectors;
self-map hypotheses are verified on a dense boundary grid before any
composition is trusted.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "PowerSeries",
    "compose_truncated",
    "psi_matrix",
    "psi_z2z",
    "mobius_comp_norm_sq",
    "littlewood_check",
    "shapiro_bound_check",
    "ShapiroCheck",
]

_BOUNDARY_GRID = 4096
_SELF_MAP_TOL = 1e-9


class PowerSeries:
    """Truncated Taylor series sum_k a_k z^k as a coefficient vector."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must form a nonempty 1-d sequence")
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

    def to_json(self) -> str:
        return json.dumps({"coeffs": [[a.real, a.imag] for a in self.coeffs]})

    @classmethod
    def from_json(cls, text: str) -> "PowerSeries":
        data = json.loads(text)
        return cls([complex(re, im) for re, im in data["coeffs"]])

    def __repr__(self):
        return f"PowerSeries(degree={self.degree}, norm_sq={self.norm_sq():.6g})"


def _check_self_map(phi: PowerSeries) -> None:
    if abs(phi(0.0 + 0.0j)) >= 1.0:
        raise ValueError("composition needs |phi(0)| < 1")
    angles = np.exp(2j * math.pi * np.arange(_BOUNDARY_GRID) / _BOUNDARY_GRID)
    sup = float(np.max(np.abs(phi(angles))))
    if sup > 1.0 + _SELF_MAP_TOL:
        raise ValueError(
            f"phi is not a self-map of the disc: boundary modulus reaches {sup:.6g}"
        )


def compose_truncated(f: PowerSeries, phi: PowerSeries, N: int) -> PowerSeries:
    """First N+1 Taylor coefficients of f(phi(z)).

    Horner from the top coefficient with per-step truncation of the
    convolution product; phi is verified to be a self-map (origin
    inside, boundary modulus <= 1 on a dense grid) before composing.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    _check_self_map(phi)
    p = phi.coeffs[: N + 1]
    acc = np.zeros(1, dtype=complex)
    for a in f.coeffs[::-1]:
        acc = np.convolve(acc, p)[: N + 1]
        acc[0] += a
    out = np.zeros(N + 1, dtype=complex)
    out[: acc.size] = acc
    return PowerSeries(out)


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
    if abs(phi(0.0 + 0.0j)) > 1e-12:
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
    boundary_samples: int = 1 << 14,
) -> ShapiroCheck:
    """Verify ||f o phi||^2 <= C |f(0)|^2 + (1 - C) ||f||^2 with
    C = (1/2) (1-delta)/(1+delta) * m{|phi*| < delta}.

    The level-set measure comes from a uniform boundary grid, so the
    verdict allows a sampling cushion proportional to 1/boundary_samples
    on top of the 1e-6 tolerance; delta = 0 degenerates to the plain
    contraction bound.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    if boundary_samples < 16:
        raise ValueError("need at least 16 boundary samples")
    if abs(phi(0.0 + 0.0j)) > 1e-12:
        raise ValueError("this bound needs phi(0) = 0")
    _check_self_map(phi)
    angles = np.exp(2j * math.pi * np.arange(boundary_samples) / boundary_samples)
    level = float(np.mean(np.abs(phi(angles)) < delta))
    c_delta = 0.5 * (1.0 - delta) / (1.0 + delta) * level
    N = max(f.degree, phi.degree, 1)
    comp = compose_truncated(f, phi, N)
    lhs = comp.norm_sq()
    f0 = abs(complex(f.coeffs[0])) ** 2
    rhs = c_delta * f0 + (1.0 - c_delta) * f.norm_sq()
    slack = 0.5 * (1.0 - delta) / (1.0 + delta) * (8.0 / boundary_samples)
    slack *= max(f.norm_sq() - f0, 0.0)
    ok = lhs <= rhs + 1e-6 + slack
    return ShapiroCheck(lhs, rhs, c_delta, level, ok)
