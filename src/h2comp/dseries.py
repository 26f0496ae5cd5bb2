"""Finitely supported Dirichlet polynomials f(s) = sum_n a_n n^{-s}.

The square norm sum_n |a_n|^2 makes these a dense subspace of the
Hilbert space of Dirichlet series with square-summable coefficients;
every formula in this package (composition norms, boundary sampling,
long-line means) reaches the series through the coefficient map held
here.

Products are computed by hash-map convolution on the multiplicative
support — supports stay small and sparse, so no transform tricks are
wanted.  A `Character` assigns unit-modulus values to the first d
primes and extends completely multiplicatively; twisting by it is a
coefficient-wise rotation and hence an isometry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .primes import exponents_over, first_primes

__all__ = [
    "DirichletPoly",
    "Character",
    "h2_norm_sq",
    "multiply",
    "evaluate",
    "derivative_at",
    "twist",
    "carlson_mean",
    "h2k_norm",
]

_DROP_REL = 1e-15
H2K_SUPPORT_CAP = 2_000_000


class DirichletPoly:
    """Immutable finite coefficient map n >= 1 -> complex.

    Canonical form: coefficients of modulus below 1e-15 times the
    largest modulus are dropped, so equality of maps is equality of
    polynomials for every path that can produce float dust.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, complex] | Iterable[tuple[int, complex]] = ()):
        if isinstance(coeffs, Mapping):
            items = coeffs.items()
        else:
            items = list(coeffs)
        raw: dict[int, complex] = {}
        for n, a in items:
            idx = int(n)
            if idx < 1 or idx != n:
                raise ValueError(f"index {n!r} is not a positive integer")
            raw[idx] = raw.get(idx, 0.0 + 0.0j) + complex(a)
        peak = max((abs(a) for a in raw.values()), default=0.0)
        cut = _DROP_REL * peak
        self._coeffs = {n: a for n, a in sorted(raw.items()) if abs(a) > cut}

    # --- constructors ---

    @classmethod
    def zero(cls) -> "DirichletPoly":
        return cls()

    @classmethod
    def one(cls) -> "DirichletPoly":
        return cls({1: 1.0})

    @classmethod
    def monomial(cls, n: int, a: complex = 1.0) -> "DirichletPoly":
        return cls({n: a})

    @classmethod
    def from_json(cls, text: str) -> "DirichletPoly":
        data = json.loads(text)
        return cls({int(n): complex(re, im) for n, re, im in data["coeffs"]})

    def to_json(self) -> str:
        triples = [[n, a.real, a.imag] for n, a in self._coeffs.items()]
        return json.dumps({"coeffs": triples})

    # --- access ---

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self._coeffs)

    def coeff(self, n: int) -> complex:
        return self._coeffs.get(int(n), 0.0 + 0.0j)

    def items(self):
        return self._coeffs.items()

    def __len__(self) -> int:
        return len(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirichletPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(tuple(self._coeffs.items()))

    def __repr__(self) -> str:
        if not self._coeffs:
            return "DirichletPoly(0)"
        bits = [f"({a.real:+.3g}{a.imag:+.3g}i)*{n}^-s" for n, a in list(self._coeffs.items())[:4]]
        if len(self._coeffs) > 4:
            bits.append(f"... [{len(self._coeffs)} terms]")
        return "DirichletPoly(" + " + ".join(bits) + ")"

    def __add__(self, other: "DirichletPoly") -> "DirichletPoly":
        out = dict(self._coeffs)
        for n, a in other.items():
            out[n] = out.get(n, 0.0) + a
        return DirichletPoly(out)

    def __mul__(self, other):
        if isinstance(other, DirichletPoly):
            return multiply(self, other)
        return DirichletPoly({n: a * other for n, a in self._coeffs.items()})

    __rmul__ = __mul__


@dataclass(frozen=True)
class Character:
    """A completely multiplicative unit-modulus map on the first d primes.

    chi(n) multiplies the values along the exponent vector of n; an n
    with a prime factor beyond the d-th prime is outside the domain and
    raises.
    """

    values: tuple[complex, ...]

    def __post_init__(self):
        vals = tuple(complex(v) for v in self.values)
        for v in vals:
            if abs(abs(v) - 1.0) > 1e-12:
                raise ValueError(f"character value {v} is not unimodular")
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return len(self.values)

    def __call__(self, n: int) -> complex:
        expo = exponents_over(int(n), first_primes(self.dim))
        out = 1.0 + 0.0j
        for v, k in zip(self.values, expo):
            if k:
                out *= v**k
        return out


# --- operations -----------------------------------------------------------

def h2_norm_sq(f: DirichletPoly) -> float:
    """Square norm sum_n |a_n|^2."""
    return float(sum((a.real * a.real + a.imag * a.imag) for a in f._coeffs.values()))


def multiply(f: DirichletPoly, g: DirichletPoly) -> DirichletPoly:
    """Dirichlet product: coefficient of m*n picks up a_m b_n."""
    out: dict[int, complex] = {}
    for n, a in f.items():
        for m, b in g.items():
            k = n * m
            out[k] = out.get(k, 0.0 + 0.0j) + a * b
    return DirichletPoly(out)


def _unimodular(phase: np.ndarray, out: np.ndarray) -> None:
    """out = e^{i phase} from one tangent, in place: with t = tan(phase/2)
    and h = 2/(1 + t^2), e^{i phase} = (1 + it)/(1 - it) = (h - 1) + i t h.

    numpy sends float64 `tan` to a SIMD kernel and `cos` and `sin` to
    scalar libm, so this costs about a quarter of the two.  Each part
    is within 4.44e-16 (2 ulp of 1) of the exact value at the double
    phase, and zero parts keep the sign that cos and sin give them: the
    imaginary part of the character at +-0.0 is +-0.0.
    """
    t = np.multiply(phase, 0.5)
    np.tan(t, out=t)
    h = np.multiply(t, t)
    h += 1.0
    np.divide(2.0, h, out=h)
    np.subtract(h, 1.0, out=out.real)
    np.multiply(t, h, out=out.imag)


# columns per step of the array path of `evaluate`: every step is
# elementwise, so the bits do not depend on it, and its temporaries stay small
_EVAL_BLOCK = 1 << 16


def evaluate(f: DirichletPoly, s):
    """f(s) for complex s, scalar or ndarray (vectorized over s).

    On arrays each term is a_n exp(-Re s log n) e^{-i Im s log n}, the
    character from `_unimodular`, added term by term in support order:
    elementwise, so no matrix product and no BLAS call.
    """
    sup = f.support
    if not sup:
        return np.zeros_like(np.asarray(s, dtype=complex)) if np.ndim(s) else 0.0 + 0.0j
    a = np.array([f.coeff(n) for n in sup], dtype=complex)
    ln = np.log(np.array(sup, dtype=float))
    if np.ndim(s) == 0:
        return complex(np.sum(a * np.exp(-complex(s) * ln)))
    ss = np.asarray(s, dtype=complex)
    flat = ss.reshape(-1)
    out = np.zeros(flat.shape, dtype=complex)
    for i in range(0, flat.size, _EVAL_BLOCK):
        blk = flat[i : i + _EVAL_BLOCK]
        acc = out[i : i + _EVAL_BLOCK]
        mag = np.empty(blk.size)
        term = np.empty(blk.size, dtype=complex)
        for an, lnn in zip(a, ln):
            np.multiply(blk.imag, -lnn, out=mag)
            _unimodular(mag, term)
            np.multiply(blk.real, -lnn, out=mag)
            np.exp(mag, out=mag)
            term.real *= mag
            term.imag *= mag
            term *= an
            acc += term
    return out.reshape(ss.shape)


def derivative_at(f: DirichletPoly, k: int, c: complex) -> complex:
    """k-th derivative at c: sum_n a_n (-log n)^k n^{-c}."""
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    out = 0.0 + 0.0j
    for n, a in f.items():
        out += a * (-math.log(n)) ** k * n ** (-complex(c))
    return out


def twist(f: DirichletPoly, chi: Character) -> DirichletPoly:
    """Coefficient rotation a_n -> chi(n) a_n (an isometry)."""
    return DirichletPoly({n: chi(n) * a for n, a in f.items()})


def carlson_mean(f: DirichletPoly, T: float) -> float:
    """Mean of |f(it)|^2 over [-T, T] by composite Simpson.

    The long-line mean converges to the square norm at speed 1/T with a
    constant controlled by the reciprocal log-gaps of the support; the
    step count, 200 T max(log n, 1) rounded up to even and kept between
    64 and 10^7, keeps the quadrature error far below that 1/T
    resolution.
    """
    if not T > 0:
        raise ValueError("T must be positive")
    sup = f.support
    if not sup:
        return 0.0
    maxln = math.log(max(sup))
    steps = int(min(1e7, max(64.0, math.ceil(200.0 * T * max(maxln, 1.0)))))
    if steps % 2:
        steps += 1
    t = np.linspace(-T, T, steps + 1)
    vals = np.abs(evaluate(f, 1j * t)) ** 2
    w = np.ones(steps + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = 2.0 * T / steps
    return float(np.sum(w * vals) * h / 3.0 / (2.0 * T))


def h2k_norm(f: DirichletPoly, k: int) -> float:
    """2k-th power of the H^{2k} norm: the square norm of f^k.

    Computed by repeated Dirichlet multiplication, so it is exact
    convolution combinatorics; guarded against supports blowing up.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise ValueError("k must be a positive integer")
    if len(f) ** k > H2K_SUPPORT_CAP:
        raise ValueError(
            f"support of size {len(f)} raised to k={k} exceeds the "
            f"configured cap {H2K_SUPPORT_CAP}"
        )
    power = f
    for _ in range(k - 1):
        power = multiply(power, f)
    return h2_norm_sq(power)
