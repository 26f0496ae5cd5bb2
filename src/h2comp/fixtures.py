"""Shipped symbol configurations used across the command-line reports
and the verification suites.

Fixture ids are part of the interface: scripts and tests refer to them
by name.  Each fixture records why it is interesting — which closed
form or bound it exercises — in its note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .affine import AffineSymbol, PolynomialSymbol
from .opnorm import PhiAlphaSymbol
from .torus import InnerSymbolParams, _shapiro_weight

__all__ = [
    "Fixture",
    "fixtures",
    "get_fixture",
    "single_prime_symbol",
    "poly_level_measure",
    "poly_shapiro_closed_form",
]


@dataclass(frozen=True)
class Fixture:
    name: str
    kind: str        # "affine" | "poly" | "inner" | "family"
    symbol: object
    note: str


def single_prime_symbol(c: complex, r: float) -> AffineSymbol:
    """The one-prime family c + r 2^{-s}."""
    return AffineSymbol(c, (r,))


# the polynomial fixture puts weights (1, 2i, 1)/(2 sqrt 2) on 2, 4, 8;
# its boundary modulus is sqrt((cos^2 t + 1)/2), so the level sets have
# the closed-form measure below.
_POLY_WEIGHT = 1.0 / (2.0 * math.sqrt(2.0))


def poly_level_measure(delta: float) -> float:
    """Closed-form m{ |phi* - c| < delta r } for the shipped polynomial
    fixture: 0 below delta = 1/sqrt(2), else 1 - (2/pi) arccos(sqrt(2 delta^2 - 1))."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    x = 2.0 * delta * delta - 1.0
    if x <= 0.0:
        return 0.0
    return 1.0 - (2.0 / math.pi) * math.acos(math.sqrt(x))


def poly_shapiro_closed_form(delta: float) -> float:
    """(1/2) (1-delta)/(1+delta) times the closed-form level measure."""
    return _shapiro_weight(delta) * poly_level_measure(delta)


def fixtures() -> dict[str, Fixture]:
    out: list[Fixture] = []

    out.append(Fixture(
        "example-7.1",
        "poly",
        PolynomialSymbol(
            1.5,
            {2: _POLY_WEIGHT, 4: 2j * _POLY_WEIGHT, 8: _POLY_WEIGHT},
            radius=1.0,
        ),
        "single-prime-powers polynomial; boundary modulus sqrt((cos^2 t + 1)/2), "
        "level measures in closed form, point-mass constant (13 - 4 sqrt 10)/18",
    ))

    out.append(Fixture(
        "fig1-a", "affine", AffineSymbol(1.5, (0.75, 0.25)),
        "two primes, lopsided weights: boundary curve fills the annulus [r/2, r]",
    ))
    out.append(Fixture(
        "fig1-b", "affine", AffineSymbol(1.5, (0.5, 0.5)),
        "two primes, uniform weights: boundary curve reaches the center, annulus [0, r]",
    ))
    out.append(Fixture(
        "fig1-c", "affine", AffineSymbol(1.5, (2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0)),
        "three primes: boundary curve fills the annulus [r/3, r]",
    ))

    out.append(Fixture(
        "single-prime", "affine", single_prime_symbol(1.5, 1.0),
        "one prime on the diagonal Re c - 1/2 = r: the basic bracket "
        "zeta(3) <= norm^2 <= zeta(2)",
    ))
    out.append(Fixture(
        "single-prime-wide", "affine", single_prime_symbol(2.5, 2.0),
        "one prime, diagonal, r = 2 past the crossing point: the averaged "
        "upper bound (zeta(5)+zeta(3))/2 beats zeta(3)",
    ))

    out.append(Fixture(
        "example-7.3",
        "inner",
        InnerSymbolParams(
            lambdas=(0.4, 0.2, 0.1, 0.05, 0.025, 0.0125),
            thetas=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
            c=1.5 + 0.0j,
            r=1.0,
            # the lambdas halve geometrically; the mass dropped past the
            # sixth factor is 0.4 * 2^{-6} * 2 = 0.0125
            lambda_tail=0.0125,
        ),
        "inner-factor symbol framed by the one-prime disc; the boundary "
        "modulus of the inner part tends to 1, so the frame circle is filled",
    ))

    for a in (0.5, 1.0, 1.4):
        label = f"phi-alpha-{a:g}"
        out.append(Fixture(
            label, "family", PhiAlphaSymbol(a),
            "boundary-fixing interpolation family; below the crossing point "
            "the bracket pinches to exactly 2/alpha",
        ))

    return {f.name: f for f in out}


def get_fixture(name: str) -> Fixture:
    all_f = fixtures()
    if name not in all_f:
        known = ", ".join(sorted(all_f))
        raise ValueError(f"unknown fixture {name!r}; shipped fixtures: {known}")
    return all_f[name]
