"""Inner-factor symbols: vertical-limit products of prime-indexed
Mobius factors whose boundary modulus is 1 almost everywhere while the
deep interior collapses to exp(-sum of weights).

Run:  python3 demos/inner_symbols.py
"""

import numpy as np

from h2comp.fixtures import get_fixture
from h2comp.torus import (
    inner_boundary_modulus,
    inner_truncation_bound,
    mobius_symbol_value,
)

params = get_fixture("example-7.3").symbol
print(f"weights:      {params.lambdas}")
print(f"phases:       {params.thetas}")
print(f"frame disc:   center {params.c}, radius {params.r}")
print(f"weight total: {sum(params.lambdas):.4f}, tail allowance {params.lambda_tail}")
print()

rng = np.random.default_rng(3)
# keep each test point's phases a fixed arc away from its factors' poles
phases = (np.array(params.thetas, dtype=float)
          + rng.uniform(0.1, 2 * np.pi - 0.1, size=len(params.thetas)))

print("approach to the boundary (modulus -> 1):")
for sigma in (4.0, 1.0, 0.25, 1e-2, 1e-5, 1e-8):
    m = inner_boundary_modulus(params, phases, sigma)
    print(f"  sigma = {sigma:<8.2g} |g| = {m:.10f}   "
          f"truncation allowance {inner_truncation_bound(params, sigma):.4f}")
print()

deep = inner_boundary_modulus(params, phases, 40.0)
print(f"deep interior: |g| at sigma = 40 is {deep:.10f}")
print(f"   predicted   exp(-sum lambda)  = {np.exp(-sum(params.lambdas)):.10f}")
print()

print("the full symbol places its values inside the frame disc:")
for sigma in (1e-6, 0.1, 2.0):
    val = mobius_symbol_value(params, phases, sigma)
    print(f"  sigma = {sigma:<6g} phi = {val:.6f}   |phi - c| = {abs(val - params.c):.6f}")
print()
print("at the boundary the distance from the center approaches the full")
print("radius; far inside it shrinks toward the deep-interior limit.")
