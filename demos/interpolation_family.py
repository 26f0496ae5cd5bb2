"""The one-parameter interpolation family phi_alpha: closed-form bracket,
its collapse below the crossing point, and the two computed routes that
approach the same value from the matrix and kernel sides.

Run:  python3 demos/interpolation_family.py
"""

import numpy as np

from h2comp.opnorm import (
    phi_alpha_kernel_ratio_sq,
    suite_for_phi_alpha,
)
from h2comp.zeta import alpha0, zeta

a0 = alpha0()
print(f"crossing point: alpha0 = {a0:.12f} solves alpha * zeta(1 + alpha) = 2")
print(f"residual |alpha0 zeta(1+alpha0) - 2| = {abs(a0 * zeta(1 + a0) - 2):.2e}")
print()

print("alpha    lower bracket     upper bracket     certified?")
for a in (0.5, 1.0, 1.4, a0, 1.6, 2.0, 3.0):
    rep = suite_for_phi_alpha(a, n_in=128)
    lo = rep.entries["brevig_lower"].value
    hi = rep.entries["brevig_upper"].value
    pinched = "norm^2 = %.6f" % lo if abs(hi - lo) < 1e-12 else f"width {hi - lo:.6f}"
    print(f"{a:<8.4f} {lo:<17.12f} {hi:<17.12f} {pinched}")
print()
print("Below the crossing point both closed forms equal 2/alpha and the")
print("squared norm is pinned exactly; above it a genuine gap opens.")
print()

a = 1.0
rep = suite_for_phi_alpha(a, n_in=256)
print(f"computed routes at alpha = {a:g} (true squared norm = 2):")
print(f"  matrix section   {rep.entries['matrix_lower'].value:.8f}")
print(f"  kernel quotient  {rep.entries['kernel_S_lower'].value:.8f}")
print(f"  adjoint line     {rep.entries['adjoint_lower'].value:.8f}")
print()

print("the kernel quotient climbs toward 2/alpha as the evaluation point")
print("approaches the boundary:")
for w in np.geomspace(1.0, 1e-4, 5):
    print(f"  w = {w:<9.2g} ratio^2 = {phi_alpha_kernel_ratio_sq(a, float(w)):.8f}")
