"""The scalar toolkit underneath every bound: zeta on the real line,
derivative sandwiches, integral brackets and the crossing point alpha0.

Run:  python3 demos/zeta_toolkit.py
"""

from h2comp.zeta import alpha0, dkzeta_sandwich, riemann_sum_bounds, zeta, zeta_deriv

print("zeta on the real line (certified tails):")
for s in (1.5, 2.0, 3.0, 4.0):
    print(f"  zeta({s:g}) = {zeta(s):.15f}")
print()

print("derivative sandwich k! (zeta-1)/(s-1)^k <= (-1)^k zeta^(k) <= k! zeta/(s-1)^k:")
for k in (1, 2, 3):
    lo, mid, hi = dkzeta_sandwich(k, 2.0)
    print(f"  k = {k}:  {lo:.6f} <= {mid:.6f} <= {hi:.6f}")
print()

print("integral brackets for 1/(sigma - 1), width exactly 1/m:")
for m in (1, 10, 100):
    lo, hi = riemann_sum_bounds(1.5, m)
    print(f"  m = {m:<4d} [{lo:.8f}, {hi:.8f}]  target {1 / 0.5:.8f}")
print()

a0 = alpha0()
print(f"the crossing point alpha * zeta(1 + alpha) = 2 sits at {a0:.12f}")
print(f"  first derivative there: zeta'({1 + a0:.4f}) = {zeta_deriv(1, 1 + a0):.8f}")
