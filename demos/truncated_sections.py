"""Finite sections of the composition operator: growing truncations of
the coefficient matrix push the largest singular value up through the
point-evaluation floor, and reproducing-kernel quotients confirm the
climb from a second, independent direction.

Run:  python3 demos/truncated_sections.py
"""

from h2comp.affine import AffineSymbol
from h2comp.opnorm import (
    adjoint_bound_2s,
    build_matrix,
    kernel_quotient_report,
    sigma_max_series,
    sigma_max_sq,
)
from h2comp.zeta import zeta


def main() -> None:
    sym = AffineSymbol(1.5, (1.0,))
    floor = zeta(3.0)
    print(f"symbol: c = 3/2, one full-weight coefficient; the point value")
    print(f"at the center gives the floor zeta(3) = {floor:.12f}")
    print()

    print("n_in   k_out   sigma_max^2        above the floor?")
    for n, k, s in sigma_max_series(sym, [(n, 40) for n in (8, 16, 32, 64)]):
        print(f"{n:<6d} {k:<7d} {s:.12f}    {'yes' if s > floor else 'not yet'}")
    print()

    op = build_matrix(sym, 64, 40)
    s = sigma_max_sq(op)
    print(f"at (64, 40): strict gap sigma_max^2 - zeta(3) = {s - floor:.6f}")
    print()

    print("kernel quotients through the same section (w = evaluation point):")
    for w in (2.0, 1.1, 0.8, 0.6):
        rep = kernel_quotient_report(op, w)
        print(
            f"  w = {w:<5.2f} ratio^2 = {rep.ratio ** 2:.10f}   "
            f"truncation defects (image {rep.image_defect:.1e}, tail {rep.kernel_tail:.1e})"
        )
    print()

    adj = adjoint_bound_2s(sym.c, 1.0)
    print(f"adjoint route over the kernel line: {adj:.12f}")
    print("all three computed lower routes sit strictly above the floor;")
    print("the cheapest upper bound zeta(2) =", f"{zeta(2.0):.12f}", "closes the bracket.")


if __name__ == "__main__":
    main()
