"""Power means, majorization, and the exact multinomial dominance that
drives norm subordination between affine symbols.

Run:  python3 demos/power_mean_folds.py
"""

import numpy as np

from h2comp.affine import (
    AffineSymbol,
    bvn_decompose,
    comp_norm_sq,
    h2k_means,
    hq_dominance,
    majorizes,
)
from h2comp.dseries import DirichletPoly


def main() -> None:
    # --- the fold means --------------------------------------------------
    # means print rounded to 12 places first, so a mean that sits on a
    # 6-place tie, such as m_4 = 35/128 of (0.5, 0.5), prints the same
    # digits whichever way its last bit falls
    print("m_k for a single full-weight coefficient is identically 1;")
    print("splitting the weight makes every mean strictly smaller:")
    for coeffs in ((1.0,), (0.5, 0.5), (0.25, 0.25, 0.25, 0.25)):
        m = h2k_means(coeffs, K=6)
        print(f"  {coeffs}: " + "  ".join(f"{round(x, 12):.6f}" for x in m))
    print()

    # --- majorization orders the means pointwise -------------------------
    b, c = (0.4, 0.35, 0.25), (0.6, 0.3, 0.1)
    assert majorizes(b, c)
    mb, mc = h2k_means(b, 8), h2k_means(c, 8)
    print(f"{b} is majorized by {c};")
    print("its means sit below, k by k:")
    print("  k:      " + "  ".join(f"{k:8d}" for k in range(9)))
    print("  spread: " + "  ".join(f"{round(x, 12):.6f}" for x in mb))
    print("  peaked: " + "  ".join(f"{round(x, 12):.6f}" for x in mc))
    assert np.all(mb <= mc + 1e-15)
    print()

    # --- and the norms follow -------------------------------------------
    probe = DirichletPoly({1: 1.0, 2: 0.7, 3: 0.4, 6: 0.2})
    nb = comp_norm_sq(AffineSymbol(1.5, b), probe)
    nc = comp_norm_sq(AffineSymbol(1.5, c), probe)
    print(f"composition norms on a probe series: {nb:.10f} <= {nc:.10f}")
    print()

    # --- the mixing certificate ------------------------------------------
    parts = bvn_decompose(b, c)
    print("certificate: the spread vector is a convex mix of permutations")
    print("of the peaked one —")
    for w, perm in parts:
        print(f"  weight {w:.6f} on slot order {perm}")
    print()

    # --- exact dominance beyond majorization -----------------------------
    print("power sums can stay one-sided even when majorization fails:")
    print("(4,1,1) against (3,3,0), exact integer arithmetic,")
    print("equal at k = 1 and strict afterwards:")
    for k, lhs, rhs, _ in hq_dominance((4, 1, 1), (3, 3, 0), K=6):
        rel = "=" if lhs == rhs else "<"
        print(f"  k = {k}:  {lhs} {rel} {rhs}")
    assert not majorizes((4, 1, 1), (3, 3, 0))
    assert not majorizes((3, 3, 0), (4, 1, 1))


if __name__ == "__main__":
    main()
