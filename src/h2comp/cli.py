"""Command-line reports for the composition-operator bounds.

Every command prints one JSON document to stdout (or ``--out``), rendered
with a fixed 15-significant-digit float format and fixed key order, so a
repeated invocation with the same arguments and seed is byte-identical
except for the timestamp line.  ``curve --csv`` prints CSV instead.

Exit codes:

* 0 — the report was produced and every checked inequality held;
* 1 — usage or domain errors (bad flags, malformed or non-finite
  vectors, symbols outside the bounded class, arithmetic that
  overflows or divides by zero on extreme inputs, an ``--out`` path
  that cannot be written, or an array too large to allocate, which
  stderr reports on one ``error: out of memory:`` line);
* 2 — a mathematically guaranteed inequality failed its numerical
  check.  This is the interesting failure mode: it means a numerical
  regression, never a matter of taste.  A check inside the library
  that raises `InequalityViolation` ends the run with this code and
  one ``error:`` line on stderr.  ``verify-lemmas`` still prints its
  report, with the failing suite marked ``"passed": false`` and the
  message under ``details.violation``; other commands print none.
* 3 — an iteration did not converge (the Hermitian eigensolver behind
  the truncated-matrix lower bound failed).  No report is printed, and
  stderr holds one ``error: did not converge:`` line.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from collections.abc import Iterator
from datetime import datetime, timezone
from functools import lru_cache

import numpy as np

from . import __version__
from .affine import (
    AffineSymbol,
    _xi_from,
    annulus_radii,
    bvn_decompose,
    comp_bruteforce_norm_sq,
    comp_norm_sq,
    effective_constant,
    h2k_means,
    hq_dominance,
    majorizes,
)
from .disc import (
    PowerSeries, composition_matrix, littlewood_check, mobius_comp_norm_sq, psi_matrix, psi_z2z,
)
from .dseries import DirichletPoly, carlson_mean, evaluate, h2_norm_sq
from .errors import InequalityViolation, NonConvergence
from .fixtures import get_fixture, fixtures, poly_level_measure, poly_shapiro_closed_form
from .opnorm import (
    adjoint_bound_2s,
    bound_suite,
    build_matrix,
    kernel_quotient_report,
    phi_alpha_adjoint_sup,
    sigma_max_series,
    sigma_max_sq,
    suite_for_phi_alpha,
)
# shared between library and CLI: the section sizes of the reports, the
# real kernel grid, the bound suite's adjoint entry and the family's
# kernel entry and column Gram
from .opnorm import _KERNEL_SIGMAS, _adjoint_entry, _family_gram_lower, _family_kernel_entry, _truncation
from .torus import (
    InnerSymbolParams,
    SamplePlan,
    _map_slices,
    _phases,
    _shapiro_weight,
    curve_trace,
    inner_boundary_modulus,
    inner_truncation_bound,
    mc_comp_norm_sq,
    measure_E_delta,
)
from .zeta import (
    alpha0,
    dkzeta_sandwich,
    riemann_sum_bounds,
    zeta,
)

DEFAULT_SEED = 12345


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which this interface
    # reserves for violated inequalities; reroute to the usage path
    # (argparse catches only ArgumentError, so this reaches `main`)
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


# --- deterministic JSON rendering -----------------------------------------

def _render(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return "null"
        return format(x, ".15g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{pad}  {json.dumps(str(k))}: {_render(v, indent + 1)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        parts = [_render(v, indent + 1) for v in seq]
        if len(parts) <= 12 and all("\n" not in p and len(p) <= 24 for p in parts):
            return "[" + ", ".join(parts) + "]"
        return "[\n" + ",\n".join(pad + "  " + p for p in parts) + "\n" + pad + "]"
    raise TypeError(f"cannot render {type(obj).__name__} deterministically")


def _header(command: str, args_echo: dict, seed) -> dict:
    return {
        "command": command,
        "args": args_echo,
        "seed": seed,
        "artifact_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- argument parsing helpers ---------------------------------------------

def _parse_complex(text: str) -> complex:
    parts = [p.strip() for p in text.split(",")]
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ValueError(f"expected re or re,im — got {text!r}")


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise ValueError(f"expected a comma-separated number list — got {text!r}")


def _parse_vector_exactish(text: str):
    """Integer tokens parse to ints so downstream comparisons can be exact."""
    toks = [p.strip() for p in text.split(",") if p.strip() != ""]
    if not toks:
        raise ValueError("empty coefficient vector")
    if all(t.lstrip("+-").isdigit() for t in toks):
        return [int(t) for t in toks]
    try:
        return [float(t) for t in toks]
    except ValueError:
        raise ValueError(f"expected a comma-separated number list — got {text!r}")


def _resolve_symbol(args, kinds: tuple[str, ...]):
    """(kind, symbol, echo) from --fixture or --c/--coeffs flags.  A
    family fixture takes no --kout: its column Gram has no output degree."""
    if args.fixture:
        fx = get_fixture(args.fixture)
        if fx.kind not in kinds:
            raise ValueError(
                f"fixture {fx.name!r} has kind {fx.kind!r}; this command takes {kinds}"
            )
        if fx.kind == "family" and getattr(args, "kout", None) is not None:
            raise ValueError("--kout applies to affine symbols only: the family's Gram has no output degree")
        return fx.kind, fx.symbol, {"fixture": fx.name}
    if args.coeffs is None and args.c is None:
        raise ValueError("give either --fixture or --c/--coeffs")
    c = _parse_complex(args.c) if args.c is not None else complex(1.5, 0.0)
    coeffs = _parse_floats(args.coeffs) if args.coeffs is not None else ()
    sym = AffineSymbol(c, coeffs)
    echo = {"c": args.c if args.c is not None else "1.5"}
    if args.coeffs is not None:
        echo["coeffs"] = args.coeffs
    return "affine", sym, echo


# --- commands -------------------------------------------------------------

def _require_positive(args, *flags: str) -> None:
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise ValueError(f"--{flag} must be at least 1, got {value}")


def _cmd_bounds(args) -> tuple[str, int]:
    _require_positive(args, "nin")
    kind, sym, echo = _resolve_symbol(args, ("affine", "family"))
    if kind == "family":
        rep = suite_for_phi_alpha(sym.alpha, args.nin)
    else:
        rep = bound_suite(sym, args.nin, args.kout)
    echo.update({k: getattr(args, k) for k in ("nin", "kout") if getattr(args, k) is not None})
    payload = _header("bounds", echo, None)
    payload["symbol"] = sym.to_jsonable()
    payload["n_in"] = rep.n_in
    payload["k_out"] = rep.k_out
    payload["report"] = rep.to_jsonable()
    code = 0 if rep.gate_ok() else 2
    return _render(payload) + "\n", code


def _cmd_opnorm(args) -> tuple[str, int]:
    _require_positive(args, "nin", "levels")
    kind, sym, echo = _resolve_symbol(args, ("affine", "family"))
    base, k_out = _truncation(kind, args.nin, args.kout)
    smallest = 4 if kind == "family" else 2
    sizes = sorted({max(smallest, base >> s) for s in range(min(args.levels, base.bit_length() + 1))})
    if kind == "family":
        values = [_family_gram_lower(sym.alpha, n) for n in sizes]
        rows = [{"n_in": n, "sigma_max_sq": s} for n, s in zip(sizes, values)]
    else:
        values = [sigma_max_sq(build_matrix(sym, n, k_out)) for n in sizes]
        rows = [{"n_in": n, "k_out": k_out, "sigma_max_sq": s} for n, s in zip(sizes, values)]
    monotone_ok = all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    echo.update({k: getattr(args, k) for k in ("nin", "kout", "levels") if getattr(args, k) is not None})
    payload = _header("opnorm", echo, None)
    payload["symbol"] = sym.to_jsonable()
    payload["levels"] = rows
    payload["monotone_ok"] = monotone_ok
    return _render(payload) + "\n", 0 if monotone_ok else 2


def _norm_probe() -> DirichletPoly:
    return DirichletPoly({n: 1.0 / n for n in range(1, 13)})


def _cmd_subordinate(args) -> tuple[str, int]:
    b = _parse_vector_exactish(args.coeffs)
    echo = {"coeffs": args.coeffs}
    if args.scan:
        return _scan_subordination(args, echo)
    if args.against is None:
        raise ValueError("subordinate needs --against (or --scan)")
    c = _parse_vector_exactish(args.against)
    echo["against"] = args.against
    if len(b) != len(c):
        raise ValueError("coefficient vectors must have equal length")
    fwd = majorizes(b, c)
    rev = majorizes(c, b)
    rows = hq_dominance(b, c, K=args.k)

    r = float(sum(b))
    scale = 1.0
    center = _parse_complex(args.c) if args.c is not None else None
    if center is None:
        # normalize to r = 1 and sit on the diagonal of the bounded class
        scale = 1.0 / r if r > 0 else 1.0
        center = complex(1.5, 0.0)
    f = _norm_probe()
    phi_b = AffineSymbol(center, tuple(x * scale for x in map(float, b)))
    phi_c = AffineSymbol(center, tuple(x * scale for x in map(float, c)))
    nb = comp_norm_sq(phi_b, f)
    nc = comp_norm_sq(phi_c, f)

    checks = {}
    code = 0
    if fwd:
        checks["power_sums_follow_majorization"] = all(ok for _, _, _, ok in rows)
        checks["norms_follow_majorization"] = nb <= nc + 1e-9
        if not all(checks.values()):
            code = 2
    exact = all(isinstance(x, int) for x in b + c)

    if args.k != 24:
        echo["k"] = args.k
    payload = _header("subordinate", echo, None)
    payload["majorized_by_against"] = fwd
    payload["majorizes_against"] = rev
    payload["exact_arithmetic"] = exact
    payload["power_sums"] = [
        {"k": k, "lhs": lhs, "rhs": rhs, "ok": ok} for k, lhs, rhs, ok in rows
    ]
    payload["probe_norm_sq"] = {"coeffs": nb, "against": nc}
    payload["checks"] = checks
    return _render(payload) + "\n", code


def _scan_subordination(args, echo) -> tuple[str, int]:
    """Random search: are power-sum comparisons always one-sided for
    same-sum vectors, even when majorization says nothing?"""
    d = len(_parse_vector_exactish(args.coeffs))
    if d < 2:
        raise ValueError("--scan needs a vector of length >= 2 to set the dimension")
    _require_positive(args, "samples")
    if not 0 <= args.seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    n = args.samples
    gen = np.random.Generator(np.random.Philox(key=np.array([args.seed, 0], dtype=np.uint64)))
    counts = {"comparable": 0, "lhs_dominates": 0, "rhs_dominates": 0, "mixed": 0}
    mixed_examples = []
    for _ in range(n):
        v = np.sort(gen.dirichlet(np.ones(d)))[::-1]
        w = np.sort(gen.dirichlet(np.ones(d)))[::-1]
        if majorizes(v, w) or majorizes(w, v):
            counts["comparable"] += 1
            continue
        rows = hq_dominance(v, w, K=12)
        le = all(l <= r * (1 + 1e-12) + 1e-15 for _, l, r, _ in rows)
        ge = all(r <= l * (1 + 1e-12) + 1e-15 for _, l, r, _ in rows)
        if le and not ge:
            counts["lhs_dominates"] += 1
        elif ge and not le:
            counts["rhs_dominates"] += 1
        elif le and ge:
            counts["comparable"] += 1
        else:
            counts["mixed"] += 1
            if len(mixed_examples) < 3:
                mixed_examples.append({"lhs": list(v), "rhs": list(w)})
    echo.update({"scan": True, "samples": n})
    payload = _header("subordinate", echo, args.seed)
    payload["dimension"] = d
    payload["counts"] = counts
    payload["mixed_examples"] = mixed_examples
    payload["note"] = (
        "mixed pairs are incomparable under majorization with power sums "
        "ordered in neither direction up to k=12; their existence bounds "
        "how far power-sum domination can reach past majorization"
    )
    return _render(payload) + "\n", 0


def _cmd_majorize(args) -> tuple[str, int]:
    b = _parse_vector_exactish(args.coeffs)
    c = _parse_vector_exactish(args.against)
    echo = {"coeffs": args.coeffs, "against": args.against}
    fwd = majorizes(b, c)
    rev = majorizes(c, b)
    payload = _header("majorize", echo, None)
    payload["majorized_by_against"] = fwd
    payload["majorizes_against"] = rev
    if fwd:
        decomp = bvn_decompose(b, c)
        payload["mixture"] = [
            {"weight": w, "perm": list(p)} for w, p in decomp
        ]
        payload["note"] = (
            "coeffs = sum of weight * (against permuted by perm); "
            "weights sum to 1"
        )
    else:
        payload["mixture"] = None
    return _render(payload) + "\n", 0


def _cmd_measure(args) -> tuple[str, int]:
    kind, sym, echo = _resolve_symbol(args, ("affine", "poly", "inner"))
    delta = args.delta
    plan = SamplePlan(n_samples=args.samples, seed=args.seed, d=max(sym.d, 1))
    res = measure_E_delta(sym, delta, plan)
    shap = _shapiro_weight(delta) * res.estimate
    echo.update({"delta": args.delta, "samples": args.samples})
    payload = _header("measure", echo, args.seed)
    payload["symbol"] = sym.to_jsonable()
    payload["estimate"] = res.estimate
    payload["ci95"] = res.ci95
    payload["shapiro_constant"] = shap
    code = 0
    if args.fixture == "example-7.1":
        closed = poly_level_measure(delta)
        closed_c = poly_shapiro_closed_form(delta)
        tol = max(2.5 * res.ci95, 1e-3)
        ok = abs(res.estimate - closed) <= tol
        payload["closed_form"] = {
            "measure": closed,
            "shapiro_constant": closed_c,
            "tolerance": tol,
            "within_tolerance": ok,
        }
        if not ok:
            code = 2
    else:
        payload["closed_form"] = None
    return _render(payload) + "\n", code


def _cmd_curve(args) -> tuple[str, int]:
    kind, sym, echo = _resolve_symbol(args, ("affine", "poly", "inner"))
    T = args.T
    steps = args.steps
    if not T > 0:
        raise ValueError("need --T > 0")
    trace = curve_trace(sym, -T, T, steps)
    c = sym.c
    offs = np.hypot(trace[:, 1] - c.real, trace[:, 2] - c.imag)
    mn = float(offs.min())
    mx = float(offs.max())
    r = sym.r
    r0 = annulus_radii(sym)[0] if kind == "affine" else None
    outer_ok = mx <= r + 1e-9
    inner_ok = (mn >= r0 - 1e-9) if r0 is not None else True
    code = 0 if (outer_ok and inner_ok) else 2

    if args.csv:
        lines = ["t,re,im"]
        for row in trace:
            lines.append(",".join(format(float(v), ".15g") for v in row))
        text = "\n".join(lines) + "\n"
        _maybe_warn_curve(outer_ok, inner_ok)
        return text, code

    echo.update({"T": args.T, "steps": args.steps})
    payload = _header("curve", echo, None)
    payload["symbol"] = sym.to_jsonable()
    payload["t_range"] = [-T, T]
    payload["steps"] = steps
    payload["min_offset"] = mn
    payload["max_offset"] = mx
    payload["annulus"] = {"inner": r0, "outer": r}
    payload["checks"] = {
        "stays_inside_outer_radius": outer_ok,
        "stays_outside_inner_radius": inner_ok if r0 is not None else None,
    }
    return _render(payload) + "\n", code


def _maybe_warn_curve(outer_ok: bool, inner_ok: bool) -> None:
    if not outer_ok:
        print("curve left the outer frame circle", file=sys.stderr)
    if not inner_ok:
        print("curve crossed inside the certified inner radius", file=sys.stderr)


def _inner_rows(params: InnerSymbolParams, plan: SamplePlan, sigmas) -> tuple[dict, bool]:
    """Diagnostics rows per depth in `sigmas` over the sampled phases of
    `plan`, |g| at depth 40 at the first sample, and whether all of them
    hold.  Each column slice of phases is drawn and evaluated at every
    depth in one call of `InnerSymbolParams.interior_values`, in one
    task on every CPU, so memory is one slice per worker plus 8 bytes of
    1 - |g| per sample per depth, which the medians need.  The gap
    1 - |g| = -expm1(-Re S) and the moduli |g| = exp(-Re S) take Re S
    from the kernel's closed form, which keeps every digit at small
    depths; the offsets frame its g = exp(-Re S) e^{-i Im S}."""
    gaps = np.empty((len(sigmas), plan.n_samples))
    deep = inner_boundary_modulus(params, _phases(plan, 0, 1)[:, 0], 40.0)

    def scan(lo, hi):
        out = []
        values = params.interior_values(_phases(plan, lo, hi), sigmas)
        for row, (re_S, g) in enumerate(values):
            np.negative(np.expm1(-re_S), out=gaps[row, lo:hi])
            mods = np.exp(-re_S)
            offs = np.abs(params.frame(g) - params.c)
            out.append((mods.min(), mods.max(), offs.max()))
        return out

    # (|g| min, |g| max, offset max) per depth, per slice
    ext = np.array(_map_slices(scan, plan.n_samples))
    mod_min = ext[..., 0].min(axis=0)
    mod_max, off_max = ext[..., 1].max(axis=0), ext[..., 2].max(axis=0)
    rows = [{
        "sigma": s,
        "modulus_min": float(mod_min[row]),
        "modulus_max": float(mod_max[row]),
        "median_gap_to_unit": float(np.median(gaps[row])),
        "offset_max": float(off_max[row]),
        "truncation_bound": inner_truncation_bound(params, s),
        "inner_modulus_at_most_one": bool(mod_max[row] <= 1.0 + 1e-9),
        "image_inside_frame_disc": bool(off_max[row] <= params.r + 1e-9),
    } for row, s in enumerate(sigmas)]
    limit_ok = abs(deep - params.g_infinity) <= 1e-6
    ok = limit_ok and all(
        row["inner_modulus_at_most_one"] and row["image_inside_frame_disc"] for row in rows
    )
    report = {"rows": rows, "deep_interior_modulus": deep, "deep_interior_matches_limit": limit_ok}
    return report, ok


def _cmd_inner_check(args) -> tuple[str, int]:
    name = args.fixture or "example-7.3"
    fx = get_fixture(name)
    if fx.kind != "inner":
        raise ValueError(f"fixture {name!r} is not an inner-factor symbol")
    params: InnerSymbolParams = fx.symbol
    plan = SamplePlan(n_samples=args.samples, seed=args.seed, d=params.d)
    report, ok = _inner_rows(params, plan, (0.1, 1e-2, 1e-4, 1e-6, 1e-8))

    echo = {"fixture": name, "samples": args.samples}
    payload = _header("inner-check", echo, args.seed)
    payload["symbol"] = params.to_jsonable()
    payload["g_infinity"] = params.g_infinity
    payload.update(report)
    return _render(payload) + "\n", 0 if ok else 2


# --- verify-lemmas suites -------------------------------------------------

def _suite_zeta_sandwich() -> dict:
    cases = 0
    max_rel_width = 0.0
    for k in range(1, 7):
        for s in (1.2, 1.5, 2.0, 3.0, 5.0):
            lo, mid, hi = dkzeta_sandwich(k, s)
            cases += 1
            max_rel_width = max(max_rel_width, (hi - lo) / mid)
    return {"passed": True, "cases": cases, "max_relative_width": max_rel_width}


def _suite_riemann_tails() -> dict:
    worst = 0.0
    ok = True
    for s in (1.5, 2.0, 3.0):
        target = 1.0 / (s - 1.0)
        prev_lo, prev_hi = -math.inf, math.inf
        for m in range(1, 101):
            lo, hi = riemann_sum_bounds(s, m)
            ok &= lo <= target + 1e-12 and hi >= target - 1e-12
            ok &= abs((hi - lo) - 1.0 / m) <= 1e-12
            ok &= lo >= prev_lo - 1e-12 and hi <= prev_hi + 1e-12
            worst = max(worst, hi - target, target - lo)
            prev_lo, prev_hi = lo, hi
        lo1, hi1 = riemann_sum_bounds(s, 1)
        ok &= abs(hi1 - zeta(s)) <= 1e-12 and abs(lo1 - (zeta(s) - 1.0)) <= 1e-12
    return {"passed": bool(ok), "worst_gap_at_m100": worst}


def _suite_crossing_point() -> dict:
    a = alpha0()
    residual = abs(a * zeta(1.0 + a) - 2.0)
    bracketed = 1.4 < a < 1.5
    sided = (a - 1e-6) * zeta(1.0 + a - 1e-6) < 2.0 < (a + 1e-6) * zeta(1.0 + a + 1e-6)
    return {
        "passed": bool(bracketed and residual < 1e-9 and sided),
        "alpha0": a,
        "residual": residual,
    }


def _series_pairs():
    f1 = DirichletPoly({n: 1.0 for n in range(1, 9)})
    f2 = DirichletPoly({1: 1.0, 2: 2.0, 3: -1.0, 6: 0.5j})
    f3 = DirichletPoly({1: 1.0, 2: 1.0, 3: 1.0, 5: 1.0, 30: 1.0 + 1.0j})
    f4 = DirichletPoly({n: 1.0 / n for n in range(1, 7)})
    return [
        (AffineSymbol(1.5, (1.0,)), f1),
        (AffineSymbol(1.5, (0.6, 0.4)), f2),
        (AffineSymbol(2.0 + 0.5j, (0.5, 0.5, 0.5)), f3),
        (AffineSymbol(1.5, (0.7, 0.3), twist=(cmath.exp(0.7j), -1.0)), f4),
    ]


def _suite_comp_series() -> dict:
    worst = 0.0
    for phi, f in _series_pairs():
        a = comp_norm_sq(phi, f)
        b = comp_bruteforce_norm_sq(phi, f)
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return {"passed": worst < 1e-8, "pairs": 4, "worst_relative_gap": worst}


_MAJORIZING_PAIRS = [
    ((0.5, 0.5), (1.0, 0.0)),
    ((0.4, 0.35, 0.25), (0.7, 0.2, 0.1)),
    ((1.0 / 3, 1.0 / 3, 1.0 / 3), (0.5, 0.3, 0.2)),
]


def _suite_subordination_means() -> dict:
    ok = True
    f = _norm_probe()
    for b, c in _MAJORIZING_PAIRS:
        ok &= majorizes(b, c)
        mb = h2k_means(b, 60)
        mc = h2k_means(c, 60)
        ok &= bool(np.all(mb <= mc * (1 + 1e-12) + 1e-15))
        ok &= bool(np.all(np.diff(mb) <= 1e-15)) and bool(np.all(np.diff(mc) <= 1e-15))
        nb = comp_norm_sq(AffineSymbol(1.5, b), f)
        nc = comp_norm_sq(AffineSymbol(1.5, c), f)
        ok &= nb <= nc + 1e-9
    return {"passed": bool(ok), "pairs": len(_MAJORIZING_PAIRS)}


def _suite_multinomial_dominance() -> dict:
    rows = hq_dominance((4, 1, 1), (3, 3, 0), K=60)
    k1 = rows[0]
    k2 = rows[1]
    ok = all(r[3] for r in rows)
    ok &= k1[1] == 18 and k1[2] == 18
    ok &= k2[1] == 390 and k2[2] == 486
    ok &= all(r[1] < r[2] for r in rows[1:])
    incomparable = (not majorizes((4, 1, 1), (3, 3, 0))) and (
        not majorizes((3, 3, 0), (4, 1, 1))
    )
    return {
        "passed": bool(ok and incomparable),
        "k1": {"lhs": int(k1[1]), "rhs": int(k1[2])},
        "k2": {"lhs": int(k2[1]), "rhs": int(k2[2])},
        "majorization_incomparable": incomparable,
        "note": "power sums of (4,1,1) sit below (3,3,0) at every k <= 60 "
        "although neither vector majorizes the other",
    }


def _suite_effective_mixture() -> dict:
    ok = True
    worst = -math.inf
    f = DirichletPoly({n: 1.0 for n in range(1, 11)})
    for phi in (
        AffineSymbol(1.5, (0.6, 0.4)),
        AffineSymbol(2.0, (0.5, 0.5)),
        AffineSymbol(1.75 + 0.3j, (0.5, 0.25, 0.25)),
    ):
        C = effective_constant(phi.coeffs)
        twin = AffineSymbol(phi.c, (phi.r,))
        lhs = comp_norm_sq(phi, f)
        rhs = (1.0 - C) * abs(evaluate(f, phi.c)) ** 2 + C * comp_norm_sq(twin, f)
        ok &= lhs <= rhs + 1e-9
        worst = max(worst, lhs - rhs)
    return {"passed": bool(ok), "max_overshoot": worst}


def _suite_carlson_window() -> dict:
    f = DirichletPoly({1: 1.0, 2: 1.0, 3: 0.5, 5: -0.25})
    norm = h2_norm_sq(f)
    sup = f.support
    K_f = 0.0
    for m in sup:
        for n in sup:
            if m != n:
                K_f += abs(f.coeff(m)) * abs(f.coeff(n)) / abs(math.log(m / n))
    ok = True
    gaps = {}
    for T in (100.0, 1000.0):
        mean = carlson_mean(f, T)
        gap = abs(mean - norm)
        ok &= gap <= K_f / T + 1e-4
        gaps[f"T={T:g}"] = gap
    return {"passed": bool(ok), "window_constant": K_f, "gaps": gaps}


def _suite_boundary_identity() -> dict:
    pairs = [
        (AffineSymbol(1.5, (1.0,)), DirichletPoly({n: 1.0 for n in range(1, 7)})),
        (
            AffineSymbol(1.5, (0.5, 0.5), twist=(1.0, cmath.exp(1.3j))),
            DirichletPoly({1: 1.0, 2: -1.0, 3: 0.5, 6: 0.25j}),
        ),
        (
            AffineSymbol(2.0, (0.6, 0.5, 0.4)),
            DirichletPoly({1: 1.0, 2: 1.0, 3: 1.0, 5: 1.0}),
        ),
    ]
    ok = True
    rows = []
    for i, (phi, f) in enumerate(pairs):
        exact = comp_norm_sq(phi, f)
        plan = SamplePlan(n_samples=20000, seed=777 + i, d=max(phi.d, 1))
        mc = mc_comp_norm_sq(phi, f, plan)
        ok &= abs(mc.estimate - exact) <= 2.0 * mc.ci95 + 1e-9
        rows.append({"exact": exact, "mc": mc.estimate, "ci95": mc.ci95})
    return {"passed": bool(ok), "pairs": rows}


def _suite_adjoint_diagonal() -> dict:
    ok = True
    for x in (0.1, 0.2, 0.25):
        val = adjoint_bound_2s(complex(0.5 + x, 0.0), x)
        ok &= abs(val * x - 1.0) <= 1e-6
    sweep_ok = True
    for x in np.geomspace(0.05, 3.0, 50):
        val = adjoint_bound_2s(complex(0.5 + x, 0.0), float(x))
        sweep_ok &= val >= 1.0 / x - 1e-9
    z3 = adjoint_bound_2s(complex(1.5, 0.0), 1.0)
    anchor = z3 >= max(1.0, zeta(3.0)) - 1e-9
    off_ok = True
    for r in (0.3, 1.0, 2.0):
        for fac in (1.0, 1.2, 2.0, 5.0):
            a = r * fac
            val = adjoint_bound_2s(complex(0.5 + a, 0.0), r)
            off_ok &= val >= 1.0 / _xi_from(a, r) - 1e-9
    return {
        "passed": bool(ok and sweep_ok and anchor and off_ok),
        "diagonal_anchor": z3,
        "zeta3": zeta(3.0),
    }


def _suite_kernel_in_section() -> dict:
    ok = True
    rows = []
    for coeffs, n_in, k_out in (((1.0,), 512, 48), ((0.6, 0.4), 64, 40)):
        phi = AffineSymbol(1.5, coeffs)
        op = build_matrix(phi, n_in, k_out)
        smax = sigma_max_sq(op)
        best_ratio = 0.0
        for s in (0.75, 1.0, 2.0):
            repk = kernel_quotient_report(op, s)
            q_mat = repk.ratio**2
            ktrunc = DirichletPoly({n: n ** (-s) for n in op.input_ns})
            nv2 = sum(n ** (-2.0 * s) for n in op.input_ns)
            q_comp = comp_norm_sq(phi, ktrunc) / nv2
            D = repk.image_defect
            ok &= q_comp >= q_mat - 1e-10
            ok &= q_comp - q_mat <= 2.0 * math.sqrt(q_comp) * D + D * D + 1e-10
            best_ratio = max(best_ratio, q_mat)
            rows.append({"sigma": s, "matrix": q_mat, "series": q_comp, "defect": D})
        ok &= smax >= best_ratio - 1e-12
    return {"passed": bool(ok), "cases": rows}


def _suite_matrix_certificates() -> dict:
    ok = True
    phi = AffineSymbol(1.5, (1.0,))
    op = build_matrix(phi, 32, 40)
    colsq = op.column_norm_sq()
    for i, n in enumerate(op.input_ns):
        exact = comp_norm_sq(phi, DirichletPoly.monomial(n))
        ok &= colsq[i] - 1e-12 <= exact <= colsq[i] + op.column_defects[i] + 1e-12
    e0 = np.zeros(op.factor.shape[0])
    e0[0] = 1.0
    ok &= bool(np.allclose(op.entries[:, 0].real, e0, atol=1e-15))
    ok &= abs(op.column_defects[0]) == 0.0

    const = AffineSymbol(2.0, ())
    opc = build_matrix(const, 64, 0)
    rank1 = sigma_max_sq(opc)
    expect = sum(n ** (-4.0) for n in range(1, 65))
    ok &= abs(rank1 - expect) <= 1e-12

    series = sigma_max_series(phi, [(8, 40), (16, 40), (32, 40), (64, 40)])
    vals = [s for _, _, s in series]
    ok &= all(vals[i + 1] >= vals[i] - 1e-10 for i in range(len(vals) - 1))
    kser = sigma_max_series(phi, [(64, 10), (64, 20), (64, 40)])
    kvals = [s for _, _, s in kser]
    ok &= all(kvals[i + 1] >= kvals[i] - 1e-10 for i in range(len(kvals) - 1))
    return {"passed": bool(ok), "rank_one_value": rank1, "level_values": vals}


def _suite_annuli_closure() -> dict:
    ok = True
    rows = []
    for name in ("fig1-a", "fig1-b", "fig1-c"):
        sym = get_fixture(name).symbol
        r0, r = annulus_radii(sym)
        trace = curve_trace(sym, -200.0, 200.0, 100_000)
        offs = np.hypot(trace[:, 1] - sym.c.real, trace[:, 2] - sym.c.imag)
        mn, mx = float(offs.min()), float(offs.max())
        ok &= mn >= r0 - 1e-9 and mx <= r + 1e-9
        ok &= abs(mn - r0) <= 1e-2 and abs(mx - r) <= 1e-2
        rows.append({"fixture": name, "inner": r0, "outer": r, "min": mn, "max": mx})
    return {"passed": bool(ok), "cases": rows}


def _suite_level_measure() -> dict:
    sym = get_fixture("example-7.1").symbol
    plan = SamplePlan(n_samples=100_000, seed=4242, d=sym.d)
    sq58 = math.sqrt(5.0 / 8.0)
    ok = True
    rows = []
    for delta in (1.0 / math.sqrt(2.0), sq58, 0.9):
        est = measure_E_delta(sym, delta, plan)
        closed = poly_level_measure(delta)
        tol = max(2.5 * est.ci95, 1e-3)
        ok &= abs(est.estimate - closed) <= tol
        rows.append({"delta": delta, "estimate": est.estimate, "closed": closed})
        if delta == sq58:
            shap = _shapiro_weight(delta) * est.estimate
    shap_closed = poly_shapiro_closed_form(sq58)
    ok &= abs(shap - shap_closed) <= 1e-3
    return {"passed": bool(ok), "cases": rows, "point_mass_constant": shap_closed}


def _suite_disc_transfer() -> dict:
    ok = True
    M = psi_matrix(40)
    col1 = M[:, 1]
    ok &= abs(float(np.sum(col1**2)) - (1.0 - 4.0**-40.0) / 3.0) <= 1e-15
    colsums = M.sum(axis=0)
    ok &= bool(np.all(colsums <= 1.0 + 1e-12))
    ok &= bool(np.all(np.diff(colsums[1:]) <= 1e-12))  # deeper powers leak more mass

    gen = np.random.Generator(np.random.Philox(key=[31337, 0]))
    C = composition_matrix(psi_z2z(128), 128, 64)   # one self-map check
    for _ in range(50):
        coeff = gen.standard_normal(65) + 1j * gen.standard_normal(65)
        f = PowerSeries(coeff)
        g = PowerSeries(C @ f.coeffs)
        bound = 0.5 * (abs(f(0.0)) ** 2 + f.norm_sq())
        ok &= g.norm_sq() <= bound + 1e-9

    lit = littlewood_check(
        PowerSeries([0.0, 0.0, 1.0]), PowerSeries([0.0, 1.0, 0.5]), N=8
    )
    ok &= lit.ok
    ok &= abs(mobius_comp_norm_sq(0.0) - 1.0) <= 1e-15
    ok &= abs(mobius_comp_norm_sq(1.0 / 3.0) - 2.0) <= 1e-12
    ok &= abs(mobius_comp_norm_sq(0.5) - 3.0) <= 1e-12
    return {"passed": bool(ok)}


def _suite_inner_frame() -> dict:
    params = get_fixture("example-7.3").symbol
    plan = SamplePlan(n_samples=40, seed=505, d=params.d)
    report, ok = _inner_rows(params, plan, (1.0, 1e-2, 1e-4))
    deep = report["deep_interior_modulus"]
    b1 = inner_truncation_bound(params, 1.0)
    b01 = inner_truncation_bound(params, 0.1)
    ok &= b1 < b01  # certified truncation error shrinks into the interior
    ok &= b1 < 0.03
    return {"passed": bool(ok), "deep_modulus": deep, "truncation_bound_sigma1": b1}


def _gate_sweep_symbols() -> Iterator[AffineSymbol]:
    """The 200 seeded affine symbols of the `gate-sweep` suite: one to
    three primes, gap Re c - 1/2 log-uniform in [0.05, 4], r a uniform
    share of it in [0.15, 1], Im c uniform in [-2, 2]."""
    gen = np.random.Generator(np.random.Philox(key=[2024, 0]))
    for _ in range(200):
        d = int(gen.integers(1, 4))
        gap = float(np.exp(gen.uniform(np.log(0.05), np.log(4.0))))
        u = float(gen.uniform(0.15, 1.0))
        r = gap * u
        w = gen.dirichlet(np.ones(d))
        coeffs = tuple(float(x) * r for x in w)
        im = float(gen.uniform(-2.0, 2.0))
        yield AffineSymbol(complex(0.5 + gap, im), coeffs)


def _suite_gate_sweep() -> dict:
    bad = []
    n_checked = 0
    for i, phi in enumerate(_gate_sweep_symbols()):
        rep = bound_suite(phi, n_in=24)
        n_checked += 1
        v = rep.violations()
        if v:
            bad.append({"index": i, "symbol": phi.to_jsonable(), "violations": v})
    for a in (0.5, 1.0, 3.0):
        rep = suite_for_phi_alpha(a, n_in=128)
        n_checked += 1
        v = rep.violations()
        if v:
            bad.append({"alpha": a, "violations": v})
    return {"passed": not bad, "symbols_checked": n_checked, "violations": bad}


def _suite_kernel_order() -> dict:
    """Direct quotients dominate adjoint quotients: for every fixture with
    both routes, the best kernel ratio must reach the adjoint supremum up
    to the quantified truncation allowance."""
    rows = []
    for name, fx in fixtures().items():
        if fx.kind == "affine":
            phi = fx.symbol
            adj = _adjoint_entry(phi).value
            # the report's own section, shared by all the kernel points
            op = build_matrix(phi, *_truncation("affine", None, None))
            best, allowance = 0.0, 0.0
            for s in _KERNEL_SIGMAS:
                rk = kernel_quotient_report(op, s)
                shave = rk.image_defect + rk.kernel_tail
                best = max(best, rk.ratio**2)
                allowance = max(allowance, 2.0 * rk.ratio * shave + shave * shave)
        elif fx.kind == "family":
            a = fx.symbol.alpha
            adj = phi_alpha_adjoint_sup(a)
            best = _family_kernel_entry(a).value
            # the exact quotient is sampled on a grid ending at w = 1e-4;
            # the sup may sit beyond the last point by O(w_min)
            allowance = 1e-3
        else:
            continue
        rows.append({
            "fixture": name,
            "kernel_sq": float(best),
            "adjoint_sq": float(adj),
            "allowance": float(allowance),
            "ok": bool(best >= adj - allowance - 1e-9),
        })
    return {"passed": all(r["ok"] for r in rows), "fixtures": rows}


_SUITES: dict[str, tuple[str, object]] = {
    "zeta-sandwich": (
        "k! (zeta - 1)/(s-1)^k <= (-1)^k zeta^(k)(s) <= k! zeta/(s-1)^k "
        "for k = 1..6 on a sigma grid",
        _suite_zeta_sandwich,
    ),
    "riemann-tails": (
        "m^{s-1} * tail sums of zeta bracket 1/(s-1) from both sides, "
        "tighten monotonically, and the bracket width is exactly 1/m",
        _suite_riemann_tails,
    ),
    "crossing-point": (
        "alpha * zeta(1 + alpha) = 2 has its root in (1.4, 1.5), located "
        "to residual < 1e-9",
        _suite_crossing_point,
    ),
    "comp-series": (
        "the derivative-series composition norm matches the literal "
        "term-by-term expansion to 1e-8 on mixed real/twisted symbols",
        _suite_comp_series,
    ),
    "subordination-means": (
        "if c majorizes b then every normalized power mean of b sits below "
        "that of c, means decrease in k, and composition norms follow",
        _suite_subordination_means,
    ),
    "multinomial-dominance": (
        "exact arithmetic: power sums of (4,1,1) never exceed (3,3,0) up "
        "to k = 60 (equality only at k = 1) though majorization fails both ways",
        _suite_multinomial_dominance,
    ),
    "effective-mixture": (
        "||f o phi||^2 <= (1 - C) |f(c)|^2 + C ||f o (one-prime twin)||^2 "
        "with C the normalized square sum of the coefficients",
        _suite_effective_mixture,
    ),
    "carlson-window": (
        "the finite-window mean of |f(it)|^2 is within K_f / T of the "
        "coefficient square sum",
        _suite_carlson_window,
    ),
    "boundary-identity": (
        "Monte Carlo boundary averages of |f(phi*)|^2 agree with the "
        "composition-norm series within their confidence radius",
        _suite_boundary_identity,
    ),
    "adjoint-diagonal": (
        "the one-prime adjoint supremum equals 1/xi on the critical "
        "diagonal for small radii and never drops below 1/xi",
        _suite_adjoint_diagonal,
    ),
    "kernel-in-section": (
        "kernel quotients through the finite section are sandwiched by the "
        "certified series value, and never exceed the section's top "
        "singular value",
        _suite_kernel_in_section,
    ),
    "matrix-certificates": (
        "truncated column norms carry certified defects matching the "
        "series values; sections grow monotonically in both directions",
        _suite_matrix_certificates,
    ),
    "annuli-closure": (
        "the boundary curve of a linear symbol fills the annulus with "
        "inner radius max(0, 2 max_j c_j - r) to within 1e-2",
        _suite_annuli_closure,
    ),
    "level-measure": (
        "sampled level-set measures of the prime-power polynomial fixture "
        "match their arccos closed form",
        _suite_level_measure,
    ),
    "disc-transfer": (
        "the half-plane-to-disc transfer map obeys its column identities "
        "and the averaged norm bound on random disc functions",
        _suite_disc_transfer,
    ),
    "inner-frame": (
        "inner-factor symbols stay inside the frame disc with boundary "
        "modulus at most 1 and collapse to exp(-sum lambda) deep inside",
        _suite_inner_frame,
    ),
    "gate-sweep": (
        "max(lower bounds) <= min(upper bounds) + 1e-9 over a seeded sweep "
        "of 200 random symbols plus the interpolation family",
        _suite_gate_sweep,
    ),
    "kernel-order": (
        "the best kernel quotient reaches the adjoint supremum up to the "
        "quantified truncation allowance, on every two-route fixture",
        _suite_kernel_order,
    ),
}


# accepted spellings kept for interface stability
_SUITE_ALIASES = {"dkzeta": "zeta-sandwich"}


def _cmd_verify_lemmas(args) -> tuple[str, int]:
    which = args.suite or "all"
    which = _SUITE_ALIASES.get(which, which)
    if which != "all" and which not in _SUITES:
        known = ", ".join(sorted(_SUITES))
        raise ValueError(f"unknown suite {which!r}; available: all, {known}")
    names = list(_SUITES) if which == "all" else [which]
    results = []
    all_ok = True
    for name in names:
        statement, fn = _SUITES[name]
        try:
            details = fn()
        except InequalityViolation as e:
            details = {"passed": False, "violation": str(e)}
            print(f"error: inequality violated in {name}: {e}", file=sys.stderr)
        else:
            marker = "ok  " if details["passed"] else "FAIL"
            print(f"{marker} {name}: {statement}", file=sys.stderr)
        passed = bool(details.pop("passed"))
        all_ok &= passed
        results.append({
            "suite": name,
            "statement": statement,
            "passed": passed,
            "details": details,
        })
    payload = _header("verify-lemmas", {"suite": which}, None)
    payload["suites"] = results
    payload["all_passed"] = all_ok
    return _render(payload) + "\n", 0 if all_ok else 2


# --- wiring ---------------------------------------------------------------

# built once per process: construction costs more than a parse, a parser
# keeps no state between parse_args calls, and help text is formatted
# when printed, at the terminal width of that moment
@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    top = _Parser(
        prog="h2comp",
        description="bounds and experiments for composition operators on "
        "square-summable Dirichlet series",
    )
    sub = top.add_subparsers(dest="command", parser_class=_Parser)

    def add_symbol_flags(p):
        p.add_argument("--fixture", help="named shipped symbol (see README)")
        p.add_argument("--c", help="symbol constant, re or re,im (default 1.5)")
        p.add_argument("--coeffs", help="comma-separated prime coefficients")

    def add_out(p):
        p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("bounds", help="assemble every applicable norm bound")
    add_symbol_flags(p)
    p.add_argument("--nin", type=int, help="input truncation (columns / lattice levels)")
    p.add_argument("--kout", type=int, help="output truncation degree (affine symbols only)")
    add_out(p)

    p = sub.add_parser("opnorm", help="singular values of growing finite sections")
    add_symbol_flags(p)
    p.add_argument("--nin", type=int, help="largest input truncation")
    p.add_argument("--kout", type=int, help="output truncation degree (affine symbols only)")
    p.add_argument("--levels", type=int, default=4, help="number of doubling levels")
    add_out(p)

    p = sub.add_parser("subordinate", help="majorization, power sums, norm ordering")
    p.add_argument("--coeffs", required=True, help="left coefficient vector")
    p.add_argument("--against", help="right coefficient vector (same sum)")
    p.add_argument("--c", help="shared center, re or re,im (default: normalize to 1.5)")
    p.add_argument("--k", type=int, default=24, help="compare power sums up to this k")
    p.add_argument("--scan", action="store_true",
                   help="random incomparable-pair experiment instead of one comparison")
    p.add_argument("--samples", type=int, default=2000, help="scan sample count")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_out(p)

    p = sub.add_parser("majorize", help="majorization verdict and mixing decomposition")
    p.add_argument("--coeffs", required=True, help="vector to decompose")
    p.add_argument("--against", required=True, help="majorizing vector")
    add_out(p)

    p = sub.add_parser("measure", help="sampled boundary level-set measures")
    add_symbol_flags(p)
    p.add_argument("--delta", type=float, required=True, help="level in [0, 1]")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_out(p)

    p = sub.add_parser("curve", help="trace the boundary curve phi(it)")
    add_symbol_flags(p)
    p.add_argument("--T", type=float, default=200.0, help="trace t in [-T, T]")
    p.add_argument("--steps", type=int, default=400_000)
    p.add_argument("--csv", action="store_true", help="emit t,re,im rows instead of JSON")
    add_out(p)

    p = sub.add_parser("inner-check", help="inner-factor symbol diagnostics")
    p.add_argument("--fixture", help="inner fixture name (default example-7.3)")
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_out(p)

    p = sub.add_parser("verify-lemmas", help="run the inequality suites")
    p.add_argument("--suite", help="one suite name, or all (default)")
    add_out(p)

    return top


_DISPATCH = {
    "bounds": _cmd_bounds,
    "opnorm": _cmd_opnorm,
    "subordinate": _cmd_subordinate,
    "majorize": _cmd_majorize,
    "measure": _cmd_measure,
    "curve": _cmd_curve,
    "inner-check": _cmd_inner_check,
    "verify-lemmas": _cmd_verify_lemmas,
}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    text, code = _DISPATCH[args.command](args)
    _emit(text, args.out)
    return code


def main(argv=None) -> int:
    try:
        return run(argv)
    except InequalityViolation as e:
        print(f"error: inequality violated: {e}", file=sys.stderr)
        return 2
    except NonConvergence as e:
        print(f"error: did not converge: {e}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ArithmeticError as e:
        print(f"error: floating-point arithmetic failed: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)


if __name__ == "__main__":
    sys.exit(main())
