"""Command-line interface: exit codes, report headers, determinism, and
the emitted JSON/CSV shapes."""

from __future__ import annotations

import importlib
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import h2comp.cli as cli
from h2comp.cli import main
from h2comp.errors import InequalityViolation
from h2comp.fixtures import get_fixture
from h2comp.primes import first_primes
from h2comp.torus import SamplePlan, inner_boundary_modulus, sample_characters
from h2comp.zeta import zeta


def _run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _strip_timestamp(text: str) -> str:
    return re.sub(r'^\s*"timestamp".*$', "", text, flags=re.MULTILINE)


# ------------------------------------------------------------- reports


def test_bounds_single_prime_report(capsys):
    code, out, _ = _run(capsys, ["bounds", "--c", "1.5", "--coeffs", "1"])
    assert code == 0
    payload = json.loads(out)
    for key in ("command", "args", "seed", "artifact_version", "timestamp"):
        assert key in payload
    assert payload["command"] == "bounds"
    entries = payload["report"]["entries"]
    assert entries["genlower"]["value"] == pytest.approx(zeta(3.0), rel=1e-12)
    assert entries["mpq_upper"]["value"] == pytest.approx(zeta(2.0), rel=1e-12)
    assert payload["report"]["gate_ok"] is True
    lo, hi = payload["report"]["bracket"]
    assert lo <= hi


def test_bounds_far_right_constant_brackets_one(capsys):
    # zeta(2 Re c) = 1 to double precision; every zeta-based entry must
    # say so rather than come out null
    code, out, _ = _run(capsys, ["bounds", "--c", "1e25,0", "--coeffs", "0.1"])
    assert code == 0
    report = json.loads(out)["report"]
    assert report["bracket"] == {"max_lower": 1, "min_upper": 1}
    assert report["gate_ok"] is True
    entries = report["entries"]
    for key in ("genlower", "adjoint_lower", "mpq_upper", "combo_upper", "smallnorm_upper"):
        assert entries[key]["applicable"] is True
        assert entries[key]["value"] is not None
    assert entries["adjoint_lower"]["value"] == 1


def test_bounds_prints_fifteen_digits(capsys):
    _, out, _ = _run(capsys, ["bounds", "--c", "1.5", "--coeffs", "1"])
    assert format(zeta(3.0), ".15g") in out


def test_reports_are_deterministic_up_to_timestamp(capsys):
    argv = ["bounds", "--c", "1.5", "--coeffs", "0.5,0.25"]
    code_a, out_a, _ = _run(capsys, argv)
    code_b, out_b, _ = _run(capsys, argv)
    assert code_a == code_b == 0
    assert out_a != ""
    assert _strip_timestamp(out_a) == _strip_timestamp(out_b)


def test_seeded_scan_is_deterministic(capsys):
    argv = ["subordinate", "--coeffs", "0.4,0.6", "--scan", "--samples", "60", "--seed", "5"]
    _, out_a, _ = _run(capsys, argv)
    _, out_b, _ = _run(capsys, argv)
    assert _strip_timestamp(out_a) == _strip_timestamp(out_b)
    payload = json.loads(out_a)
    assert payload["seed"] == 5
    assert sum(payload["counts"].values()) == 60


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, ["bounds", "--c", "2", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "bounds"


# -------------------------------------------------------------- curve


def test_curve_csv_trace(capsys):
    code, out, _ = _run(
        capsys,
        ["curve", "--coeffs", "0.75,0.25", "--T", "50", "--steps", "20000", "--csv"],
    )
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[0] == "t,re,im"
    assert len(rows) == 20002
    arr = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    off = np.hypot(arr[:, 1] - 1.5, arr[:, 2])
    # annulus for coefficients (3/4, 1/4): radii (r/2, r) = (0.5, 1)
    assert off.min() >= 0.5 - 1e-9
    assert off.min() == pytest.approx(0.5, abs=2e-3)
    assert off.max() <= 1.0 + 1e-9


def test_curve_json_checks(capsys):
    code, out, _ = _run(
        capsys, ["curve", "--coeffs", "0.5,0.5", "--T", "20", "--steps", "5000"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["annulus"]["inner"] == pytest.approx(0.0)
    assert payload["annulus"]["outer"] == pytest.approx(1.0)
    assert payload["checks"]["stays_inside_outer_radius"] is True


def test_curve_inner_fixture_through_a_pole(capsys):
    # at t = 0 the line passes through the first factor's pole
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, ["curve", "--fixture", "example-7.3"])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["max_offset"] <= 1.0 + 1e-9
    assert payload["checks"]["stays_inside_outer_radius"] is True


# ------------------------------------------------------------- measure


def test_measure_fixture_closed_form(capsys):
    delta = str(np.sqrt(5.0 / 8.0))
    code, out, _ = _run(
        capsys,
        ["measure", "--fixture", "example-7.1", "--delta", delta,
         "--samples", "40000", "--seed", "11"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 11
    assert payload["args"]["samples"] == 40000
    assert payload["estimate"] == pytest.approx(1.0 / 3.0, abs=0.02)
    assert payload["closed_form"]["within_tolerance"] is True


# ----------------------------------------------------- opnorm and order


def test_opnorm_levels_grow(capsys):
    code, out, _ = _run(
        capsys,
        ["opnorm", "--coeffs", "1", "--nin", "16", "--kout", "16", "--levels", "3"],
    )
    assert code == 0
    payload = json.loads(out)
    sizes = [row["n_in"] for row in payload["levels"]]
    assert sizes == [4, 8, 16]
    sigmas = [row["sigma_max_sq"] for row in payload["levels"]]
    assert sigmas == sorted(sigmas)
    assert payload["monotone_ok"] is True


@pytest.mark.parametrize("kind", ["affine", "family"])
def test_opnorm_huge_level_count_returns_distinct_sizes(capsys, kind):
    sym = ["--coeffs", "0.5"] if kind == "affine" else ["--fixture", "phi-alpha-1"]
    common = ["opnorm", *sym, "--nin", "8", "--kout", "4"]
    code, few, _ = _run(capsys, [*common, "--levels", "5"])
    assert code == 0
    start = time.monotonic()
    code, many, _ = _run(capsys, [*common, "--levels", str(10**9)])
    assert time.monotonic() - start < 5.0
    assert code == 0
    assert json.loads(many)["levels"] == json.loads(few)["levels"]
    assert json.loads(many)["args"]["levels"] == 10**9


def test_subordinate_majorizing_pair(capsys):
    code, out, _ = _run(
        capsys, ["subordinate", "--coeffs", "0.5,0.5", "--against", "0.6,0.4", "--k", "8"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["majorized_by_against"] is True
    assert payload["majorizes_against"] is False
    assert payload["checks"]["power_sums_follow_majorization"] is True
    assert payload["checks"]["norms_follow_majorization"] is True


def test_subordinate_integer_pair_exact(capsys):
    code, out, _ = _run(
        capsys, ["subordinate", "--coeffs", "3,3,0", "--against", "4,1,1", "--k", "6"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact_arithmetic"] is True
    assert payload["majorized_by_against"] is False
    first, second = payload["power_sums"][:2]
    assert first == {"k": 1, "lhs": 18, "rhs": 18, "ok": True}
    assert second["lhs"] == 486 and second["rhs"] == 390


def test_majorize_mixture_weights(capsys):
    code, out, _ = _run(
        capsys, ["majorize", "--coeffs", "0.5,0.5", "--against", "0.6,0.4"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["majorized_by_against"] is True
    weights = [term["weight"] for term in payload["mixture"]]
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)


def test_majorize_without_order_has_no_mixture(capsys):
    code, out, _ = _run(
        capsys, ["majorize", "--coeffs", "0.6,0.4", "--against", "0.5,0.5"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["majorized_by_against"] is False
    assert payload["mixture"] is None


def test_inner_check_runs_light(capsys):
    code, out, _ = _run(capsys, ["inner-check", "--samples", "16", "--seed", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "inner-check"
    assert payload["deep_interior_matches_limit"] is True


INNER_SIGMAS = (0.1, 1e-2, 1e-4, 1e-6, 1e-8)  # the depths inner-check reports


def _ref_modulus(params, chi, sigma):
    """|g| at one character, through a scalar complex sum."""
    primes = first_primes(params.d)
    S = 0.0 + 0.0j
    for j, (lam, th) in enumerate(zip(params.lambdas, params.thetas)):
        pole = complex(math.cos(th), math.sin(th))
        z = complex(chi[j]) * float(primes[j]) ** (-sigma)
        S += lam * (pole + z) / (pole - z)
    return math.exp(-S.real)


def _ref_framed(params, chi, sigma):
    """The framed value at one character: a one-column array sum, then
    the frame map in scalar complex arithmetic."""
    primes = first_primes(params.d)
    S = np.zeros(1, dtype=complex)
    for j, (lam, th) in enumerate(zip(params.lambdas, params.thetas)):
        if lam == 0.0:
            continue
        pole = complex(math.cos(th), math.sin(th))
        z = np.array([chi[j]]) * float(primes[j]) ** (-sigma)
        S += lam * (pole + z) / (pole - z)
    g = complex(np.exp(-S)[0])
    ginf = params.g_infinity
    return params.c + params.r * (g - ginf) / (1.0 - ginf * g)


@pytest.mark.parametrize("n, seed", [(64, cli.DEFAULT_SEED), (16, 3), (500, 9)])
def test_inner_rows_match_per_sample_reference(n, seed):
    params = get_fixture("example-7.3").symbol
    plan = SamplePlan(n_samples=n, seed=seed, d=params.d)
    report, ok = cli._inner_rows(params, plan, INNER_SIGMAS)
    assert ok and report["deep_interior_matches_limit"] is True
    Z = sample_characters(plan)
    deep = _ref_modulus(params, Z[:, 0], 40.0)
    assert report["deep_interior_modulus"] == pytest.approx(deep, rel=0, abs=1e-12)
    for row, s in zip(report["rows"], INNER_SIGMAS, strict=True):
        mods = np.array([_ref_modulus(params, Z[:, i], s) for i in range(n)])
        offs = np.array([abs(_ref_framed(params, Z[:, i], s) - params.c) for i in range(n)])
        assert row["sigma"] == s
        for key, ref in [
            ("modulus_min", mods.min()),
            ("modulus_max", mods.max()),
            ("median_gap_to_unit", np.median(np.abs(1.0 - mods))),
            ("offset_max", offs.max()),
        ]:
            assert row[key] == pytest.approx(ref, rel=0, abs=1e-12), key
        assert row["inner_modulus_at_most_one"] is bool(np.all(mods <= 1.0 + 1e-9))
        assert row["image_inside_frame_disc"] is bool(np.all(offs <= params.r + 1e-9))


def test_inner_rows_blocked_scan_matches_one_draw():
    # two blocks of characters, the second one short
    params = get_fixture("example-7.3").symbol
    block = 2**19
    plan = SamplePlan(n_samples=block + 4097, seed=77, d=params.d)
    tracemalloc.start()
    try:
        report, ok = cli._inner_rows(params, plan, INNER_SIGMAS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    Z = sample_characters(plan)
    assert report["deep_interior_modulus"] == inner_boundary_modulus(params, Z[:, 0], 40.0)
    for row, s in zip(report["rows"], INNER_SIGMAS, strict=True):
        S = params.exponent_sum(Z, s)
        mods = np.exp(-S.real)
        offs = np.abs(params.frame(np.exp(-S)) - params.c)
        assert row["modulus_min"] == mods.min()
        assert row["modulus_max"] == mods.max()
        assert row["median_gap_to_unit"] == np.median(-np.expm1(-params.exponent_sum_real(Z, s)))
        assert row["offset_max"] == offs.max()
    # one complex character block, 8 bytes of |g| per sample per depth,
    # and at most eight complex block rows of temporaries
    bound = 16 * params.d * block + 8 * len(INNER_SIGMAS) * plan.n_samples + 8 * 16 * block
    assert peak < bound


# ----------------------------------------------------------- lemma runs


def test_verify_single_suite(capsys):
    code, out, err = _run(capsys, ["verify-lemmas", "--suite", "zeta-sandwich"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert len(payload["suites"]) == 1
    assert payload["suites"][0]["suite"] == "zeta-sandwich"
    assert "ok" in err


def test_verify_suite_alias(capsys):
    code, out, _ = _run(capsys, ["verify-lemmas", "--suite", "dkzeta"])
    assert code == 0
    assert json.loads(out)["suites"][0]["suite"] == "zeta-sandwich"


def test_verify_failure_exits_two(capsys, monkeypatch):
    monkeypatch.setitem(
        cli._SUITES, "zeta-sandwich", ("forced failure", lambda: {"passed": False})
    )
    code, out, err = _run(capsys, ["verify-lemmas", "--suite", "zeta-sandwich"])
    assert code == 2
    assert json.loads(out)["all_passed"] is False
    assert "FAIL" in err


def test_raised_violation_exits_two(capsys, monkeypatch):
    def violated(k, sigma):
        raise InequalityViolation(f"derivative bracket violated at k={k}, sigma={sigma}")

    monkeypatch.setattr(cli, "dkzeta_sandwich", violated)
    code, out, err = _run(capsys, ["verify-lemmas", "--suite", "zeta-sandwich"])
    assert code == 2
    payload = json.loads(out)
    assert payload["command"] == "verify-lemmas"
    assert payload["all_passed"] is False
    [suite] = payload["suites"]
    assert suite["suite"] == "zeta-sandwich" and suite["passed"] is False
    assert list(suite["details"]) == ["violation"]
    assert suite["details"]["violation"].startswith("derivative bracket violated at k=")
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "derivative bracket violated" in lines[0]


def test_raised_violation_keeps_the_other_reports(capsys, monkeypatch):
    names = ("riemann-tails", "zeta-sandwich", "crossing-point")
    monkeypatch.setattr(cli, "_SUITES", {n: cli._SUITES[n] for n in names})
    alone = {}
    for name in names[::2]:
        code, out, _ = _run(capsys, ["verify-lemmas", "--suite", name])
        assert code == 0
        alone[name] = json.loads(out)["suites"][0]

    def violated(k, sigma):
        raise InequalityViolation(f"derivative bracket violated at k={k}, sigma={sigma}")

    monkeypatch.setattr(cli, "dkzeta_sandwich", violated)
    code, out, err = _run(capsys, ["verify-lemmas"])
    assert code == 2
    payload = json.loads(out)
    assert payload["all_passed"] is False
    suites = {s["suite"]: s for s in payload["suites"]}
    assert list(suites) == list(names)
    assert suites["riemann-tails"] == alone["riemann-tails"]
    assert suites["crossing-point"] == alone["crossing-point"]
    assert suites["zeta-sandwich"]["passed"] is False
    assert "derivative bracket violated" in suites["zeta-sandwich"]["details"]["violation"]
    assert "Traceback" not in err
    assert [line.split()[0] for line in err.strip().splitlines()] == ["ok", "error:", "ok"]


# ----------------------------------------------------------- exit paths


@pytest.mark.parametrize("argv", [
    ["bounds", "--c", "1.5", "--coeffs", "0.5,0.25"],
    ["opnorm", "--fixture", "fig1-c"],
])
def test_non_convergence_exits_three(capsys, monkeypatch, argv):
    from h2comp import opnorm
    from h2comp.errors import NonConvergence

    def fail(G):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    code, out, err = _run(capsys, argv)
    assert code == 3
    assert out == "" and "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: did not converge: Hermitian eigensolver failed: Eigenvalues did not converge")
    assert issubclass(NonConvergence, RuntimeError)


@pytest.mark.parametrize("argv", [
    ["bounds", "--c", "inf", "--coeffs", "0.5"],
    ["bounds", "--c", "1.5,inf", "--coeffs", "0.5"],
    ["opnorm", "--c", "1.5,inf", "--coeffs", "0.5"],
    ["subordinate", "--coeffs", "0.5,0.5", "--against", "1,0", "--c", "inf"],
    ["majorize", "--coeffs", "nan,1", "--against", "1,0"],
    ["bounds", "--c", "1e300", "--coeffs", "1e299"],
    ["bounds", "--c", "1.5", "--coeffs", "1e-320"],
    ["curve", "--fixture", "fig1-a", "--T", "inf"],
    ["curve", "--fixture", "fig1-a", "--T", "1e308"],
    ["subordinate", "--coeffs", "0.5,0.5", "--scan", "--samples", "-5"],
    ["bounds", "--c", "1e9", "--coeffs", "2e8"],
    # library and CLI usage errors, all on the one ValueError route
    ["measure", "--fixture", "nope", "--delta", "0.5"],
    ["bounds", "--fixture", "example-7.1"],
    ["bounds", "--c", "a,b,c"],
    ["bounds", "--coeffs", "1,x"],
    ["bounds", "--c", "1.5", "--coeffs", "2"],
    ["verify-lemmas", "--suite", "nope"],
    ["measure", "--fixture", "fig1-c", "--delta", "2"],
    ["measure", "--fixture", "fig1-c", "--delta", "0.5", "--samples", "0"],
    ["measure", "--fixture", "fig1-c", "--delta", "0.5", "--seed", "-4"],
    ["subordinate", "--coeffs", "1,1"],
    ["subordinate", "--coeffs", "1,1", "--against", "2,0,0"],
    ["subordinate", "--coeffs", "1,1", "--against", "3,0"],
    ["subordinate", "--coeffs", "1", "--scan"],
    ["curve", "--fixture", "fig1-a", "--T", "-1"],
    ["inner-check", "--fixture", "fig1-a"],
])
def test_extreme_inputs_exit_one(capsys, argv):
    # non-finite symbols and line ranges, arithmetic that overflows or
    # divides by zero, and an empty scan: each once ended in NaN
    # iterations, a traceback, warnings, exit 2 or a verdict
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert caught == []
    assert "Traceback" not in err and "Warning" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_scan_rejects_seed_outside_64_bits(capsys, seed):
    # -1 once ran a scan, and 2^64 failed as floating-point arithmetic
    code, out, err = _run(
        capsys, ["subordinate", "--coeffs", "1,1,1", "--scan", "--samples", "5", "--seed", str(seed)]
    )
    assert code == 1 and out == ""
    assert err == "error: seed must fit in 64 bits\n"


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unwritable_out_path_exits_one(capsys, tmp_path, target):
    # the write once raised FileNotFoundError or IsADirectoryError
    path = tmp_path / "missing" / "x.json" if target == "missing" else tmp_path
    code, out, err = _run(
        capsys, ["majorize", "--coeffs", "1,1", "--against", "2,0", "--out", str(path)]
    )
    assert code == 1 and out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("cmd", ["bounds", "opnorm"])
def test_overflowing_defect_tail_still_reports(capsys, cmd):
    # the float tail of the section's last columns overflows, but no
    # entry does: the report prints with no warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, [cmd, "--c", "100", "--coeffs", "90"])
    assert code == 0 and caught == [] and err == ""
    assert json.loads(out)["command"] == cmd


def test_measure_samples_once(capsys, monkeypatch):
    from h2comp.torus import shapiro_constant

    calls = []
    real = cli.measure_E_delta
    monkeypatch.setattr(cli, "measure_E_delta", lambda *a: calls.append(a) or real(*a))
    for delta, fixture in [(0.9, "example-7.1"), (0.5, "fig1-c"), (1.0, "fig1-c")]:
        calls.clear()
        code, out, _ = _run(capsys, ["measure", "--fixture", fixture, "--delta", str(delta)])
        assert code == 0 and len(calls) == 1
        sym, _, plan = calls[0]
        # the constant in the report prints as the one sampled on its own
        shap = shapiro_constant(sym, delta, plan)
        assert json.loads(out)["shapiro_constant"] == float(format(shap, ".15g"))
    calls.clear()
    report = cli._suite_level_measure()
    assert report["passed"] and len(calls) == 3


def test_unknown_fixture_lists_shipped_names(capsys):
    code, _, err = _run(capsys, ["measure", "--fixture", "nope", "--delta", "0.5"])
    assert code == 1
    assert "example-7.1" in err


def test_bad_coefficient_vector(capsys):
    code, _, err = _run(capsys, ["bounds", "--coeffs", "0.5,x"])
    assert code == 1
    assert "error" in err


def test_unknown_suite(capsys):
    code, _, err = _run(capsys, ["verify-lemmas", "--suite", "bogus"])
    assert code == 1
    assert "zeta-sandwich" in err


def test_unknown_flag(capsys):
    code, _, _ = _run(capsys, ["bounds", "--coeffs", "1", "--bogus", "3"])
    assert code == 1


def test_missing_required_flag(capsys):
    code, _, _ = _run(capsys, ["measure", "--coeffs", "1"])
    assert code == 1


def test_no_command_prints_usage(capsys):
    code, _, err = _run(capsys, [])
    assert code == 1
    assert "usage" in err.lower()


def test_symbol_outside_bounded_class(capsys):
    # coefficient sum exceeds Re c - 1/2: rejected as a usage error
    code, _, err = _run(capsys, ["bounds", "--c", "1.5", "--coeffs", "2"])
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bounds", "--fixture", "fig1-c", "--nin", "0"], "--nin"),
        (["bounds", "--fixture", "fig1-c", "--nin", "-3"], "--nin"),
        (["bounds", "--fixture", "phi-alpha-1", "--nin", "0"], "--nin"),
        (["opnorm", "--c", "1.5", "--coeffs", "0.3", "--nin", "0", "--levels", "2"], "--nin"),
        (["opnorm", "--fixture", "phi-alpha-1", "--nin", "0"], "--nin"),
        (["opnorm", "--c", "1.5", "--coeffs", "0.3", "--levels", "-5"], "--levels"),
        (["opnorm", "--c", "1.5", "--coeffs", "0.3", "--levels", "0"], "--levels"),
    ],
)
def test_nonpositive_truncation_flag_rejected(capsys, argv, flag):
    # these once ran with a silently substituted default
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and flag in lines[0]


def test_cached_parser_matches_fresh_parser(capsys):
    sequence = [
        ["bounds", "--coeffs", "1", "--bogus", "3"],
        ["bounds", "--c", "1.5", "--coeffs", "0.4,0.3"],
        ["opnorm", "--coeffs", "1", "--nin", "8", "--kout", "8", "--levels", "2"],
        ["verify-lemmas", "--suite", "crossing-point"],
        ["--help"],
    ]
    cli._build_parser.cache_clear()
    shared = [_run(capsys, argv) for argv in sequence]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        fresh.append(_run(capsys, argv))
    assert [code for code, _, _ in shared] == [1, 0, 0, 0, 0]
    for argv, (code, out, err), (code_f, out_f, err_f) in zip(sequence, shared, fresh):
        assert code == code_f, argv
        assert _strip_timestamp(out) == _strip_timestamp(out_f), argv
        assert err == err_f, argv


# ----------------------------------------------------------- processes


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "h2comp", "bounds", "--c", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "bounds"


# Runs one command through each user of a special function: the power
# means (log-factorials, affine), the zeta derivatives (incomplete gamma,
# zeta) and the z/(2-z) matrix (log-factorials, disc), then lists every
# scipy module the process loaded.
_IMPORT_PROBE = r"""
import contextlib, io, sys
from h2comp.cli import main
for argv in (
    ["bounds", "--fixture", "fig1-a"],
    ["verify-lemmas", "--suite", "zeta-sandwich"],
    ["verify-lemmas", "--suite", "disc-transfer"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_scipy_stays_off_the_import_path():
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# The body of the console-script wrapper that pip writes at install time.
_LAUNCHER = r"""#!{python}
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {import_name}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\.pyw|\.exe)?$', '', sys.argv[0])
    sys.exit({func}())
"""


def test_console_script(tmp_path):
    # Runs the declared [project.scripts] entry point through a launcher
    # built in tmp_path, so no install is needed and the command resolves
    # to this checkout rather than whatever is on PATH.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, _, attr = scripts["h2comp"].partition(":")
    target = importlib.import_module(module)
    for part in attr.split("."):
        target = getattr(target, part)
    assert target is main  # the callable `python3 -m h2comp` runs

    bindir = tmp_path / "bin"
    bindir.mkdir()
    launcher = bindir / "h2comp"
    launcher.write_text(
        _LAUNCHER.format(
            python=sys.executable,
            module=module,
            import_name=attr.split(".")[0],
            func=attr,
        )
    )
    launcher.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bindir), env.get("PATH", "")])
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    proc = subprocess.run(
        ["h2comp", "verify-lemmas", "--suite", "crossing-point"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["all_passed"] is True
