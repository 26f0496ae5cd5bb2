"""Command-line interface: exit codes, report headers, determinism, and
the emitted JSON/CSV shapes."""

from __future__ import annotations

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import h2comp.cli as cli
from h2comp.cli import main
from h2comp.errors import InequalityViolation
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
    assert out == ""
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "derivative bracket violated" in lines[0]


# ----------------------------------------------------------- exit paths


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
