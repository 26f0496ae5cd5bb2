"""Golden report digests: `tools/golden_reports.py` must print
`tests/golden_reports.txt` line for line.

The tool runs in a fresh process with one BLAS thread, so the digests
do not follow the thread split of a threaded BLAS product.  A change
that moves a report rewrites the file with

    OPENBLAS_NUM_THREADS=1 python3 tools/golden_reports.py > tests/golden_reports.txt

and explains each moved line.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_reports.txt"


def _keyed(lines: list[str]) -> dict[str, str]:
    """Each digest line under its command (or demo path)."""
    out = {}
    for line in lines:
        parts = line.split(" ")
        # command lines: stdout digest, stderr digest, exit code, argv
        key = " ".join(parts[3:]) if len(parts) > 2 and parts[2].isdigit() else parts[-1]
        out[key or "(no arguments)"] = line
    return out


def test_golden_reports_unchanged():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "golden_reports.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    want_header, *want = GOLDEN.read_text().splitlines()
    got_header, *got = proc.stdout.splitlines()
    if want == got:
        return
    want_by, got_by = _keyed(want), _keyed(got)
    moved = [k for k in want_by if k in got_by and want_by[k] != got_by[k]]
    missing = [k for k in want_by if k not in got_by]
    new = [k for k in got_by if k not in want_by]
    msg = [f"{len(moved)} moved, {len(missing)} missing, {len(new)} new golden lines"]
    msg += [f"  moved:   {k}" for k in moved]
    msg += [f"  missing: {k}" for k in missing]
    msg += [f"  new:     {k}" for k in new]
    if not (moved or missing or new):
        msg.append("  the same lines in another order")
    if want_header != got_header:
        msg += ["the environments differ:", f"  file: {want_header}", f"  run:  {got_header}"]
    raise AssertionError("\n".join(msg))
