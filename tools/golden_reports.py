"""Hash the reports of a fixed list of h2comp commands.

    python3 tools/golden_reports.py > golden.txt

The first line is a `#` header naming what the digests depend on
beyond the source: the numpy and BLAS versions, the BLAS kernel that
the CPU selected, the machine and Python.  Then it prints one line per
command: the sha256 of its stdout report with the timestamp line
removed, the sha256 of what it wrote to stderr, its exit code, and the
command.  `tests/golden_reports.txt` holds this output, and
`tests/test_golden_reports.py` reruns the tool under
`OPENBLAS_NUM_THREADS=1` and compares line by line; a change that keeps
every report and every error message byte-identical apart from the
timestamp shows no difference.  A change that moves a line rewrites
the file:

    OPENBLAS_NUM_THREADS=1 python3 tools/golden_reports.py > tests/golden_reports.txt

The commands are `bounds` and `opnorm` on every shipped fixture they
accept, the edge cases of the truncated section (one input column,
K_out = 0, a constant symbol with no active prime, a single opnorm
level, a 201 x 64 section of three active primes), explicit sections
for an affine `opnorm` and a family `bounds` and `opnorm` (the family
takes `--nin` only: its column Gram has no output degree), family
`bounds` on eight columns,
`bounds` and `opnorm` on a symbol with r log n_in about 374, where
(r log n)^k / k! is huge but finite (neither command computes column
defects), `bounds` on two huge symbols whose brackets close at 1
(`--c 1e9 --coeffs 2e8`, and `--c 1e300 --coeffs 1e299`, whose squares
in xi overflow), `bounds` on two symbols whose coefficients square to
underflow, and on one symbol with three and one
with four active primes (no shipped fixture has more than two), `measure`, `curve` and a
short `curve --csv` on every boundary-sampleable fixture, `measure` at
1,100,000 samples on the polynomial, one affine and the inner fixture, `curve` at 600,000 steps
on an affine and the inner fixture and `inner-check` at 600,000 samples
(each spans many 2^16-column slices), `inner-check` at its
defaults and at 16 and 500 samples on other seeds,
`majorize`, `subordinate` (exact, float and `--scan`),
`verify-lemmas --suite` for every suite, then nine error paths
(non-finite symbols and line ranges, overflowing arithmetic, a scan
with no samples, a section past the output-degree cap), which print no
report and exit 1.
After them come the usage errors: unknown or
wrong-kind fixtures, malformed `--c` and `--coeffs`, a symbol outside
the bounded class, an unknown suite, out-of-range `bounds`, `measure`,
`curve` and `--scan` arguments, a `--kout` on a family fixture,
`subordinate` vectors that cannot be compared, flags argparse rejects and no command at all, each exiting 1;
then the `dkzeta` suite alias and two `--help` calls, 132 commands in
all.  The commands run in this
process through `h2comp.cli.main`, with the package imported from this
checkout's `src` and help and usage text wrapped at 80 columns.

After the commands come the demos: one line per `demos/*.py`, the
sha256 of everything it prints and its path.  Each demo runs in this
process through `runpy.run_path(..., run_name="__main__")` with no
arguments, against the same package, so a diff of the two outputs also
shows whether every demo prints byte-identical output.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import os
import platform
import runpy
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
# argparse wraps help and usage text at the terminal width
os.environ["COLUMNS"] = "80"

from h2comp import cli  # noqa: E402
from h2comp.fixtures import fixtures  # noqa: E402


def commands() -> list[list[str]]:
    out = []
    for name, fx in fixtures().items():
        if fx.kind in ("affine", "family"):
            out.append(["bounds", "--fixture", name])
            out.append(["opnorm", "--fixture", name])
    out.append(["bounds", "--fixture", "fig1-c", "--kout", "0", "--nin", "1"])
    out.append(["bounds", "--c", "2", "--coeffs", "0"])
    out.append(["opnorm", "--fixture", "fig1-c", "--levels", "1", "--nin", "2"])
    out.append(["opnorm", "--fixture", "fig1-a", "--kout", "12"])
    out.append(["bounds", "--fixture", "fig1-c", "--kout", "200"])
    out.append(["bounds", "--fixture", "phi-alpha-0.5", "--nin", "32"])
    out.append(["bounds", "--fixture", "phi-alpha-1.4", "--nin", "8"])
    out.append(["opnorm", "--fixture", "phi-alpha-1", "--nin", "64", "--levels", "2"])
    out.append(["bounds", "--c", "100", "--coeffs", "90"])
    out.append(["opnorm", "--c", "100", "--coeffs", "90"])
    out.append(["bounds", "--c", "1e9", "--coeffs", "2e8"])
    out.append(["bounds", "--c", "1e300", "--coeffs", "1e299"])
    # coefficients whose squares underflow
    out.append(["bounds", "--c", "1.5", "--coeffs", "1e-320"])
    out.append(["bounds", "--c", "3", "--coeffs", "2.5e-300,1e-300"])
    for c, coeffs in (("1.2,0.7", "0.3,0.1,0.05"), ("2,-1", "0.2,0.3,0.1,0.15")):
        out.append(["bounds", "--c", c, "--coeffs", coeffs])
        out.append(["opnorm", "--c", c, "--coeffs", coeffs])
    for name, fx in fixtures().items():
        if fx.kind in ("affine", "poly", "inner"):
            out.append(["measure", "--fixture", name, "--delta", "0.5"])
            out.append(["measure", "--fixture", name, "--delta", "0.9"])
            out.append(["curve", "--fixture", name])
            out.append(["curve", "--fixture", name, "--csv", "--T", "30", "--steps", "64"])
    for name in ("example-7.1", "fig1-c", "example-7.3"):
        out.append(["measure", "--fixture", name, "--delta", "0.9", "--samples", "1100000"])
    out.append(["curve", "--fixture", "fig1-b", "--steps", "600000"])
    out.append(["curve", "--fixture", "example-7.3", "--steps", "600000"])
    out.append(["inner-check"])
    out.append(["inner-check", "--samples", "16", "--seed", "3"])
    out.append(["inner-check", "--samples", "500", "--seed", "9"])
    out.append(["inner-check", "--samples", "600000", "--seed", "11"])
    out.append(["majorize", "--coeffs", "0.4,0.35,0.25", "--against", "0.7,0.2,0.1"])
    out.append(["majorize", "--coeffs", "2,2,2", "--against", "4,1,1"])
    out.append(["majorize", "--coeffs", "4,1,1", "--against", "3,3,0"])
    out.append(["subordinate", "--coeffs", "4,1,1", "--against", "3,3,0"])
    out.append(["subordinate", "--coeffs", "2,2,2", "--against", "4,1,1", "--k", "60"])
    out.append(["subordinate", "--coeffs", "0.4,0.35,0.25", "--against", "0.7,0.2,0.1"])
    out.append(["subordinate", "--coeffs", "0.3,0.3", "--against", "0.5,0.1"])
    out.append(["subordinate", "--coeffs", "1,1,1", "--scan", "--samples", "300"])
    out.append(["subordinate", "--coeffs", "1,1,1,1", "--scan", "--samples", "300", "--seed", "7"])
    out.extend(["verify-lemmas", "--suite", suite] for suite in cli._SUITES)
    out.append(["bounds", "--c", "inf", "--coeffs", "0.5"])
    out.append(["bounds", "--c", "1.5,inf", "--coeffs", "0.5"])
    out.append(["opnorm", "--c", "1.5,inf", "--coeffs", "0.5"])
    out.append(["subordinate", "--coeffs", "0.5,0.5", "--against", "1,0", "--c", "inf"])
    out.append(["majorize", "--coeffs", "nan,1", "--against", "1,0"])
    out.append(["curve", "--fixture", "fig1-a", "--T", "inf"])
    out.append(["curve", "--fixture", "fig1-a", "--T", "1e308"])
    out.append(["subordinate", "--coeffs", "0.5,0.5", "--scan", "--samples", "-5"])
    out.append(["bounds", "--fixture", "fig1-c", "--kout", "4001"])
    out.append(["measure", "--fixture", "nope", "--delta", "0.5"])
    out.append(["bounds", "--fixture", "example-7.1"])
    out.append(["inner-check", "--fixture", "fig1-a"])
    out.append(["bounds", "--c", "a,b,c"])
    out.append(["bounds", "--coeffs", "1,x"])
    out.append(["bounds", "--c", "1.5", "--coeffs", "2"])
    out.append(["bounds", "--fixture", "fig1-c", "--nin", "0"])
    out.append(["bounds", "--fixture", "phi-alpha-1.4", "--nin", "8", "--kout", "1"])
    out.append(["verify-lemmas", "--suite", "nope"])
    out.append(["measure", "--fixture", "fig1-c", "--delta", "2"])
    out.append(["measure", "--fixture", "fig1-c", "--delta", "0.5", "--samples", "0"])
    out.append(["measure", "--fixture", "fig1-c", "--delta", "0.5", "--seed", "-4"])
    out.append(["curve", "--fixture", "fig1-a", "--T", "-1"])
    out.append(["subordinate", "--coeffs", "1,1"])
    out.append(["subordinate", "--coeffs", "1,1", "--against", "2,0,0"])
    out.append(["subordinate", "--coeffs", "1,1", "--against", "3,0"])
    out.append(["subordinate", "--coeffs", "1", "--scan"])
    out.append(["subordinate", "--coeffs", "1,1,1", "--scan", "--seed", str(2**64)])
    out.append(["bounds", "--coeffs", "1", "--bogus", "3"])
    out.append(["bounds", "--nin", "x"])
    out.append(["measure", "--coeffs", "1"])
    out.append([])
    out.append(["verify-lemmas", "--suite", "dkzeta"])
    out.append(["--help"])
    out.append(["bounds", "--help"])
    return out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(argv: list[str]) -> tuple[str, str, int]:
    """sha256 of the stdout report without its timestamp line, sha256 of
    stderr, and the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    body = "".join(
        line for line in out.getvalue().splitlines(keepends=True) if '"timestamp":' not in line
    )
    return _sha256(body), _sha256(err.getvalue()), code


def demo_digest(path: Path) -> str:
    """sha256 of what the demo script at `path` prints when run with no arguments."""
    out = io.StringIO()
    saved, sys.argv = sys.argv, [str(path)]
    try:
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = saved
    return _sha256(out.getvalue())


def _blas_core() -> str:
    """The kernel set an OpenBLAS built with DYNAMIC_ARCH chose for this
    CPU, read from the library numpy bundles, or "unknown"."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return "unknown"


def header() -> str:
    """The `#` line naming the numpy and BLAS versions, the BLAS kernel,
    the machine and Python."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"# numpy {np.__version__}; {blas['name']} {blas['version']} core {_blas_core()}; "
        f"{platform.system()} {platform.machine()}; Python {platform.python_version()}"
    )


def main() -> int:
    print(header(), flush=True)
    for argv in commands():
        digest, err_digest, code = report_digest(argv)
        print(digest, err_digest, code, " ".join(argv), flush=True)
    for path in sorted((ROOT / "demos").glob("*.py")):
        print(demo_digest(path), path.relative_to(ROOT).as_posix(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
