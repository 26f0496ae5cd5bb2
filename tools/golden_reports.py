"""Hash the reports of a fixed list of h2comp commands.

    python3 tools/golden_reports.py > golden.txt

Prints one line per command: the sha256 of its stdout report with the
timestamp line removed, its exit code, and the command.  Run it in two
checkouts and diff the two outputs; a change that keeps every report
byte-identical apart from the timestamp shows no difference.

The commands are `bounds` and `opnorm` on every shipped fixture they
accept, the edge cases of the truncated section (one input column,
K_out = 0, a constant symbol with no active prime, a single opnorm
level), explicit sections for an affine `opnorm` and a family `bounds`
and `opnorm`, `bounds` and `opnorm` on a symbol whose column-defect
tails overflow, `measure`, `curve` and a short `curve --csv` on every
boundary-sampleable fixture, `measure` at 1,100,000 samples on the
polynomial and one affine fixture and `curve` at 600,000 steps (both
span more than one 2^19-column block and many 2^16-column slices),
`inner-check` at its defaults and at 16 and 500 samples on other seeds,
`majorize`, `subordinate` (exact, float and `--scan`),
`verify-lemmas --suite` for every suite, and last eleven error paths
(non-finite symbols and line ranges, overflowing arithmetic, a finite
symbol whose section entries overflow, a scan with no samples), which print no
report and exit 1.  They run in this process
through `h2comp.cli.main`, with the package imported from this
checkout's `src`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

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
    out.append(["bounds", "--fixture", "phi-alpha-0.5", "--nin", "32", "--kout", "60"])
    out.append(["opnorm", "--fixture", "phi-alpha-1", "--nin", "64", "--kout", "50", "--levels", "2"])
    out.append(["bounds", "--c", "100", "--coeffs", "90"])
    out.append(["opnorm", "--c", "100", "--coeffs", "90"])
    for name, fx in fixtures().items():
        if fx.kind in ("affine", "poly", "inner"):
            out.append(["measure", "--fixture", name, "--delta", "0.5"])
            out.append(["measure", "--fixture", name, "--delta", "0.9"])
            out.append(["curve", "--fixture", name])
            out.append(["curve", "--fixture", name, "--csv", "--T", "30", "--steps", "64"])
    for name in ("example-7.1", "fig1-c"):
        out.append(["measure", "--fixture", name, "--delta", "0.9", "--samples", "1100000"])
    out.append(["curve", "--fixture", "fig1-b", "--steps", "600000"])
    out.append(["inner-check"])
    out.append(["inner-check", "--samples", "16", "--seed", "3"])
    out.append(["inner-check", "--samples", "500", "--seed", "9"])
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
    out.append(["bounds", "--c", "1e300", "--coeffs", "1e299"])
    out.append(["bounds", "--c", "1.5", "--coeffs", "1e-320"])
    out.append(["curve", "--fixture", "fig1-a", "--T", "inf"])
    out.append(["curve", "--fixture", "fig1-a", "--T", "1e308"])
    out.append(["subordinate", "--coeffs", "0.5,0.5", "--scan", "--samples", "-5"])
    out.append(["bounds", "--c", "1e9", "--coeffs", "2e8"])
    return out


def report_digest(argv: list[str]) -> tuple[str, int]:
    """sha256 of the stdout report without its timestamp line, and the exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    body = "".join(
        line for line in out.getvalue().splitlines(keepends=True) if '"timestamp":' not in line
    )
    return hashlib.sha256(body.encode()).hexdigest(), code


def main() -> int:
    for argv in commands():
        digest, code = report_digest(argv)
        print(digest, code, " ".join(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
