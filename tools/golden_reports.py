"""Hash the reports of a fixed list of h2comp commands.

    python3 tools/golden_reports.py > golden.txt

Prints one line per command: the sha256 of its stdout report with the
timestamp line removed, its exit code, and the command.  Run it in two
checkouts and diff the two outputs; a change that keeps every report
byte-identical apart from the timestamp shows no difference.

The commands are `bounds` and `opnorm` on every shipped fixture they
accept, and `verify-lemmas --suite` for every suite.  They run in this
process through `h2comp.cli.main`, with the package imported from this
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
    out.extend(["verify-lemmas", "--suite", suite] for suite in cli._SUITES)
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
