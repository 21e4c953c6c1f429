"""Set-up as a user meets it, in a fresh interpreter.

    python3 perfbench/setup_probe.py PICKS CALIBRATION

Imports gridscope, fits the calibration from the marker picks through the
CLI, writes it to CALIBRATION and loads it back.  The caller times the
whole process from outside.
"""

from __future__ import annotations

import contextlib
import io
import sys

import common


def main(argv) -> int:
    common.bootstrap()
    from gridscope.calibration import load_calibration
    from gridscope.cli import main as cli_main

    picks, calibration = argv
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["calibrate", picks, "--out", calibration])
    if code == 0:
        load_calibration(calibration)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
