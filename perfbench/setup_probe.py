"""Child process timed by the set-up metric: start, import, one scenario.

Usage: setup_probe.py SRC SCENARIO TRACE REPORT. Exits with the CLI's code.
"""

import contextlib
import io
import sys


def main(argv: list[str]) -> int:
    src, scenario, trace, report = argv
    sys.path.insert(0, src)
    from enrichedfp import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["solve", "--scenario", scenario, "--trace", trace,
                         "--report", report])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
