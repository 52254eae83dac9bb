"""Run one traced ``slopebound`` CLI invocation in a fresh interpreter.

Usage: ``python cli_child.py STATS_FILE ARG...`` runs ``slopebound ARG...``
with every layer function spanned, writes the span statistics to
STATS_FILE as JSON, and exits with the CLI's exit code. Untraced
invocations do not use this file; they call ``slopebound.cli.main`` the way
the installed console script does.
"""

import json
import sys

from tracing import Tracer

import slopebound.cli


def main() -> int:
    stats_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = slopebound.cli.run(argv)
    finally:
        tracer.uninstall()
        with open(stats_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
