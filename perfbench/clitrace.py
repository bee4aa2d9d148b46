"""Run one ``cvwitness`` CLI command with the layer tracer installed.

Usage: PERFBENCH_SPANS=<file> python clitrace.py <cli arguments>

Imports the CLI, wraps the layer entry points, runs ``cli.main`` on the
arguments and writes the spans to $PERFBENCH_SPANS before exiting with
the command's exit code.
"""

import os
import sys

import cvwitness.cli
from tracing import Tracer


def main():
    tracer = Tracer()
    tracer.install()
    try:
        code = cvwitness.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(os.environ["PERFBENCH_SPANS"])
    return code


if __name__ == "__main__":
    sys.exit(main())
