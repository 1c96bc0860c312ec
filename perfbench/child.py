"""One pfasfab CLI call with tracing on, for the traced cli_oneshot phase.

Usage: python child.py SPANS_OUT ARG...

Runs ``pfasfab.cli.main(ARG...)`` as ``python -m pfasfab`` would, with the
benchmark's wrappers installed, and writes the spans to SPANS_OUT rather
than to stdout, which carries the report.
"""

import sys

import pfasfab.cli
import tracing

if __name__ == "__main__":
    tracer = tracing.Tracer().install()
    try:
        code = pfasfab.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(sys.argv[1])
    sys.exit(code)
