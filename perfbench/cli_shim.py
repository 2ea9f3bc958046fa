"""Run the cuspforge CLI under the benchmark's tracer.

Usage: python cli_shim.py SPANS_JSON <cuspforge arguments...>

Behaves like ``python -m cuspforge.cli`` (same output, exit code and
tracebacks) and writes the spans recorded in this process to SPANS_JSON
when it ends, even when the command raises.
"""

import sys

from spans import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer.span("startup.import"):
            import cuspforge.cli
        tracer.install()
        return cuspforge.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
