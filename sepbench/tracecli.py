"""Run one ``sepkit`` CLI call with spans recorded, for traced cli-mix runs.

Usage: python3 sepbench/tracecli.py SPANS_PATH CLI_ARGS...

The program's ``src`` directory must be on PYTHONPATH.  The spans are
written to SPANS_PATH when the call returns; the exit code is the CLI's.
"""

import sys

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import sepkit.cli

    try:
        return sepkit.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
