"""Run one tomoseg CLI step with the span recorder installed.

    python3 perfbench/traced_cli.py SPANS_OUT BASE_STEP_DEG CLI_ARG...

The spans are kept in memory and written to SPANS_OUT as JSON lines when
the step ends; the exit code is the CLI's own.
"""

import sys

from tracing import Tracer


def main() -> int:
    spans_out, base_step = sys.argv[1], float(sys.argv[2])
    tracer = Tracer(base_step)
    tracer.install()
    import tomoseg.cli

    try:
        return tomoseg.cli.main(sys.argv[3:])
    finally:
        tracer.uninstall()
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
