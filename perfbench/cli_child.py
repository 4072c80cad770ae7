"""Run one gibsum command with layer tracing.

    python perfbench/cli_child.py SPANS_FILE gibsum-arguments...

Behaves like `python -m gibsum gibsum-arguments...` and also writes the
recorded spans to SPANS_FILE when the command ends.
"""

import sys
from time import perf_counter


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    started = perf_counter()
    import gibsum.cli
    import_s = perf_counter() - started

    from tracer import Tracer

    tracer = Tracer()
    tracer.import_s = import_s
    tracer.install()
    try:
        return tracer.wrap("cli.main", gibsum.cli.main)(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
