"""Process entry: python -m gibsum ..., and the installed `gibsum` script."""

import gc

from .cli import main


def run() -> int:
    code = main()
    # all that is alive now lives until exit; frozen, it is left to the OS
    # instead of collected at shutdown (atexit and the stdout flush still
    # run). gibsum.cli.main, the in-process call, never freezes: that would
    # keep a caller's garbage cycles forever
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
