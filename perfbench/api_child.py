"""Time closed-form library calls in one process, with no rendering.

    python perfbench/api_child.py JOBS_FILE SPANS_FILE|-

JOBS_FILE holds a JSON list of [identity, g0, g1, t, n]. For each job one
line of JSON goes to stdout as soon as the call returns: the call's time in
seconds ("s"), the mean time of the "bigint" host-speed probe (see probe.py)
run just before and just after it ("probe_s"), then the value's numerator
and denominator mod P, the index of a ZeroTermError ("zero"), or any other
exception ("error"). With a spans file the calls are traced and the spans
written there at the end.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    jobs_path, spans_path = sys.argv[1], sys.argv[2]
    started = perf_counter()
    import gibsum
    import_s = perf_counter() - started

    from modp import IDENTITIES, P
    from probe import probe

    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.import_s = import_s
        tracer.install()
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    before = probe("bigint")
    for identity, g0, g1, t, n in jobs:
        d = IDENTITIES[identity]
        fn = getattr(gibsum, d.function)
        if d.seeds is None:
            args = (gibsum.SequenceSpec(g0, g1), t, n)
        elif d.fixed_t is None:
            args = (t, n)
        else:
            args = (n,)
        started = perf_counter()
        try:
            value = fn(*args)
        except gibsum.ZeroTermError as exc:
            record = {"s": perf_counter() - started, "zero": exc.index}
        except Exception as exc:  # reported as a failed operation, the run goes on
            record = {"s": perf_counter() - started, "error": repr(exc)[:200]}
        else:
            record = {"s": perf_counter() - started,
                      "num": value.numerator % P, "den": value.denominator % P}
        after = probe("bigint")
        record["probe_s"] = (before + after) / 2
        before = after
        print(json.dumps(record), flush=True)
    if tracer is not None:
        tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
