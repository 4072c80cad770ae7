"""A fixed piece of pure-Python work that measures how fast the host runs right now.

The reference machine is a virtual machine on a shared host. For seconds to
minutes at a time it runs the same code up to 1.8 times slower, in CPU time
as well as wall time, so the slowdown comes from other tenants sharing the
processor, not from waiting for it. Raw operation times from two runs of
the same code then differ by 20 to 40 percent.

The benchmark times a probe next to every operation and reports each
operation at reference speed:

    adjusted = seconds * reference probe seconds / probe seconds around it

A change to gibsum moves `seconds` and leaves the probe alone, so the
adjusted time moves by the same share as the raw time would on a quiet host.
Kinds of work slow down by different shares (int-to-decimal conversion
hardly at all, big-integer products the most), so each probe does the kind
of work its operations do. The "mixed" probe, timed around the `verify`
processes and the start-up launches, runs an interpreted loop, a
big-integer product, int-to-decimal conversions and Fraction additions.
The "render" probe, timed around the `eval` processes, which spend about
half their time rendering values to decimal, adds more int-to-decimal
conversions. The "bigint" probe, timed between the calls of the closed_api
child, multiplies big integers, which is what the closed forms spend their
time on. None imports gibsum.
"""

from fractions import Fraction
from time import perf_counter

_BIG = 7**40_000          # about 34k digits
_DECIMAL = 3**8_000       # about 3.8k digits, under CPython's int-to-str limit


def _mixed() -> None:
    total = 0
    for i in range(50_000):
        total += i ^ (i >> 3)
    _BIG * (_BIG + total)
    for _ in range(20):
        str(_DECIMAL + total)
    acc = Fraction(0)
    for k in range(1, 1_500):
        acc += Fraction(1, k * (k + 1))


def _render() -> None:
    _mixed()
    for k in range(40):
        str(_DECIMAL + k)


def _bigint() -> None:
    for k in range(4):
        _BIG * (_BIG + k)


# each kind of probe, and its time on the reference machine when the host is quiet
PROBES = {
    "mixed": (_mixed, 0.015),
    "render": (_render, 0.023),
    "bigint": (_bigint, 0.011),
}


def probe(kind: str = "mixed") -> float:
    """Run the fixed work of one kind once; return its wall time in seconds."""
    work, _ = PROBES[kind]
    started = perf_counter()
    work()
    return perf_counter() - started


def adjusted(seconds: float, probe_s: float, kind: str = "mixed") -> float:
    """`seconds` at reference speed, given the time of the probe of `kind` around it."""
    return seconds * PROBES[kind][1] / probe_s
