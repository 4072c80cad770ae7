"""Spans around the calls into gibsum's layers, recorded inside a child process.

`install` replaces each traced function at every name a gibsum module binds
it to (modules import with `from .x import f`, so patching the defining
module alone would miss most calls), including the closed-form evaluators
that the identity registry captured at import time. Each call then records
one span: its layer, the span that was open when it started, its start and
end times, and an amount of work. Spans stay in memory and `dump` writes
them out when the child ends; the parent turns them into self times.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from time import perf_counter

LAYERS = (
    "cli.main",
    "verifier.sweep",
    "closed_forms",
    "oracle.oracle_sum",
    "verifier.render_value",
    "sequences.term",
    "sequences.first_zero_in_window",
)

# the work a layer's spans count, by the metric it is reported as
AMOUNTS = {
    "verifier.sweep": "verifier.points",
    "closed_forms": "closed_forms.result_bits",
    "oracle.oracle_sum": "oracle.summands",
    "verifier.render_value": "verifier.render_value.digits",
    "sequences.first_zero_in_window": "sequences.first_zero_in_window.indices",
}


def _bits(value) -> int:
    if isinstance(value, int):
        return value.bit_length()
    return value.numerator.bit_length() + value.denominator.bit_length()


def _digits(text: str) -> int:
    return len(text) - text.startswith("-") - ("/" in text)


def _scanned(args, zero) -> int:
    lo, hi = args[1], args[2]
    if hi < lo:
        return 0
    return (hi if zero is None else zero) - lo + 1


def _summands(args, total) -> int:
    return abs(args[3])


class Tracer:
    def __init__(self):
        self.layer: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.amount: list[int] = []
        self._open: list[int] = []
        self._sweeps: list = []  # sweep results, tallied at dump time
        self.import_s = 0.0

    def wrap(self, layer: str, fn, amount=None):
        code = LAYERS.index(layer)
        layers, parents, starts, ends, amounts, open_ = (
            self.layer, self.parent, self.start, self.end, self.amount, self._open
        )

        def traced(*args, **kwargs):
            idx = len(starts)
            layers.append(code)
            parents.append(open_[-1] if open_ else -1)
            amounts.append(0)
            ends.append(0.0)
            open_.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                open_.pop()
            if amount is not None:
                amounts[idx] = amount(args, result)
            return result

        return traced

    def _keep_sweep(self, args, reports) -> int:
        self._sweeps.append(reports)
        return len(reports)

    def install(self) -> None:
        """Wrap gibsum's public layer functions wherever gibsum binds them."""
        import gibsum
        import gibsum.cli
        import gibsum.closed_forms as closed_forms
        import gibsum.oracle as oracle
        import gibsum.sequences as sequences
        import gibsum.verifier as verifier
        from modp import IDENTITIES

        targets = [
            (sequences.term, "sequences.term", None),
            (sequences.fib, "sequences.term", None),
            (sequences.first_zero_in_window, "sequences.first_zero_in_window", _scanned),
            (oracle.oracle_sum, "oracle.oracle_sum", _summands),
            (verifier.render_value, "verifier.render_value", lambda a, r: _digits(r)),
            (verifier.sweep, "verifier.sweep", self._keep_sweep),
        ]
        targets += [
            (getattr(closed_forms, d.function), "closed_forms", lambda a, r: _bits(r))
            for d in IDENTITIES.values()
        ]
        wrappers = {id(fn): self.wrap(layer, fn, amount) for fn, layer, amount in targets}
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "gibsum"]
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, name, wrappers[id(value)])
        for desc in verifier.REGISTRY:
            for field in dataclasses.fields(desc):
                value = getattr(desc, field.name)
                if callable(value) and id(value) in wrappers:
                    object.__setattr__(desc, field.name, wrappers[id(value)])

    def dump(self, path: str) -> None:
        domain = zero = mismatches = 0
        for reports in self._sweeps:
            for rep in reports:
                mismatches += not rep.match
                if rep.match and rep.error:
                    if rep.error.startswith("domain"):
                        domain += 1
                    else:
                        zero += 1
        record = {
            "layer": self.layer,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "amount": self.amount,
            "counters": {
                "verifier.vacuous_domain": domain,
                "verifier.vacuous_zero": zero,
                "verifier.mismatches": mismatches,
                "cli.import_s": self.import_s,
            },
        }
        with open(path, "w") as fh:
            json.dump(record, fh)


def summarize(record: dict) -> dict:
    """Per-layer calls, self seconds and work amounts from one dumped span record."""
    layer, parent, start, end, amount = (
        record["layer"], record["parent"], record["start"], record["end"], record["amount"]
    )
    children = [0.0] * len(layer)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p] += end[i] - start[i]
    out = {f"{name}.{key}": 0 for name in LAYERS for key in ("calls", "self_s")}
    out.update((metric, 0) for metric in AMOUNTS.values())
    for i, code in enumerate(layer):
        name = LAYERS[code]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += end[i] - start[i] - children[i]
        if name in AMOUNTS:
            out[AMOUNTS[name]] += amount[i]
    out.update(record["counters"])
    return out
