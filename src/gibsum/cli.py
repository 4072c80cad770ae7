"""Command-line front end: list, eval, verify, and bench subcommands.

Exit codes: 0 when everything matched (or a plain evaluation succeeded),
1 when a closed-form-vs-oracle comparison mismatched, 2 on usage or
domain errors (unknown identity, invalid seeds, zero term in a
reciprocal window, empty range), 141 when the reader of stdout closed it
early (`gibsum ... | head`).
"""

from __future__ import annotations

import os
import sys
import time
from types import SimpleNamespace

from .errors import DomainError, UnknownIdentityError, ZeroTermError
from .render import decimal_text
from .sequences import SequenceSpec
from .verifier import (
    REGISTRY,
    TSV_COLUMNS,
    GridSpec,
    IdentityDescriptor,
    VerificationReport,
    descriptor,
    effective_inputs,
    render_value,
    sweep,
)

# verify/bench run the oracle only up to this n unless --force-oracle is given
ORACLE_AUTO_LIMIT = 10000

# int/str digit cap while main() runs (CPython's default is 4300), so long
# --g0/--g1/--seeds parse and print in error messages
_MAX_ARG_DIGITS = 2_000_000


def _parse_seed_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected seeds as 'g0,g1', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"seeds must be integers, got {text!r}") from None


def _parse_seeds(text: str) -> list[tuple[int, int]]:
    pairs = [_parse_seed_pair(part) for part in text.split(";") if part]
    if not pairs:
        raise ValueError("at least one seed pair is required")
    return pairs


def _parse_range(text: str) -> tuple[int, int]:
    """Inclusive integer interval: 'a..b', or a single integer 'a'."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ValueError(f"expected a range 'a..b' or an integer, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _point_inputs(args) -> tuple[IdentityDescriptor, SequenceSpec, int]:
    """Descriptor, seeds (default 0, 1) and shift (default 0) of eval/bench args.

    Values the identity fixes replace the flags, with a warning on stderr.
    """
    desc = descriptor(args.identity)
    if desc.seeds is not None and (args.g0 is not None or args.g1 is not None):
        print(
            f"warning: {desc.id} has fixed seeds ({desc.seeds.g0}, {desc.seeds.g1}); "
            "ignoring --g0/--g1",
            file=sys.stderr,
        )
    if desc.fixed_t is not None and args.t is not None and args.t != desc.fixed_t:
        print(
            f"warning: {desc.id} has fixed shift t = {desc.fixed_t}; ignoring --t",
            file=sys.stderr,
        )
    spec = desc.seeds or SequenceSpec(
        args.g0 if args.g0 is not None else 0,
        args.g1 if args.g1 is not None else 1,
    )
    spec, t = effective_inputs(desc, spec, args.t if args.t is not None else 0)
    return desc, spec, t


def _digest(value) -> dict:
    """Small summary of a huge exact value: leading characters, digit count."""
    text = render_value(value)
    return {"leading": text[:24], "digits": len(text) - text.startswith("-") - ("/" in text)}


def run_bench(
    identity_id: str,
    spec: SequenceSpec | None = None,
    t: int = 0,
    n: int = 1,
    repeats: int = 5,
    force_oracle: bool = False,
) -> dict:
    """Time closed-form vs oracle evaluation; medians over `repeats` runs.

    The oracle runs only when n <= ORACLE_AUTO_LIMIT or force_oracle is set;
    the closed form always runs, and when both run their values must agree.
    """
    import statistics  # only bench needs it; eval and verify skip the import

    if n < 1:
        raise DomainError(f"bench requires n >= 1, got {n}")
    if repeats < 1:
        raise DomainError(f"bench requires repeats >= 1, got {repeats}")
    desc = descriptor(identity_id)
    if spec is None:
        spec = SequenceSpec(0, 1)
    spec, t = effective_inputs(desc, spec, t)
    result = {
        "identity": desc.id,
        "g0": decimal_text(spec.g0),
        "g1": decimal_text(spec.g1),
        "t": t,
        "n": n,
        "repeats": repeats,
    }
    sides = {"closed": desc.closed}
    if force_oracle or n <= ORACLE_AUTO_LIMIT:
        sides["oracle"] = desc.oracle
    values = {}
    for side, evaluate in sides.items():
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            values[side] = evaluate(spec, t, n)
            times.append(time.perf_counter() - started)
        result[f"{side}_seconds"] = statistics.median(times)
        result[f"{side}_value"] = _digest(values[side])
    if "oracle" in values:
        result["match"] = values["closed"] == values["oracle"]
    else:
        result.update(oracle_seconds=None, oracle_value=None, match=None, note=(
            f"oracle skipped for n > {ORACLE_AUTO_LIMIT}; pass --force-oracle to run it"
        ))
    return result


def _cmd_list(args) -> int:
    import json  # list, eval and bench only: verify formats its rows itself
    columns = ("id", "summand", "closed_form", "source")
    rows = [{name: getattr(d, name) for name in columns} for d in REGISTRY]
    if args.format == "tsv":
        print("\t".join(columns))
        for row in rows:
            print("\t".join(row.values()))
    else:
        print(json.dumps(rows, indent=2))
    return 0


def _cmd_eval(args) -> int:
    import json
    desc, spec, t = _point_inputs(args)
    n = args.n
    closed_text = oracle_text = None
    if args.method in ("closed", "both"):
        closed_text = desc.closed_text(spec, t, n)
    if args.method in ("oracle", "both"):
        oracle_text = render_value(desc.oracle(spec, t, n))
    # both texts are canonical, so equal text means equal value
    match = closed_text == oracle_text if args.method == "both" else None
    if args.format == "tsv":
        report = VerificationReport(
            desc.id, spec.g0, spec.g1, t, n,
            closed=closed_text, oracle=oracle_text, match=match,
        )
        print("\t".join(TSV_COLUMNS))
        print(report.as_tsv_row())
    else:
        payload = {
            "identity": desc.id,
            "g0": decimal_text(spec.g0),
            "g1": decimal_text(spec.g1),
            "t": t,
            "n": n,
            "method": args.method,
            "closed": closed_text,
            "oracle": oracle_text,
            "match": match,
        }
        # streamed: a large value is not copied into one JSON string first
        json.dump(payload, sys.stdout, indent=2)
        print()
    return 1 if match is False else 0


def _cmd_verify(args) -> int:
    if args.identity == "all":
        ids = [d.id for d in REGISTRY]
    else:
        ids = [descriptor(args.identity).id]
    grid = GridSpec(
        seeds=tuple(_parse_seeds(args.seeds)),
        t_range=_parse_range(args.t_range),
        n_range=_parse_range(args.n_range),
    )
    out = sys.stdout
    total = mismatches = 0
    if args.format == "tsv":
        out.write("\t".join(TSV_COLUMNS) + "\n")
    else:
        out.write("[")
    first = True
    for identity_id in ids:
        reports = sweep(identity_id, grid)
        failed = sum(1 for rep in reports if not rep.match)
        total += len(reports)
        mismatches += failed
        for rep in reports:
            if args.format == "tsv":
                out.write(rep.as_tsv_row() + "\n")
            else:
                out.write(("\n" if first else ",\n") + rep.as_json_row())
            first = False
        print(f"{identity_id}: {len(reports) - failed}/{len(reports)} match", file=sys.stderr)
    if args.format != "tsv":
        out.write("\n]\n" if not first else "]\n")
    print(f"total: {total - mismatches}/{total} match", file=sys.stderr)
    return 1 if mismatches else 0


def _cmd_bench(args) -> int:
    import json
    desc, spec, t = _point_inputs(args)
    result = run_bench(
        desc.id, spec, t, args.n, repeats=args.repeat, force_oracle=args.force_oracle
    )
    print(json.dumps(result, indent=2))
    return 1 if result["match"] is False else 0


# an option is (flags, add_argument keywords)
_FORMAT = (("--format",), {"choices": ("json", "tsv"), "default": "json"})
_POINT = (  # the point eval and bench evaluate at, read by _point_inputs
    (("--g0",), {"type": int, "default": None, "help": "seed G(0), default 0"}),
    (("--g1",), {"type": int, "default": None, "help": "seed G(1), default 1"}),
    (("--t",), {"type": int, "default": None, "help": "index shift, default 0"}),
    (("--n",), {"type": int, "required": True, "help": "summation length"}),
)

# subcommand -> (handler, help, positional as (name, help) or None, options);
# _build_parser and _parse both read it
_COMMANDS = {
    "list": (_cmd_list, "catalog of registered identities", None, (_FORMAT,)),
    "eval": (_cmd_eval, "evaluate one identity at one point", ("identity", None), (
        *_POINT,
        (("--method",), {"choices": ("closed", "oracle", "both"), "default": "closed"}),
        _FORMAT,
    )),
    "verify": (
        _cmd_verify, "sweep closed form vs oracle over a grid", ("identity", "identity id, or 'all'"),
        (
            (("--seeds",), {"default": "0,1", "help": "semicolon-separated 'g0,g1' pairs"}),
            (("--t", "--t-range"), {"dest": "t_range", "default": "0..0", "help": "shift range 'a..b'"}),
            (("--n", "--n-range"), {"dest": "n_range", "default": "0..20", "help": "length range 'a..b'"}),
            _FORMAT,
        ),
    ),
    "bench": (_cmd_bench, "time closed form vs oracle", ("identity", None), (
        *_POINT,
        (("--repeat",), {"type": int, "default": 5, "help": "timing runs per side"}),
        (("--force-oracle",), {"action": "store_true", "default": False}),
    )),
}


def _build_parser():
    """The argparse parser of _COMMANDS: help, usage and its errors."""
    import argparse  # only help and the calls _parse leaves to argparse load it

    parser = argparse.ArgumentParser(
        prog="gibsum",
        description="Evaluate and verify gibonacci power-sum identities in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, positional, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        if positional:
            command.add_argument(positional[0], help=positional[1])
        for flags, keywords in options:
            command.add_argument(*flags, **keywords)
        command.set_defaults(func=func)
    return parser


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The arguments _build_parser() would parse argv into, or None.

    Only the plain spelling is read here: the subcommand, its positional,
    then exact option strings as --name=value or --name value, a separate
    value not starting with '-'. Anything else (help, an abbreviation,
    '--', an unknown, missing or bad option) gives None, and argparse
    parses it, with its own messages and exit codes.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, positional, options = _COMMANDS[argv[0]]
    values = {"command": argv[0], "func": func}
    by_flag = {}
    for flags, keywords in options:
        dest = keywords.get("dest") or flags[0][2:].replace("-", "_")
        values[dest] = keywords.get("default")
        by_flag.update(dict.fromkeys(flags, (dest, keywords)))
    tokens = iter(argv[1:])  # a missing token reads as "-": argparse takes that call
    if positional:
        values[positional[0]] = value = next(tokens, "-")
        if value.startswith("-"):
            return None
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in by_flag:
            return None
        dest, keywords = by_flag[flag]
        if "action" in keywords:  # store_true: no value
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(tokens, "-")
                if value.startswith("-"):
                    return None
            elif value == "--":  # argparse drops it and stores []
                return None
            try:
                value = keywords.get("type", str)(value)
            except ValueError:
                return None
            if "choices" in keywords and value not in keywords["choices"]:
                return None
        values[dest] = value
    if any(kw.get("required") and values[dest] is None for dest, kw in by_flag.values()):
        return None
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    # the cap is process-wide: restore it on return
    previous = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    lift = 0 < previous < _MAX_ARG_DIGITS
    if lift:
        sys.set_int_max_str_digits(_MAX_ARG_DIGITS)
    try:
        code = _run(argv)
        sys.stdout.flush()  # a reader gone before the first write fails here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader is gone; point stdout at devnull so the exit-time flush stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, what a shell shows for a writer a closed pipe killed
    finally:
        if lift:
            sys.set_int_max_str_digits(previous)


def _run(argv: list[str] | None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
            return exc.code
    try:
        return args.func(args)
    except (DomainError, UnknownIdentityError, ZeroTermError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
