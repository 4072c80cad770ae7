"""Command-line front end: list, eval, verify, and bench subcommands.

Exit codes: 0 when everything matched (or a plain evaluation succeeded),
1 when a closed-form-vs-oracle comparison mismatched, 2 on usage or
domain errors (unknown identity, invalid seeds, zero term in a
reciprocal window, empty range), 141 when the reader of stdout closed it
early (`gibsum ... | head`).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

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
    rows = [
        {"id": d.id, "summand": d.summand, "closed_form": d.closed_form, "source": d.source}
        for d in REGISTRY
    ]
    if args.format == "tsv":
        print("\t".join(("id", "summand", "closed_form", "source")))
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibsum",
        description="Evaluate and verify gibonacci power-sum identities in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the point eval and bench evaluate at, read by _point_inputs
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("identity")
    point.add_argument("--g0", type=int, default=None, help="seed G(0), default 0")
    point.add_argument("--g1", type=int, default=None, help="seed G(1), default 1")
    point.add_argument("--t", type=int, default=None, help="index shift, default 0")
    point.add_argument("--n", type=int, required=True, help="summation length")

    p_list = sub.add_parser("list", help="catalog of registered identities")
    p_list.add_argument("--format", choices=("json", "tsv"), default="json")
    p_list.set_defaults(func=_cmd_list)

    p_eval = sub.add_parser("eval", parents=[point], help="evaluate one identity at one point")
    p_eval.add_argument("--method", choices=("closed", "oracle", "both"), default="closed")
    p_eval.add_argument("--format", choices=("json", "tsv"), default="json")
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="sweep closed form vs oracle over a grid")
    p_verify.add_argument("identity", help="identity id, or 'all'")
    p_verify.add_argument("--seeds", default="0,1", help="semicolon-separated 'g0,g1' pairs")
    p_verify.add_argument(
        "--t", "--t-range", dest="t_range", default="0..0", help="shift range 'a..b'"
    )
    p_verify.add_argument(
        "--n", "--n-range", dest="n_range", default="0..20", help="length range 'a..b'"
    )
    p_verify.add_argument("--format", choices=("json", "tsv"), default="json")
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", parents=[point], help="time closed form vs oracle")
    p_bench.add_argument("--repeat", type=int, default=5, help="timing runs per side")
    p_bench.add_argument("--force-oracle", action="store_true")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return exc.code
    try:
        return args.func(args)
    except (DomainError, UnknownIdentityError, ZeroTermError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
