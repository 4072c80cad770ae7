"""The benchmark's four workloads: seeded operation lists and their output checks.

A workload is a fixed list of operations, built from the seed alone; gibsum
only ever sees the generated inputs. Every expected output comes from
`modp`, which shares no code with gibsum. Command-line values are always
passed as `--name=value`: argparse reads a separate value that starts with
'-' as an option and exits 2.

Why each workload exists, and the layer it stresses:

- eval_cli: the command-line user's path. One `gibsum eval` per operation,
  large n, so decimal rendering of the result dominates, and interpreter
  start-up is paid every time.
- closed_api: the Python-API user's path. Closed-form calls timed inside one
  child process, no rendering, so term access, big-integer arithmetic and
  the reciprocal zero scan do the work.
- verify_grid: `gibsum verify` over grids shaped like acceptance criterion 3:
  many short oracle sums, small-index term calls, per-point bookkeeping and
  megabytes of JSON rows.
- verify_lines: `gibsum verify` along long n-lines; the oracle's big-integer
  and Fraction additions dominate, and cost grows with the cube of n.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Optional

import modp

# per-operation budgets in seconds: several times the slowest operation of the
# kind measured on the seed code, so only a blow-up in cost exceeds them
EVAL_BUDGET = 20.0
API_BUDGET = 15.0
VERIFY_BUDGET = 30.0

_ZERO_RE = re.compile(r"zero term at index (-?\d+)")


@dataclass(frozen=True)
class Point:
    identity: str
    g0: int
    g1: int
    t: int
    n: int


def expectation(p: Point) -> tuple:
    """("value", S(n) mod P), ("zero", first zero index) or ("domain",)."""
    d = modp.IDENTITIES[p.identity]
    if d.min_n is not None and p.n < d.min_n:
        return ("domain",)
    zero = modp.first_zero(p.identity, p.g0, p.g1, p.t, p.n)
    if zero is not None:
        return ("zero", zero)
    return ("value", modp.point_sum(p.identity, p.g0, p.g1, p.t, p.n))


def _value_error(text, want: int, what: str) -> Optional[str]:
    if not isinstance(text, str):
        return f"{what}: expected a value, got {text!r}"
    try:
        got = modp.value_residue(text)
    except (ValueError, ZeroDivisionError) as exc:
        return f"{what}: unreadable value ({exc})"
    return None if got == want else f"{what}: wrong value (residue {got}, expected {want})"


class Eval:
    """One `gibsum eval` process."""

    budget = EVAL_BUDGET
    probe = "render"  # the host-speed probe timed around it, see probe.py

    def __init__(self, point: Point, fmt: str = "json", method: str = "closed"):
        self.label = f"eval {point.identity} n={point.n} {fmt} {method}"
        self.want = expectation(point)
        self.method = method
        self.fmt = fmt
        self.argv = [
            "eval", point.identity, f"--g0={point.g0}", f"--g1={point.g1}",
            f"--t={point.t}", f"--n={point.n}", f"--method={method}", f"--format={fmt}",
        ]

    def check(self, code: int, out: bytes, err: bytes) -> Optional[str]:
        if self.want[0] == "zero":
            found = _ZERO_RE.search(err.decode(errors="replace"))
            if code != 2 or found is None:
                return f"expected a zero-term refusal (exit 2), got exit {code}"
            if int(found.group(1)) != self.want[1]:
                return f"refusal names index {found.group(1)}, expected {self.want[1]}"
            return None
        if code != 0:
            return f"exit {code}: {err.decode(errors='replace')[-200:]}"
        text = out.decode()
        if self.fmt == "tsv":
            lines = text.splitlines()
            if len(lines) != 2:
                return f"expected a header and one row, got {len(lines)} lines"
            row = dict(zip(lines[0].split("\t"), lines[1].split("\t")))
            closed, oracle, match = row.get("closed"), row.get("oracle"), row.get("match") == "true"
        else:
            try:
                row = json.loads(text)
            except ValueError as exc:
                return f"unreadable JSON: {exc}"
            closed, oracle, match = row.get("closed"), row.get("oracle"), row.get("match") is True
        problem = _value_error(closed, self.want[1], "closed")
        if problem is None and self.method == "both":
            problem = _value_error(oracle, self.want[1], "oracle")
            if problem is None and not match:
                problem = "match is not true"
        return problem


def grid_expectations(identity, seeds, t_range, n_range) -> dict:
    """Expected outcome for every point of a verify grid, keyed by (g0, g1, t, n)."""
    d = modp.IDENTITIES[identity]
    seed_pairs = [d.seeds] if d.seeds is not None else seeds
    shifts = [d.fixed_t] if d.fixed_t is not None else range(t_range[0], t_range[1] + 1)
    ns = range(n_range[0], n_range[1] + 1)
    want = {}
    for g0, g1 in seed_pairs:
        for t in shifts:
            valid = []
            for n in ns:
                if d.min_n is not None and n < d.min_n:
                    want[(g0, g1, t, n)] = ("domain",)
                    continue
                zero = modp.first_zero(identity, g0, g1, t, n)
                if zero is not None:
                    want[(g0, g1, t, n)] = ("zero", zero)
                else:
                    valid.append(n)
            if valid:
                for n, r in modp.line_sums(identity, g0, g1, t, valid).items():
                    want[(g0, g1, t, n)] = ("value", r)
    return want


class Verify:
    """One `gibsum verify` process over a grid of seeds, shifts and lengths."""

    budget = VERIFY_BUDGET
    probe = "mixed"

    def __init__(self, identity: str, seeds, t_range, n_range):
        self.label = f"verify {identity} seeds={len(seeds)} t={t_range} n={n_range}"
        self.identity = identity
        self.want = grid_expectations(identity, seeds, t_range, n_range)
        self.argv = [
            "verify", identity,
            "--seeds=" + ";".join(f"{g0},{g1}" for g0, g1 in seeds),
            f"--t={t_range[0]}..{t_range[1]}", f"--n={n_range[0]}..{n_range[1]}",
            "--format=json",
        ]

    def check(self, code: int, out: bytes, err: bytes) -> Optional[str]:
        if code != 0:
            return f"exit {code}: {err.decode(errors='replace')[-200:]}"
        try:
            rows = json.loads(out)
        except ValueError as exc:
            return f"unreadable JSON: {exc}"
        if len(rows) != len(self.want):
            return f"{len(rows)} rows for a grid of {len(self.want)} points"
        seen = set()
        for row in rows:
            key = (int(row["g0"]), int(row["g1"]), row["t"], row["n"])
            want = self.want.get(key)
            if want is None or key in seen or row["identity"] != self.identity:
                return f"unexpected or repeated row {key}"
            seen.add(key)
            if row["match"] is not True:
                return f"match is not true at {key}"
            if want[0] == "value":
                problem = (_value_error(row["closed"], want[1], f"closed at {key}")
                           or _value_error(row["oracle"], want[1], f"oracle at {key}"))
                if problem:
                    return problem
                continue
            if row["closed"] is not None or row["oracle"] is not None or not row["error"]:
                return f"expected a vacuous pass at {key}"
            if want[0] == "zero":
                found = _ZERO_RE.search(row["error"])
                if found is None or int(found.group(1)) != want[1]:
                    return f"zero-term error {row['error']!r} at {key}, expected index {want[1]}"
            elif not row["error"].startswith("domain"):
                return f"expected a domain error at {key}, got {row['error']!r}"
        return None


class ApiCall:
    """One closed-form library call, made inside the closed_api child."""

    budget = API_BUDGET

    def __init__(self, point: Point):
        self.label = f"api {point.identity} n={point.n}"
        self.point = point
        self.want = expectation(point)

    def job(self) -> list:
        p = self.point
        return [p.identity, p.g0, p.g1, p.t, p.n]

    def check(self, record: dict) -> Optional[str]:
        if "error" in record:
            return f"raised {record['error']}"
        if self.want[0] == "zero":
            if record.get("zero") != self.want[1]:
                return f"expected ZeroTermError at {self.want[1]}, got {record}"
            return None
        if "num" not in record:
            return f"expected a value, got {record}"
        got = record["num"] * modp.inverse(record["den"]) % modp.P
        return None if got == self.want[1] else f"wrong value (residue {got}, expected {self.want[1]})"


# ---------------------------------------------------------------------------
# seeded inputs


def _fib(k: int) -> int:
    a, b = 0, 1
    for _ in range(abs(k)):
        a, b = b, a + b
    return a if k >= 0 or k % 2 else -a


def _zero_free(rng: random.Random, top: int) -> tuple[int, int]:
    """Seeds in +-[1, top] whose sequence has no zero term at all."""
    while True:
        g0 = rng.choice((-1, 1)) * rng.randint(1, top)
        g1 = rng.choice((-1, 1)) * rng.randint(1, top)
        if modp.zero_index(g0, g1) is None:
            return g0, g1


def _with_zero(rng: random.Random, index: int, top: int) -> tuple[int, int]:
    """Seeds whose only zero term sits at `index`: G(k) = c F(k - index)."""
    c = rng.choice((-1, 1)) * rng.randint(1, top)
    return c * _fib(-index), c * _fib(1 - index)


def _jitter(rng: random.Random, n: int) -> int:
    return n - rng.randrange(0, max(1, n // 200))


# Each list puts a block of operations of one kind and size around the median
# and around the tail percentile (the 11th slowest operation, see run.tail),
# so that neither statistic sits between two unlike operations.


def eval_cli(rng: random.Random) -> list:
    def point(identity, n, t=None, seeds=None):
        g0, g1 = seeds or _zero_free(rng, 999)
        return Point(identity, g0, g1, rng.randint(-50, 50) if t is None else t, n)

    # tail block, large n: rendering the value to decimal dominates; a recip
    # value has twice the digits, so it gets n / sqrt(2) for the same cost
    ops = [Eval(point(identity, _jitter(rng, n)))
           for identity, n in (("sum_g6", 60_000), ("alt_g5", 60_000), ("sum_g3g3", 60_000)) * 4
           + (("recip", 43_000),) * 2]
    ops.append(Eval(point("sum_g2", _jitter(rng, 200_000))))
    # median block
    ops += [Eval(point("sum_g6", _jitter(rng, 35_000))) for _ in range(9)]
    for identity, n, fmt in (("sum_g6", 20_000, "tsv"), ("sum_g2", 20_000, "tsv"),
                             ("alt_g5", 20_000, "json"), ("sum_g3g3", 20_000, "json"),
                             ("recip", 14_000, "json")):
        ops.append(Eval(point(identity, _jitter(rng, n)), fmt))
    # small n, checked against the oracle too
    for identity, n in (("sum_g6", 300), ("sum_g2", 300), ("alt_g5", 300),
                        ("sum_g3g3", 300), ("recip", 200)):
        ops.append(Eval(point(identity, _jitter(rng, n)), method="both"))
    # negative n
    for identity, n, fmt in (("sum_g6", -3000, "json"), ("alt_g5", -2000, "tsv"),
                             ("sum_g3g3", -3000, "json"), ("recip", -1500, "json")):
        ops.append(Eval(point(identity, n + rng.randrange(0, 10)), fmt))
    # large |t|: the values grow with |t| as they do with n
    ops.append(Eval(point("sum_g2", 1000, t=rng.choice((-1, 1)) * rng.randint(10**5, 2 * 10**5))))
    ops.append(Eval(point("sum_g6", 500, t=-rng.randint(2 * 10**4, 3 * 10**4))))
    # seeds with an interior zero: refused where the window holds it, usable elsewhere
    a = rng.randint(-6, 6)
    seeds = _with_zero(rng, a, 99)
    ops.append(Eval(point("recip", rng.randint(50, 500), t=a - rng.randint(0, 2), seeds=seeds)))
    ops.append(Eval(point("recip", rng.randint(50, 500), t=a + rng.randint(1, 20), seeds=seeds)))
    return ops


def closed_api(rng: random.Random) -> list:
    def call(identity, n):
        g0, g1 = _zero_free(rng, 999)
        return ApiCall(Point(identity, g0, g1, rng.randint(-50, 50), _jitter(rng, n)))

    calls = [call(identity, 100_000) for identity in modp.IDENTITIES]
    calls += [call(identity, 100_000) for identity in ("sum_g6", "alt_g5")]
    calls += [call("sum_g6", 150_000) for _ in range(9)]  # median block
    calls += [call("sum_g2", 1_000_000), call("sum_g3g3", 1_000_000)]
    # tail block, with recip's quadratic zero scan
    calls += [call("recip", 100_000) for _ in range(5)]
    calls += [call(identity, n) for identity, n in (
        ("sum_g6", 300_000), ("alt_g5", 270_000), ("lucas6", 300_000),
        ("fib6", 300_000), ("fib_alt_f5l", 300_000), ("treeby_l3", 400_000))]
    return calls


GRID_T = (-8, 8)
GRID_N = (0, 40)


def grid_seeds(rng: random.Random) -> list:
    """Four seed pairs, two with a zero term near index 0, as in criterion 3."""
    return [_with_zero(rng, 0, 9), _with_zero(rng, 2, 9)] + [_zero_free(rng, 99) for _ in range(2)]


def verify_grid(rng: random.Random) -> list:
    seeds = grid_seeds(rng)
    ops = []
    for identity, d in modp.IDENTITIES.items():
        if d.seeds is None:  # one process per seed pair, so the pass has many operations
            ops += [Verify(identity, [pair], GRID_T, GRID_N) for pair in seeds]
        else:
            ops.append(Verify(identity, seeds, GRID_T, GRID_N))
    return ops


def verify_lines(rng: random.Random) -> list:
    def line(identity, n_range):
        seeds = [_zero_free(rng, 999)]
        t = rng.randint(-20, 20)
        return Verify(identity, seeds, (t, t), n_range)

    return [
        line("recip", (0, 300)),
        # tail block
        *(line("recip", (0, 150)) for _ in range(4)),
        *(line(identity, n_range) for identity, n_range in (
            ("sum_g6", (0, 400)), ("alt_g5", (0, 350)), ("sum_g3g3", (0, 350))) for _ in range(3)),
        *(line("sum_g6", (0, 280)) for _ in range(9)),  # median block
        line("sum_g6", (-150, 150)),
        line("sum_g6", (-140, 140)),
        line("alt_g5", (-120, 120)),
        line("sum_g3g3", (-120, 120)),
        line("recip", (-60, 60)),
        *(line(identity, (0, 150)) for identity in ("sum_g6", "alt_g5", "sum_g3g3") for _ in range(2)),
        line("recip", (0, 80)),
        line("recip", (0, 90)),
    ]


WORKLOADS = {
    "eval_cli": eval_cli,
    "closed_api": closed_api,
    "verify_grid": verify_grid,
    "verify_lines": verify_lines,
}


def build(name: str, seed: int) -> list:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
