"""The benchmark's own tests.

    python3 perfbench/selftest.py

Checks the mod-P reference against exact brute-force sums (integers and
Fractions, no gibsum), checks that the output checks reject wrong outputs,
that every generated command line is unambiguous to argparse, and finally
runs every workload briefly, traced and untraced, requiring that no
operation fails.
"""

import json
import os
import random
import subprocess
import sys
import unittest
from fractions import Fraction

import modp
import probe
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def exact_term(g0, g1, k):
    a, b = g0, g1
    for _ in range(abs(k)):
        a, b = (b, a + b) if k > 0 else (b - a, a)
    return a


def exact_sum(identity, g0, g1, t, n):
    """S(n) by adding summands one at a time, under gibsum's conventions."""
    d = modp.IDENTITIES[identity]
    g0, g1, t = modp.effective(identity, g0, g1, t)

    def summand(j):
        gm1, g, gp1, gp2 = (exact_term(g0, g1, j + t + o) for o in (-1, 0, 1, 2))
        value = {
            "g6": lambda: Fraction(g**6),
            "g2": lambda: Fraction(g**2),
            "alt": lambda: Fraction((1 if j % 2 else -1) * g**5 * (gp1 + gm1)),
            "g3g3": lambda: Fraction(g**3 * gp1**3),
            "recip": lambda: Fraction(1, gm1**2 * g * gp1 * gp2**2),
        }[d.family]()
        return value

    if n >= 0:
        total = sum((summand(j) for j in range(1, n + 1)), Fraction(0))
    else:
        total = -sum((summand(j) for j in range(n + 1, 1)), Fraction(0))
    return total * Fraction(*d.scale)


def reduce(value: Fraction) -> int:
    return value.numerator % modp.P * modp.inverse(value.denominator) % modp.P


class Reference(unittest.TestCase):
    def test_sums_match_exact_brute_force(self):
        rng = random.Random(7)
        for identity, d in modp.IDENTITIES.items():
            for _ in range(6):
                g0, g1 = rng.choice([(0, 1), (1, 1), (3, -4)]) if rng.random() < 0.3 else (
                    rng.randint(-30, 30), rng.randint(1, 30))
                t = rng.randint(-6, 6)
                ns = [n for n in range(-9, 13)
                      if (d.min_n is None or n >= d.min_n)
                      and modp.first_zero(identity, g0, g1, t, n) is None]
                if not ns:
                    continue
                line = modp.line_sums(identity, g0, g1, t, ns)
                for n in ns:
                    want = reduce(exact_sum(identity, g0, g1, t, n))
                    self.assertEqual(line[n], want, (identity, g0, g1, t, n))
                    self.assertEqual(modp.point_sum(identity, g0, g1, t, n), want,
                                     (identity, g0, g1, t, n))

    def test_point_sum_matches_line_walk_at_larger_n(self):
        for identity in ("sum_g6", "sum_g2", "alt_g5", "sum_g3g3", "lucas_alt_l5f", "fib6"):
            for n in (4000, 4001, -2999):
                self.assertEqual(modp.point_sum(identity, 37, -51, 7, n),
                                 modp.line_sums(identity, 37, -51, 7, [n])[n], (identity, n))

    def test_zero_index_against_window_scan(self):
        for g0 in range(-40, 41):
            for g1 in range(-40, 41):
                if g0 == g1 == 0:
                    continue
                zeros = [k for k in range(-30, 31) if exact_term(g0, g1, k) == 0]
                self.assertEqual(modp.zero_index(g0, g1), zeros[0] if zeros else None)

    def test_residue_of_long_and_signed_strings(self):
        rng = random.Random(3)
        for digits in (1, 255, 256, 257, 512, 3000):
            value = rng.randrange(10 ** (digits - 1), 10**digits)
            for v in (value, -value):
                self.assertEqual(modp.residue(str(v)), v % modp.P)
        # past CPython's 4300-digit limit for int <-> str, from two halves
        head, tail = str(rng.randrange(10**2999, 10**3000)), str(rng.randrange(10**3000))
        tail = tail.zfill(3000)
        want = (int(head) * pow(10, 3000, modp.P) + int(tail)) % modp.P
        self.assertEqual(modp.residue(head + tail), want)
        self.assertEqual(modp.value_residue("-3/4"), -3 * modp.inverse(4) % modp.P)
        for bad in ("", "-", "1.5", "12a", "+3", "٣"):
            with self.assertRaises(ValueError):
                modp.residue(bad)


class Checks(unittest.TestCase):
    def test_eval_check_rejects_wrong_values_and_refusals(self):
        op = workloads.Eval(workloads.Point("sum_g2", 2, 1, 0, 3))  # 1 + 9 + 16
        good = json.dumps({"closed": "26", "oracle": None, "match": None}).encode()
        self.assertIsNone(op.check(0, good, b""))
        self.assertIsNotNone(op.check(0, good.replace(b"26", b"27"), b""))
        self.assertIsNotNone(op.check(1, good, b""))
        refused = workloads.Eval(workloads.Point("recip", 1, -1, 0, 5))  # G(2) = 0
        err = b"error: zero term at index 2 for seeds (1, -1)\n"
        self.assertIsNone(refused.check(2, b"", err))
        self.assertIsNotNone(refused.check(2, b"", err.replace(b"index 2", b"index 3")))
        self.assertIsNotNone(refused.check(0, b"", err))

    def test_verify_check_rejects_missing_wrong_or_unmatched_rows(self):
        op = workloads.Verify("sum_g2", [(2, 1)], (0, 0), (0, 2))
        rows = [{"identity": "sum_g2", "g0": "2", "g1": "1", "t": 0, "n": n,
                 "closed": v, "oracle": v, "match": True, "error": None}
                for n, v in ((0, "0"), (1, "1"), (2, "10"))]
        self.assertIsNone(op.check(0, json.dumps(rows).encode(), b""))
        self.assertIsNotNone(op.check(0, json.dumps(rows[:2]).encode(), b""))
        wrong = [dict(r) for r in rows]
        wrong[2]["oracle"] = "11"
        self.assertIsNotNone(op.check(0, json.dumps(wrong).encode(), b""))
        unmatched = [dict(r) for r in rows]
        unmatched[1]["match"] = False
        self.assertIsNotNone(op.check(0, json.dumps(unmatched).encode(), b""))

    def test_api_check(self):
        call = workloads.ApiCall(workloads.Point("recip", 1, -1, 0, 5))
        self.assertIsNone(call.check({"s": 0.1, "zero": 2}))
        self.assertIsNotNone(call.check({"s": 0.1, "zero": 1}))
        call = workloads.ApiCall(workloads.Point("sum_g2", 2, 1, 0, 3))
        self.assertIsNone(call.check({"s": 0.1, "num": 26, "den": 1}))
        self.assertIsNotNone(call.check({"s": 0.1, "num": 25, "den": 1}))

    def test_times_scale_to_reference_speed(self):
        for kind, (_, reference) in probe.PROBES.items():
            self.assertGreater(probe.probe(kind), 0)
            self.assertAlmostEqual(probe.adjusted(0.3, reference, kind), 0.3)
            self.assertAlmostEqual(probe.adjusted(0.3, 2 * reference, kind), 0.15)

    def test_tail_keeps_ten_values_beyond_it(self):
        values = [float(i) for i in range(60, 0, -1)]
        percentile, value = run.tail(values)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(percentile, 100 * 50 / 60)


class Workloads(unittest.TestCase):
    def test_arguments_are_unambiguous_and_seeded(self):
        def inputs(name, seed):
            return [getattr(op, "argv", None) or op.job() for op in workloads.build(name, seed)]

        for name in workloads.WORKLOADS:
            first = inputs(name, 5)
            self.assertEqual(first, inputs(name, 5))
            self.assertNotEqual(first, inputs(name, 6))
            for args in first:
                for arg in args:
                    if isinstance(arg, str) and arg.startswith("-"):
                        self.assertTrue(arg.startswith("--") and "=" in arg, (name, arg))

    def test_every_workload_runs_without_failures(self):
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", "all",
                 "--seed", "0", "--seconds", "1", "--trace", trace],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] + proc.stderr[-3000:])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            names = run.PER_LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
            for workload in workloads.WORKLOADS:
                for metric in names:
                    self.assertIn(f"{workload}.{metric}", result["metrics"])


if __name__ == "__main__":
    unittest.main()
