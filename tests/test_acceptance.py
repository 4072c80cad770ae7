"""Acceptance gate: the ten release checks, one test per criterion.

Every equality is exact (integers and Fractions, zero tolerance) and the
stated runtime budgets are asserted, not advisory. Run with `pytest -s`
to see one PASS/FAIL line per criterion.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import FULL_N_RANGE, FULL_T_RANGE, GENERAL_FORMS, GRID_SEEDS, ONE_INDEX, seed_grid
from gibsum import (
    FIBONACCI,
    LUCAS,
    GridSpec,
    SequenceSpec,
    SummandKind,
    characteristic_e,
    fib,
    fib_alt_f5l_closed,
    first_zero_in_window,
    lucas,
    lucas_alt_l5f_closed,
    oracle_sum,
    recip_fib_special,
    recip_lucas_special,
    reciprocal_window,
    sum_sixth_closed,
    sweep,
    term,
    term_naive,
    treeby_f3_closed,
    treeby_l3_closed,
)
from gibsum.closed_forms import CATALOG, alt_sum_fifth_closed, sum_cubes_product_closed
from gibsum.cli import run_bench
from gibsum.sequences import window

FULL_GRID = GridSpec(seeds=GRID_SEEDS, t_range=FULL_T_RANGE, n_range=FULL_N_RANGE)
FULL_GRID_POINTS = len(GRID_SEEDS) * 17 * 41  # 6 seeds x t in [-8,8] x n in [0,40]


@contextmanager
def criterion(number, label, budget=None):
    """Print one PASS/FAIL line per criterion; enforce the runtime budget."""
    started = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - started
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {budget:.0f}s budget"
            )
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")


def test_criterion_1_fibonacci_sixth_powers():
    with criterion(1, "Fibonacci sixth-power sums match (F_n^5 F_(n+3) + F_2n)/4", budget=1.0):
        for n in range(1, 31):
            numerator = fib(n) ** 5 * fib(n + 3) + fib(2 * n)
            assert numerator % 4 == 0
            assert oracle_sum(SummandKind.SIXTH_POWER, FIBONACCI, 0, n) == numerator // 4
        assert sum(f**6 for f in (1, 1, 2, 3, 5)) == 16420
        assert oracle_sum(SummandKind.SIXTH_POWER, FIBONACCI, 0, 5) == 16420


def test_criterion_2_lucas_sixth_powers():
    with criterion(2, "Lucas sixth-power sums match (L_n^5 L_(n+3) + 125 F_2n)/4 - 32",
                   budget=1.0):
        for n in range(1, 31):
            numerator = lucas(n) ** 5 * lucas(n + 3) + 125 * fib(2 * n)
            assert numerator % 4 == 0
            assert oracle_sum(SummandKind.SIXTH_POWER, LUCAS, 0, n) == numerator // 4 - 32
        assert oracle_sum(SummandKind.SIXTH_POWER, LUCAS, 0, 1) == 1
        assert oracle_sum(SummandKind.SIXTH_POWER, LUCAS, 0, 2) == 730


def test_criterion_3_sixth_power_full_grid():
    with criterion(3, "shifted sixth-power closed form on the full seed/t/n grid",
                   budget=30.0):
        reports = sweep("sum_g6", FULL_GRID)
        assert len(reports) == FULL_GRID_POINTS == 4182
        assert all(r.match and r.error is None for r in reports)


def test_criterion_4_alternating_fifth_powers():
    with criterion(4, "alternating fifth-power closed form, corrected leading sign"):
        reports = sweep("alt_g5", FULL_GRID)
        assert len(reports) == FULL_GRID_POINTS
        assert all(r.match and r.error is None for r in reports)

        # corrected special cases against the oracle (Lucas route divides by 5
        # since L_(j+1) + L_(j-1) = 5 F_j)
        for n in range(1, 31):
            assert fib_alt_f5l_closed(n) == oracle_sum(SummandKind.ALT_FIFTH_NEIGHBOR, FIBONACCI, 0, n)
            assert lucas_alt_l5f_closed(n) == Fraction(
                oracle_sum(SummandKind.ALT_FIFTH_NEIGHBOR, LUCAS, 0, n), 5
            )

        # the uncorrected (-1)^(n+1) leading sign fails at n = 1: it yields -1
        # where the brute-force sum F_1^5 L_1 = 1 is positive
        n = 1
        uncorrected = Fraction(
            (-1) ** (n + 1)
            * fib(n) ** 2
            * fib(n + 1) ** 2
            * (fib(n + 1) ** 2 - fib(n) * fib(n + 3)),
            2,
        )
        oracle_at_1 = oracle_sum(SummandKind.ALT_FIFTH_NEIGHBOR, FIBONACCI, 0, 1)
        assert oracle_at_1 == 1
        assert uncorrected == -1
        assert uncorrected != oracle_at_1
        assert fib_alt_f5l_closed(1) == oracle_at_1


def test_criterion_5_cubes_product_and_reciprocals():
    with criterion(5, "cube-product and reciprocal closed forms plus their constants",
                   budget=30.0):
        reports = sweep("sum_g3g3", FULL_GRID)
        assert len(reports) == FULL_GRID_POINTS
        assert all(r.match and r.error is None for r in reports)

        reports = sweep("recip", FULL_GRID)
        assert len(reports) == FULL_GRID_POINTS
        clean = blocked = 0
        for r in reports:
            zero = first_zero_in_window(
                SequenceSpec(r.g0, r.g1), *reciprocal_window(r.t, r.n)
            )
            if zero is None:
                clean += 1
                assert r.match and r.error is None
            else:
                blocked += 1
                assert r.match
                assert r.error == (
                    f"zero term at index {zero} for seeds ({r.g0}, {r.g1})"
                )
        assert clean > 0 and blocked > 0 and clean + blocked == FULL_GRID_POINTS

        # Lucas cube-product constant: (L_0 L_1 L_2)^2 / 4 = 9, entering as -9
        assert Fraction((2 * 1 * 3) ** 2, 4) == 9
        for n in range(0, 21):
            triple = lucas(n) * lucas(n + 1) * lucas(n + 2)
            assert treeby_l3_closed(n) == Fraction(triple**2, 4) - 9
            assert treeby_l3_closed(n) == oracle_sum(SummandKind.CUBE_PRODUCT, LUCAS, 0, n)
            triple = fib(n) * fib(n + 1) * fib(n + 2)
            assert treeby_f3_closed(n) == Fraction(triple**2, 4)
            assert treeby_f3_closed(n) == oracle_sum(SummandKind.CUBE_PRODUCT, FIBONACCI, 0, n)

        # reciprocal anchors: 1/4 = 1/(F_1 F_2 F_3)^2, 1/144 = 1/(L_1 L_2 L_3)^2
        assert Fraction(1, (1 * 1 * 2) ** 2) == Fraction(1, 4)
        assert Fraction(1, (1 * 3 * 4) ** 2) == Fraction(1, 144)
        for n in range(1, 16):
            triple = fib(n + 1) * fib(n + 2) * fib(n + 3)
            expected = (Fraction(1, 4) - Fraction(1, triple**2)) / 4
            assert recip_fib_special(n) == expected
            assert recip_fib_special(n) == oracle_sum(SummandKind.RECIPROCAL_WINDOW, FIBONACCI, 1, n)
            triple = lucas(n + 1) * lucas(n + 2) * lucas(n + 3)
            expected = (Fraction(1, 144) - Fraction(1, triple**2)) / 4
            assert recip_lucas_special(n) == expected
            assert recip_lucas_special(n) == oracle_sum(SummandKind.RECIPROCAL_WINDOW, LUCAS, 1, n)

        # alternating Lucas special constant 14/5, cross-checked via the oracle
        for n in range(0, 16):
            sign = -1 if n % 2 else 1
            ln, ln1 = lucas(n), lucas(n + 1)
            anchored = Fraction(
                sign * ln**2 * ln1**2 * (ln1**2 - ln * lucas(n + 3)), 10
            ) + Fraction(14, 5)
            assert lucas_alt_l5f_closed(n) == anchored
            assert anchored == Fraction(oracle_sum(SummandKind.ALT_FIFTH_NEIGHBOR, LUCAS, 0, n), 5)


def test_criterion_6_telescoping_all_identities():
    # A report at n = 1 checks S(1) = summand(1), and S(0) = 0 by
    # construction, so it checks E(m) - sigma E(m-1) = d summand(m) at
    # m = t + 1. With (a, b) = (G(0), G(1)) and e = a^2 - b^2 + ab, both
    # sides are polynomials of degree <= 6 in (a, b); for recip, degree <= 12
    # once its denominators are cleared. Every term G(0..4) is positive on
    # these grids, so no denominator vanishes. A polynomial of degree <= D in
    # each variable that vanishes on a (D+1) x (D+1) grid is zero, so the
    # step holds for all seeds at m in {1, 2}. Shifting the seeds by two
    # indices keeps e and carries m in {1, 2} to every m of the same parity,
    # and S(0) = 0 with telescoping then gives every n, negative n included,
    # as far as window obeys the recurrence (criterion 8). Every identity
    # evaluates one of the five forms, a special at its fixed seeds and shift.
    with criterion(6, "telescoping step of the five general forms: all seeds, shifts and lengths"):
        for identity, side in GENERAL_FORMS.items():
            reports = sweep(identity, GridSpec(seed_grid(side), (0, 1), (1, 1)))
            assert len(reports) == 2 * side * side
            assert all(r.match and r.error is None for r in reports), identity
        forms = {CATALOG[identity][0] for identity in GENERAL_FORMS}
        assert all(row[0] in forms for row in CATALOG.values())


def test_criterion_7_point_identities():
    # With (a, b) = (G(r), G(r+1)), (-1)^r e = a^2 - b^2 + ab, so each
    # one-index identity is a polynomial identity of degree <= 6 in (a, b).
    # At r = 0, (a, b) runs over the 7 x 7 seed grid, which proves it for all
    # (a, b): all seeds and every r (r = 1 checks the sign). Vajda 10a,
    # G(r+s) + (-1)^s G(r-s) = L(s) G(r), is linear in the seeds, and moving
    # r moves the seeds. As a function of s both sides lie in the span of
    # phi^s and psi^s, so they obey the recurrence in s, and s in {0, 1}
    # gives every s, negative s included.
    with criterion(7, "classical point identities for all seeds, r and s"):
        for g0, g1 in seed_grid(7):
            spec = SequenceSpec(g0, g1)
            e = characteristic_e(spec)
            for r in (0, 1):
                g = dict(zip(range(-2, 3), window(spec, r - 2, 5)))
                se = -e if r % 2 else e
                for pid, sides in ONE_INDEX.items():
                    left, right = sides(g, se)
                    assert left == right, (pid, g0, g1, r)
                for s in (0, 1):
                    left = term(spec, r + s) + (-1) ** s * term(spec, r - s)
                    assert left == lucas(s) * g[0], ("vajda10a", g0, g1, r, s)


def test_criterion_8_term_oracle_and_reflection():
    with criterion(8, "fast-doubling terms equal naive recurrence; reflection law"):
        for seeds in GRID_SEEDS:
            spec = SequenceSpec(*seeds)
            for k in range(-200, 201):
                assert term(spec, k) == term_naive(spec, k)
        for k in range(0, 51):
            assert fib(-k) == (-1) ** (k + 1) * fib(k)


def test_criterion_9_performance():
    with criterion(9, "closed form at n = 100000 under 5 s; beats oracle at n = 10000"):
        started = time.perf_counter()
        value = sum_sixth_closed(FIBONACCI, 0, 100_000)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"closed form took {elapsed:.2f}s"
        assert value > 0
        result = run_bench("sum_g6", SequenceSpec(0, 1), t=0, n=10_000, repeats=5)
        assert result["match"] is True
        assert result["closed_seconds"] < result["oracle_seconds"]


def test_criterion_10_integrality():
    with criterion(10, "integer-valued closed forms reduce to denominator 1 on the grid"):
        t_lo, t_hi = FULL_T_RANGE
        n_lo, n_hi = FULL_N_RANGE
        for seeds in GRID_SEEDS:
            spec = SequenceSpec(*seeds)
            for t in range(t_lo, t_hi + 1):
                for n in range(n_lo, n_hi + 1):
                    assert Fraction(sum_sixth_closed(spec, t, n)).denominator == 1
                    assert Fraction(sum_cubes_product_closed(spec, t, n)).denominator == 1
                    assert Fraction(alt_sum_fifth_closed(spec, t, n)).denominator == 1
        for n in range(n_lo, n_hi + 1):
            assert Fraction(fib_alt_f5l_closed(n)).denominator == 1
            assert Fraction(lucas_alt_l5f_closed(n)).denominator == 1
