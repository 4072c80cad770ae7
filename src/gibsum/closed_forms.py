"""Closed-form right-hand sides of the gibonacci summation identities.

Every operation evaluates a partial sum S(n) = sum_{j=1}^{n} term_j in
O(log(|t| + |n|)) big-integer operations, where the naive sum needs O(n).
All of them share one convention for the summation bound: S(0) = 0 and,
for n < 0, S(n) = -(sum_{j=n+1}^{0} term_j). That is the unique reading
under which S(n) - S(n-1) = term_n holds at every integer n, so the
telescoping identities stay valid verbatim on the whole integer line.

Each integer sum is one row (E, d, alternating, op name) of one table,
S(n) = (sigma(n) E(n+t) - E(t)) / d, sigma(n) = (-1)^n if alternating, else 1:

    _SQUARES        G(j+t)^2                                    _square_end     1
    _SIXTH          G(j+t)^6                                    _sixth_end      4
    _ALT_FIFTH      (-1)^(j-1) G(j+t)^5 (G(j+t+1) + G(j+t-1))   _alt_end        2
    _CUBES_PRODUCT  G(j+t)^3 G(j+t+1)^3                         _triple_square  4

_telescope evaluates any row over any exact number type; `gibsum eval` runs
it on Decimal seeds in render.exact_context(), so a large value prints
without an int-to-text conversion. The reciprocal sum (1/P(t) - 1/P(n+t)) / 4,
P = _triple_square, has a rational end. CATALOG is the one list of
identities: one row each, with its general form (one of these five, one per
summand family), fixed seeds, shift, least n and divisor, and its catalog
text. verifier builds every registry entry from its row, and a
Fibonacci/Lucas special's public function reads the same row.
Integer sums return an int, the recip family a Fraction; each division is
checked exact.
"""

from __future__ import annotations

from .errors import DomainError, IntegralityError, ZeroTermError
from .sequences import (
    FIBONACCI,
    LUCAS,
    SequenceSpec,
    characteristic_e,
    first_zero_in_window,
    reciprocal_window,
    window,
)


def _exact_div(num, d: int, op: str):
    if d == 1:  # a Fraction too
        return num
    # the remainder is the check: a Decimal num / d is exact for d in {2, 4, 5}
    # and raises no Inexact, and on a Decimal divmod truncates toward zero
    q, r = divmod(num, d)
    if r:
        # keep the huge numerator out of the message; the remainder suffices
        raise IntegralityError(f"{op}: numerator not divisible by {d} (remainder {r})")
    return q


def _square_end(spec: SequenceSpec, m: int):
    """G(m) G(m+1), one end of a sum of squares."""
    a, b = window(spec, m, 2)
    return a * b


def _sixth_end(spec: SequenceSpec, m: int):
    """G(m)^5 G(m+3) + e^2 G(m)(G(m+1) + G(m-1)), one end of a sixth-power sum.

    Evaluated as (a^2)^2 (a^2 + 2ab) + e^2 (2ab - a^2), a = G(m), b = G(m+1).
    """
    a, b = window(spec, m, 2)
    sq, x = a * a, a * b
    return sq * sq * (sq + 2 * x) + characteristic_e(spec) ** 2 * (2 * x - sq)


def _alt_end(spec: SequenceSpec, m: int):
    """D(m) = 2Q(m) - P(m) = -x^2 (x + e_m), x = G(m) G(m+1), e_m = (-1)^m e.

    P and Q as in alt_sum_fifth_closed; D is one end of that sum.
    """
    a, b = window(spec, m, 2)
    x, e = a * b, characteristic_e(spec)
    return -(x * x) * (x + (-e if m % 2 else e))


def _triple_square(spec: SequenceSpec, m: int):
    """P(m) = (G(m) G(m+1) G(m+2))^2, the window product several forms anchor on.

    Evaluated as (b (b^2 + e_m))^2, b = G(m+1), as G(m) G(m+2) = b^2 + e_m.
    """
    (b,) = window(spec, m + 1, 1)
    e = characteristic_e(spec)
    p = b * (b * b + (-e if m % 2 else e))
    return p * p


_SQUARES = (_square_end, 1, False, "sum_squares_closed")
_SIXTH = (_sixth_end, 4, False, "sum_sixth_closed")
_ALT_FIFTH = (_alt_end, 2, True, "alt_sum_fifth_closed")
_CUBES_PRODUCT = (_triple_square, 4, False, "sum_cubes_product_closed")


def _telescope(row: tuple, spec: SequenceSpec, t: int, n: int):
    """(sigma(n) E(n+t) - E(t)) / d for one row, over the seeds' number type."""
    end, d, alternating, op = row
    # the high end stays unnamed and unscaled: the division holds two full-size values, not three
    if alternating and n % 2:  # sigma(n) = -1
        return _exact_div(-end(spec, n + t) - end(spec, t), d, op)
    return _exact_div(end(spec, n + t) - end(spec, t), d, op)


def sum_squares_closed(spec: SequenceSpec, t: int, n: int) -> int:
    """Sum of G(j+t)^2 for j in 1..n: G(n+t)G(n+t+1) - G(t)G(t+1)."""
    return _telescope(_SQUARES, spec, t, n)


def sum_sixth_closed(spec: SequenceSpec, t: int, n: int) -> int:
    """Sum of G(j+t)^6 for j in 1..n.

    Evaluates [G(n+t)^5 G(n+t+3) - G(t)^5 G(t+3)
               + e^2 (G(n+t)(G(n+t+1) + G(n+t-1)) - G(t)(G(t+1) + G(t-1)))] / 4
    with e the characteristic constant of the seeds.
    """
    return _telescope(_SIXTH, spec, t, n)


def alt_sum_fifth_closed(spec: SequenceSpec, t: int, n: int) -> int:
    """Alternating sum of (-1)^(j-1) G(j+t)^5 (G(j+t+1) + G(j+t-1)) for j in 1..n.

    With P(m) = (G(m) G(m+1) G(m+2))^2 and Q(m) = G(m+1)^4 G(m)^2 the value is
    (-1)^(n+1)/2 P(n+t) + 1/2 P(t) + (-1)^n Q(n+t) - Q(t) = ((-1)^n D(n+t) - D(t)) / 2.
    Always an integer (the halving is checked to be exact).
    """
    return _telescope(_ALT_FIFTH, spec, t, n)


def sum_cubes_product_closed(spec: SequenceSpec, t: int, n: int) -> int:
    """Sum of G(j+t)^3 G(j+t+1)^3 for j in 1..n: (P(n+t) - P(t)) / 4."""
    return _telescope(_CUBES_PRODUCT, spec, t, n)


def recip_sum_closed(spec: SequenceSpec, t: int, n: int) -> Fraction:
    """Sum of 1 / (G(j+t-1)^2 G(j+t) G(j+t+1) G(j+t+2)^2) for j in 1..n.

    Evaluates (1/P(t) - 1/P(n+t)) / 4. First the sequence's one zero term,
    if any, is located and tested against the index window the summands
    touch, so this fails on exactly the inputs the brute-force sum fails
    on, naming the same index.
    """
    zero = first_zero_in_window(spec, *reciprocal_window(t, n))
    if zero is not None:
        raise ZeroTermError(zero, spec.seeds)
    import fractions  # only the reciprocal family loads it

    p_t, p_nt = _triple_square(spec, t), _triple_square(spec, n + t)
    return (fractions.Fraction(1, p_t) - fractions.Fraction(1, p_nt)) / 4


# id -> (general form, seeds, shift, least n, divisor, summand, closed form, source),
# one row per identity in `gibsum list` order; None seeds, shift or least n = free
CATALOG = {
    "sum_g6": (
        sum_sixth_closed, None, None, None, 1, "G(j+t)^6",
        "[G(n+t)^5 G(n+t+3) - G(t)^5 G(t+3) + e^2 (G(n+t)(G(n+t+1)+G(n+t-1)) - G(t)(G(t+1)+G(t-1)))] / 4",
        "extends the Fibonacci/Lucas sixth-power sums of Ohtsuka and Nakamura (2010)",
    ),
    "sum_g2": (
        sum_squares_closed, None, None, None, 1, "G(j+t)^2",
        "G(n+t) G(n+t+1) - G(t) G(t+1)",
        "classical telescoping of consecutive-term products",
    ),
    "alt_g5": (
        alt_sum_fifth_closed, None, None, None, 1, "(-1)^(j-1) G(j+t)^5 (G(j+t+1) + G(j+t-1))",
        "(-1)^(n+1)/2 P(n+t) + 1/2 P(t) + (-1)^n Q(n+t) - Q(t), P(m) = (G(m)G(m+1)G(m+2))^2, Q(m) = G(m+1)^4 G(m)^2",
        "alternating telescoping over the squared triple-product window",
    ),
    "sum_g3g3": (
        sum_cubes_product_closed, None, None, None, 1, "G(j+t)^3 G(j+t+1)^3",
        "(P(n+t) - P(t)) / 4",
        "extends the cube-product sums of Treeby (2016)",
    ),
    "recip": (
        recip_sum_closed, None, None, None, 1, "1 / (G(j+t-1)^2 G(j+t) G(j+t+1) G(j+t+2)^2)",
        "(1/P(t) - 1/P(n+t)) / 4",
        "reciprocal companion of the cube-product telescoping",
    ),
    "fib6": (
        sum_sixth_closed, FIBONACCI, None, None, 1, "F(j+t)^6",
        "[F(n+t)^5 F(n+t+3) - F(t)^5 F(t+3) + F(2n+2t) - F(2t)] / 4",
        "Ohtsuka and Nakamura (2010), shifted form",
    ),
    "lucas6": (
        sum_sixth_closed, LUCAS, None, None, 1, "L(j+t)^6",
        "[L(n+t)^5 L(n+t+3) - L(t)^5 L(t+3) + 125 (F(2n+2t) - F(2t))] / 4",
        "Ohtsuka and Nakamura (2010), shifted form",
    ),
    "fib_alt_f5l": (
        alt_sum_fifth_closed, FIBONACCI, 0, 0, 1, "(-1)^(j-1) F(j)^5 L(j)",
        "(-1)^n / 2 F(n)^2 F(n+1)^2 (F(n+1)^2 - F(n) F(n+3))",
        "specialization of alt_g5 at Fibonacci seeds; leading sign corrected (see README)",
    ),
    "lucas_alt_l5f": (  # divisor 5: L(j+1) + L(j-1) = 5 F(j)
        alt_sum_fifth_closed, LUCAS, 0, 0, 5, "(-1)^(j-1) L(j)^5 F(j)",
        "(-1)^n / 10 L(n)^2 L(n+1)^2 (L(n+1)^2 - L(n) L(n+3)) + 14/5",
        "specialization of alt_g5 at Lucas seeds; leading sign corrected (see README)",
    ),
    "treeby_f3": (
        sum_cubes_product_closed, FIBONACCI, 0, 0, 1, "F(j)^3 F(j+1)^3",
        "F(n)^2 F(n+1)^2 F(n+2)^2 / 4",
        "Treeby (2016)",
    ),
    "treeby_l3": (
        sum_cubes_product_closed, LUCAS, 0, 0, 1, "L(j)^3 L(j+1)^3",
        "L(n)^2 L(n+1)^2 L(n+2)^2 / 4 - 9",
        "Treeby (2016)",
    ),
    "recip_fib": (
        recip_sum_closed, FIBONACCI, 1, 1, 1, "1 / (F(j)^2 F(j+1) F(j+2) F(j+3)^2)",
        "(1/4 - 1/(F(n+1) F(n+2) F(n+3))^2) / 4",
        "reciprocal companion of Treeby (2016), Fibonacci seeds",
    ),
    "recip_lucas": (
        recip_sum_closed, LUCAS, 1, 1, 1, "1 / (L(j)^2 L(j+1) L(j+2) L(j+3)^2)",
        "(1/144 - 1/(L(n+1) L(n+2) L(n+3))^2) / 4",
        "reciprocal companion of Treeby (2016), Lucas seeds",
    ),
}


def _special(identity: str, op: str, n: int, t: int = 0):
    """The special's general form at its row's seeds and shift (else t), over its divisor."""
    form, seeds, shift, least, d, *_ = CATALOG[identity]
    if least is not None and n < least:
        raise DomainError(f"{op} requires n >= {least}, got {n}")
    return _exact_div(form(seeds, t if shift is None else shift, n), d, op)


def fib_sixth_closed(t: int, n: int) -> int:
    """Sum of F(j+t)^6 for j in 1..n, in the Fibonacci-only shape.

    Uses F(2k) directly instead of the e^2 term:
    [F(n+t)^5 F(n+t+3) - F(t)^5 F(t+3) + F(2n+2t) - F(2t)] / 4.
    This is sum_sixth_closed at Fibonacci seeds, as e^2 = 1 and
    F(2k) = F(k)(F(k+1) + F(k-1)).
    """
    return _special("fib6", "fib_sixth_closed", n, t)


def lucas_sixth_closed(t: int, n: int) -> int:
    """Sum of L(j+t)^6 for j in 1..n, in the Lucas-only shape.

    [L(n+t)^5 L(n+t+3) - L(t)^5 L(t+3) + 125 (F(2n+2t) - F(2t))] / 4;
    at t = 0 this collapses to (L(n)^5 L(n+3) + 125 F(2n)) / 4 - 32.
    This is sum_sixth_closed at Lucas seeds, as e^2 = 25 and
    5 F(2k) = L(k)(L(k+1) + L(k-1)).
    """
    return _special("lucas6", "lucas_sixth_closed", n, t)


def fib_alt_f5l_closed(n: int) -> int:
    """Alternating sum of (-1)^(j-1) F(j)^5 L(j) for j in 1..n.

    Published closed form with the leading sign corrected to (-1)^n:
    (-1)^n / 2 * F(n)^2 F(n+1)^2 (F(n+1)^2 - F(n) F(n+3)). The printed
    (-1)^(n+1) version contradicts the brute-force sum already at n = 1.
    This is alt_sum_fifth_closed at Fibonacci seeds and shift 0: D(0) = 0.
    """
    return _special("fib_alt_f5l", "fib_alt_f5l_closed", n)


def lucas_alt_l5f_closed(n: int) -> int:
    """Alternating sum of (-1)^(j-1) L(j)^5 F(j) for j in 1..n.

    Sign-corrected closed form
    (-1)^n / 10 * L(n)^2 L(n+1)^2 (L(n+1)^2 - L(n) L(n+3)) + 14/5.
    This is alt_sum_fifth_closed at Lucas seeds and shift 0 over 5, as
    L(j+1) + L(j-1) = 5 F(j), and 14/5 = 28/10 with 28 = -D(0). At n = 0
    the two parts cancel to 0, matching the empty sum.
    """
    return _special("lucas_alt_l5f", "lucas_alt_l5f_closed", n)


def treeby_f3_closed(n: int) -> int:
    """Sum of F(j)^3 F(j+1)^3 for j in 1..n: F(n)^2 F(n+1)^2 F(n+2)^2 / 4."""
    return _special("treeby_f3", "treeby_f3_closed", n)


def treeby_l3_closed(n: int) -> int:
    """Sum of L(j)^3 L(j+1)^3 for j in 1..n: L(n)^2 L(n+1)^2 L(n+2)^2 / 4 - 9.

    This is sum_cubes_product_closed at Lucas seeds and shift 0: 9 = P(0) / 4.
    """
    return _special("treeby_l3", "treeby_l3_closed", n)


def recip_fib_special(n: int) -> Fraction:
    """Sum of 1 / (F(j)^2 F(j+1) F(j+2) F(j+3)^2) for j in 1..n.

    (1/4 - 1/(F(n+1) F(n+2) F(n+3))^2) / 4: recip_sum_closed at Fibonacci
    seeds and shift 1, where 1/4 = 1/P(1) = 1/(F(1) F(2) F(3))^2.
    """
    return _special("recip_fib", "recip_fib_special", n)


def recip_lucas_special(n: int) -> Fraction:
    """Sum of 1 / (L(j)^2 L(j+1) L(j+2) L(j+3)^2) for j in 1..n.

    (1/144 - 1/(L(n+1) L(n+2) L(n+3))^2) / 4: recip_sum_closed at Lucas
    seeds and shift 1, where 1/144 = 1/P(1) = 1/(L(1) L(2) L(3))^2.
    """
    return _special("recip_lucas", "recip_lucas_special", n)
