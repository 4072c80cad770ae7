"""Generalized Fibonacci (gibonacci) sequences over signed indices.

A gibonacci sequence is fixed by two integer seeds (G0, G1), not both zero,
and obeys G(k) = G(k-1) + G(k-2) for every integer k; running the recurrence
backwards, G(k) = G(k+2) - G(k+1), extends it to negative indices. All terms
are exact Python ints, so nothing overflows at any magnitude.

The Fibonacci numbers are the (0, 1) sequence and the Lucas numbers the
(2, 1) sequence. Every other sequence is a linear combination of Fibonacci
terms: G(k) = G1*F(k) + G0*F(k-1), which is what makes O(log|k|) term access
possible, and a run of consecutive terms costs one such pass plus additions.
The pass doubles (F(m), L(m)): one product and one square per bit of |k|;
below |k| = 92 the pair is read from a table built once at import.

A sequence has at most one zero term: if G(a) = 0 then G(k) = G(a+1)*F(k-a),
and F vanishes only at 0. The zero, when there is one, lies within about
log_phi max(|G0|, |G1|) indices of 0, so it is found in O(log|seed|) steps
and an index window of any length is checked against it in O(1).
"""

from __future__ import annotations


class SequenceSpec:
    """Seeds of a gibonacci sequence: the terms at index 0 and 1. Immutable."""

    __slots__ = ("g0", "g1")

    def __init__(self, g0: int, g1: int):
        if g0 == 0 and g1 == 0:
            raise ValueError("invalid seeds (0, 0): at least one seed must be nonzero")
        object.__setattr__(self, "g0", g0)
        object.__setattr__(self, "g1", g1)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self.seeds == other.seeds if type(other) is SequenceSpec else NotImplemented

    def __hash__(self):
        return hash(self.seeds)

    def __repr__(self):
        return f"SequenceSpec(g0={self.g0!r}, g1={self.g1!r})"

    @property
    def seeds(self) -> tuple[int, int]:
        return (self.g0, self.g1)


FIBONACCI = SequenceSpec(0, 1)
LUCAS = SequenceSpec(2, 1)


def _recurrence_terms(bound: int) -> tuple:
    """F(-bound) .. F(bound + 1), by single steps of the recurrence from F(0), F(1)."""
    terms = [0, 1]
    for _ in range(bound):  # one step down, F(k-1) = F(k+1) - F(k), and one up
        terms.insert(0, terms[1] - terms[0])
        terms.append(terms[-1] + terms[-2])
    return tuple(terms)


_SMALL_K = 91  # the largest k whose pair (F(k), F(k+1)) fits a signed 64-bit word
_SMALL_F = _recurrence_terms(_SMALL_K)  # F(k) at k + _SMALL_K


def _fib_pair(k: int, one=1):
    """(F(k), F(k+1)) for any integer k, by fast doubling of (F, L) over |k|.

    F(2m) = F(m) L(m), L(2m) = L(m)^2 - 2(-1)^m: one product and one square
    per bit; F(m+1) = (F(m) + L(m)) / 2 and L(m+1) = (5 F(m) + L(m)) / 2 are
    exact halvings. The terms have the number type of one, 1 or Decimal(1);
    int pairs with |k| <= _SMALL_K are read from a table.
    """
    if type(one) is int and -_SMALL_K <= k <= _SMALL_K:
        return _SMALL_F[k + _SMALL_K], _SMALL_F[k + _SMALL_K + 1]
    fm, lm, odd = one - one, 2 * one, False  # F(m), L(m), m odd; m = 0
    for bit in f"{abs(k):b}":
        fm, lm = fm * lm, lm * lm + (2 if odd else -2)
        odd = bit == "1"
        if odd:
            fm, lm = (fm + lm) // 2, (5 * fm + lm) // 2
    if k < 0:  # F(-m) = (-1)^(m+1) F(m), L(-m) = (-1)^m L(m)
        fm, lm = (fm, -lm) if odd else (-fm, lm)
    return fm, (fm + lm) // 2


def fib(k: int) -> int:
    """The k-th Fibonacci number, any integer k; F(-k) = (-1)^(k+1) F(k)."""
    return _fib_pair(k)[0]


def lucas(k: int) -> int:
    """The k-th Lucas number, any integer k."""
    return term(LUCAS, k)


def term(spec: SequenceSpec, k: int) -> int:
    """Exact term G(k) in O(log|k|) big-integer operations.

    Evaluates G(k) = G1*F(k) + G0*F(k-1) from one _fib_pair call.
    """
    return window(spec, k, 1)[0]


def window(spec: SequenceSpec, m: int, count: int) -> list:
    """The count consecutive terms G(m), ..., G(m+count-1).

    One _fib_pair call gives G(m) and G(m+1); the rest are additions. The
    terms have the seeds' number type: int, or an integer-valued Decimal
    inside render.exact_context(). The list is new on every call.
    """
    fm, fm1 = _fib_pair(m, type(spec.g1)(1))
    terms = [spec.g1 * fm + spec.g0 * (fm1 - fm), spec.g1 * fm1 + spec.g0 * fm]
    while len(terms) < count:
        terms.append(terms[-1] + terms[-2])
    return terms[:count]


def term_naive(spec: SequenceSpec, k: int) -> int:
    """G(k) by |k| single steps of the recurrence; the oracle for term()."""
    a, b = spec.g0, spec.g1
    if k >= 0:
        for _ in range(k):
            a, b = b, a + b
    else:
        for _ in range(-k):
            a, b = b - a, a
    return a


def characteristic_e(spec: SequenceSpec) -> int:
    """The sequence constant e = G0^2 - G1^2 + G0*G1.

    Nonzero for every integer seed pair other than (0, 0); equals -1 for
    Fibonacci and 5 for Lucas.
    """
    return spec.g0 * spec.g0 - spec.g1 * spec.g1 + spec.g0 * spec.g1


def zero_index(spec: SequenceSpec) -> int | None:
    """The index of the sequence's one zero term, or None if it has none.

    If G(a) = 0 then G(k) = G(a+1) F(k-a): the terms above a share one sign,
    the terms below it alternate, and |G| falls toward a from both sides. So
    seeds of one sign can only have the zero below them and seeds of opposite
    signs only above; walk that way from the seeds until a term is zero or
    the sign pattern breaks. The walk takes at most |a| + 1 steps, and
    |a| <= log_phi max(|G0|, |G1|) + 2, over terms no larger than the seeds.
    """
    x, y = spec.g0, spec.g1  # G(k), G(k+1)
    if x == 0:
        return 0
    if y == 0:
        return 1
    if (x > 0) == (y > 0):
        k = 0
        while True:  # down: k is the index of x
            k, x, y = k - 1, y - x, x
            if x == 0:
                return k
            if (x > 0) != (y > 0):
                return None
    k = 1
    while True:  # up: k is the index of y
        k, x, y = k + 1, y, x + y
        if y == 0:
            return k
        if (x > 0) == (y > 0):
            return None


def first_zero_in_window(spec: SequenceSpec, lo: int, hi: int) -> int | None:
    """Smallest index in [lo, hi] whose term is zero, or None.

    The sequence has at most one zero (see zero_index), so this is an
    interval test on its index; an empty window (hi < lo) has no zeros.
    """
    zero = zero_index(spec)
    return zero if zero is not None and lo <= zero <= hi else None


def reciprocal_window(t: int, n: int) -> tuple[int, int]:
    """Inclusive index window touched by the reciprocal summand for (t, n).

    Covers every index used by any summand of the partial sum, in both the
    n >= 0 and the negated n < 0 reading.
    """
    return (t, n + t + 2) if n >= 0 else (n + t, t + 2)
