"""Reference values for every gibsum identity, modulo the prime P = 2^61 - 1.

Nothing here imports gibsum. Partial sums are computed from their summands
(never from a closed form): along a line of n by stepping the recurrence,
and at a single large n by summing the powers of the shift matrix that maps
the degree-d monomials of (G(m), G(m+1)) to those of (G(m+1), G(m+2)).
Zero terms are located exactly, with integer arithmetic.

The program's outputs are decimal strings with up to millions of digits.
`residue` reduces them in fixed-size chunks, so the cost is linear in the
length and CPython's int/str digit limit never applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Optional

P = (1 << 61) - 1

FIB_SEEDS = (0, 1)
LUCAS_SEEDS = (2, 1)


@dataclass(frozen=True)
class Identity:
    """What the benchmark knows about one identity, from the gibsum catalog."""

    id: str
    family: str                       # g2, g6, alt, g3g3 or recip
    function: str                     # public gibsum function name
    seeds: Optional[tuple] = None     # fixed seeds; None = seed-free
    fixed_t: Optional[int] = None     # fixed shift; None = t-free
    min_n: Optional[int] = None       # smallest n in the domain
    scale: tuple = (1, 1)             # closed form = summand sum * num/den


IDENTITIES = {d.id: d for d in (
    Identity("sum_g6", "g6", "sum_sixth_closed"),
    Identity("sum_g2", "g2", "sum_squares_closed"),
    Identity("alt_g5", "alt", "alt_sum_fifth_closed"),
    Identity("sum_g3g3", "g3g3", "sum_cubes_product_closed"),
    Identity("recip", "recip", "recip_sum_closed"),
    Identity("fib6", "g6", "fib_sixth_closed", seeds=FIB_SEEDS),
    Identity("lucas6", "g6", "lucas_sixth_closed", seeds=LUCAS_SEEDS),
    Identity("fib_alt_f5l", "alt", "fib_alt_f5l_closed", FIB_SEEDS, 0, 0),
    # L(j+1) + L(j-1) = 5 F(j), so the summand sum is five times the identity
    Identity("lucas_alt_l5f", "alt", "lucas_alt_l5f_closed", LUCAS_SEEDS, 0, 0, (1, 5)),
    Identity("treeby_f3", "g3g3", "treeby_f3_closed", FIB_SEEDS, 0, 0),
    Identity("treeby_l3", "g3g3", "treeby_l3_closed", LUCAS_SEEDS, 0, 0),
    Identity("recip_fib", "recip", "recip_fib_special", FIB_SEEDS, 1, 1),
    Identity("recip_lucas", "recip", "recip_lucas_special", LUCAS_SEEDS, 1, 1),
)}

def effective(identity: str, g0: int, g1: int, t: int) -> tuple[int, int, int]:
    """Seeds and shift an identity actually uses: its fixed ones where it has them."""
    d = IDENTITIES[identity]
    if d.seeds is not None:
        g0, g1 = d.seeds
    if d.fixed_t is not None:
        t = d.fixed_t
    return g0, g1, t


# ---------------------------------------------------------------------------
# exact zero location


def zero_index(g0: int, g1: int) -> Optional[int]:
    """The index of the only zero term of the sequence, or None.

    If G(a) = 0 then G(k) = G(a+1) F(k-a) for every k, so there is at most
    one zero, and (g0, g1) = G(a+1) (F(-a), F(1-a)) gives
    max(|g0|, |g1|) >= |F(|a| - 1)| >= phi^(|a| - 3). Hence |a| is below
    1.45 * bit_length + 3, and an exact walk over that range finds it.
    """
    reach = 2 * max(abs(g0), abs(g1)).bit_length() + 4
    a, b = g0, g1
    for k in range(0, reach + 1):  # forward: a = G(k)
        if a == 0:
            return k
        a, b = b, a + b
    a, b = g0, g1
    for k in range(0, -reach - 1, -1):  # backward: a = G(k)
        if a == 0:
            return k
        a, b = b - a, a
    return None


def recip_window(t: int, n: int) -> tuple[int, int]:
    """Indices a reciprocal sum touches: its summands and the anchor [t, t+2]."""
    return (t, n + t + 2) if n >= 0 else (n + t, t + 2)


def first_zero(identity: str, g0: int, g1: int, t: int, n: int) -> Optional[int]:
    """Zero index inside the touched window of a reciprocal identity, or None."""
    if IDENTITIES[identity].family != "recip":
        return None
    g0, g1, t = effective(identity, g0, g1, t)
    a = zero_index(g0, g1)
    lo, hi = recip_window(t, n)
    return a if a is not None and lo <= a <= hi else None


# ---------------------------------------------------------------------------
# terms and partial sums mod P


def term_pair(g0: int, g1: int, m: int) -> tuple[int, int]:
    """(G(m), G(m+1)) mod P for any integer m, by powering the step matrix."""
    # (a, b) -> (b, a + b) forward, (a, b) -> (b - a, a) backward
    step = [[0, 1], [1, 1]] if m >= 0 else [[P - 1, 1], [1, 0]]
    acc = [[1, 0], [0, 1]]
    k = abs(m)
    while k:
        if k & 1:
            acc = _mat_mul(step, acc)
        step = _mat_mul(step, step)
        k >>= 1
    (a00, a01), (a10, a11) = acc
    a, b = g0 % P, g1 % P
    return (a00 * a + a01 * b) % P, (a10 * a + a11 * b) % P


def _summand(family: str, w: tuple) -> tuple[int, int]:
    """Unsigned summand at m as (numerator, denominator); w = G(m-1..m+2) mod P."""
    gm1, g, g1, g2 = w
    if family == "g6":
        return pow(g, 6, P), 1
    if family == "g2":
        return g * g % P, 1
    if family == "alt":
        return pow(g, 5, P) * (g1 + gm1) % P, 1
    if family == "g3g3":
        return pow(g * g1 % P, 3, P), 1
    return 1, gm1 * gm1 % P * g % P * g1 % P * g2 % P * g2 % P  # recip


def inverse(x: int) -> int:
    x %= P
    if x == 0:
        raise ZeroDivisionError("value is 0 mod P; no residue check possible")
    return pow(x, P - 2, P)


def line_sums(identity: str, g0: int, g1: int, t: int, ns: Iterable[int]) -> dict:
    """S(n) mod P for every requested n, from one walk over the summands.

    Uses S(0) = 0 and S(n) - S(n-1) = s_n f(n + t), which covers negative n.
    Reciprocal sums are kept as one fraction and inverted only where asked.
    Raises ZeroDivisionError in the (never observed) case that a term of a
    zero-free window is divisible by P.
    """
    d = IDENTITIES[identity]
    g0, g1, t = effective(identity, g0, g1, t)
    want = set(ns)
    lo, hi = min(min(want), 0), max(max(want), 0)
    alt = d.family == "alt"
    out = {}
    # forward from 0: S(n) = S(n-1) + s_n f(n+t); backward: S(n-1) = S(n) - s_n f(n+t)
    for direction, first, last in ((1, 1, hi), (-1, 0, lo + 1)):
        num, den = 0, 1
        if direction > 0 and 0 in want:
            out[0] = 0
        a, b = term_pair(g0, g1, first + t - 1)
        w = [a, b, (a + b) % P, (a + 2 * b) % P]
        for j in range(first, last + direction, direction):
            fn, fd = _summand(d.family, w)
            if alt and j % 2 == 0:
                fn = P - fn
            if direction < 0:
                fn = P - fn
            num, den = (num * fd + fn * den) % P, den * fd % P
            n = j if direction > 0 else j - 1
            if n in want:
                out[n] = num * inverse(den) % P
            if direction > 0:
                w = [w[1], w[2], w[3], (w[2] + w[3]) % P]
            else:
                w = [(w[1] - w[0]) % P, w[0], w[1], w[2]]
    return {n: _scaled(d, v) for n, v in out.items()}


def _scaled(d: Identity, v: int) -> int:
    return v * d.scale[0] % P * inverse(d.scale[1]) % P


_FUNCTIONAL = {
    # summand as coefficients of x^a y^(d-a), x = G(m), y = G(m+1), G(m-1) = y - x
    "g2": (2, {2: 1}),
    "g6": (6, {6: 1}),
    "g3g3": (6, {3: 1}),
    "alt": (6, {5: 2, 6: P - 1}),  # x^5 (2y - x)
}


def _mat_mul(x, y):
    cols = list(zip(*y))
    return [[sum(a * b for a, b in zip(row, col)) % P for col in cols] for row in x]


def _mat_add(x, y):
    return [[(a + b) % P for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def _power_sum(shift, k: int):
    """shift^1 + ... + shift^k mod P, by binary splitting."""
    size = len(shift)
    power = [[int(i == j) for j in range(size)] for i in range(size)]
    total = [[0] * size for _ in range(size)]
    for bit in bin(k)[2:]:
        total = _mat_add(total, _mat_mul(total, power))  # S_2m = S_m + A^m S_m
        power = _mat_mul(power, power)
        if bit == "1":
            power = _mat_mul(power, shift)
            total = _mat_add(total, power)
    return total


def point_sum(identity: str, g0: int, g1: int, t: int, n: int) -> int:
    """S(n) mod P at one n in O(log |n|) steps; reciprocal sums walk the line."""
    d = IDENTITIES[identity]
    if d.family == "recip":
        return line_sums(identity, g0, g1, t, (n,))[n]
    if n == 0:
        return 0
    g0, g1, t = effective(identity, g0, g1, t)
    deg, coeffs = _FUNCTIONAL[d.family]
    alt = d.family == "alt"
    sign = 1
    if n < 0:
        # S(n) = -sum_{i=1}^{|n|} s_{n+i} f(n+i+t), and s_{n+i} = (-1)^n s_i
        t, sign = t + n, (-1 if (alt and n % 2) else 1) * -1
        n = -n
    # f(m+1) = sum_a c_a y^a (x+y)^(d-a): the functional moves by shift[a][i] = C(d-a, i)
    shift = [[comb(deg - a, i) % P for i in range(deg + 1)] for a in range(deg + 1)]
    if alt:  # s_j = (-1)^(j-1) = -(-1)^j
        shift = [[(P - v) % P for v in row] for row in shift]
        sign = -sign
    x, y = term_pair(g0, g1, t)
    monomials = [pow(x, a, P) * pow(y, deg - a, P) % P for a in range(deg + 1)]
    total = _power_sum(shift, n)
    value = 0
    for a, c in coeffs.items():
        value += c * sum(total[a][i] * monomials[i] for i in range(deg + 1))
    return _scaled(d, sign * value % P)


# ---------------------------------------------------------------------------
# reading the program's output


_CHUNK = 256
_CHUNK_BASE = pow(10, _CHUNK, P)


def residue(text: str) -> int:
    """A decimal integer string reduced mod P, in linear time.

    Raises ValueError on anything but an optional '-' and ASCII digits.
    """
    digits = text[1:] if text.startswith("-") else text
    if not digits or not digits.isascii() or not digits.isdigit():
        raise ValueError(f"not a decimal integer: {text[:40]!r}")
    head = len(digits) % _CHUNK or _CHUNK
    r = int(digits[:head]) % P
    for i in range(head, len(digits), _CHUNK):
        r = (r * _CHUNK_BASE + int(digits[i:i + _CHUNK])) % P
    return (P - r) % P if text.startswith("-") else r


def value_residue(text: str) -> int:
    """A rendered exact value ("p" or "p/q") reduced mod P."""
    num, sep, den = text.partition("/")
    if not sep:
        return residue(num)
    return residue(num) * inverse(residue(den)) % P
