"""Integers as decimal text, in subquadratic time and under no digit cap.

str() of an int takes time quadratic in its length on CPython before 3.12,
and refuses values over sys.get_int_max_str_digits() digits (4300 by
default). decimal_text() returns the same text without either limit: str()
below STR_CUTOFF_BITS, and above it a divide-and-conquer conversion through
the decimal module (libmpdec), the algorithm CPython 3.12 adopted in
Lib/_pylong.py. decimal is imported on that path only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from decimal import Decimal

# str() costs about the same as the split at this size, and a value of at
# most this many bits has at most 3613 digits, under CPython's default cap.
STR_CUTOFF_BITS = 12_000

# halves of at most this many bits convert to Decimal directly
_LEAF_BITS = 1024


def decimal_text(n: int) -> str:
    """The decimal text of n, byte-identical to str(n)."""
    if n.bit_length() <= STR_CUTOFF_BITS:
        return str(n)
    import decimal

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        # the powers of two are kept for this call only
        value = _to_decimal(abs(n), n.bit_length(), {}, decimal.Decimal)
        text = str(value)
    return "-" + text if n < 0 else text


def _to_decimal(m: int, w: int, powers: dict[int, Decimal], D: type[Decimal]) -> Decimal:
    """m >= 0, of at most w bits, as an exact Decimal."""
    if w <= _LEAF_BITS:
        return D(m)
    h = w >> 1
    hi = m >> h
    lo = _to_decimal(m - (hi << h), h, powers, D)
    return lo + _to_decimal(hi, w - h, powers, D) * _power_of_two(h, powers, D)


def _power_of_two(w: int, powers: dict[int, Decimal], D: type[Decimal]) -> Decimal:
    """2**w as a Decimal, built from and kept in powers."""
    result = powers.get(w)
    if result is None:
        if w <= _LEAF_BITS:
            result = D(1 << w)
        elif w - 1 in powers:
            result = powers[w - 1] + powers[w - 1]
        else:
            # the smaller half first, so an odd w's larger half is one
            # doubling of a power already kept
            h = w >> 1
            result = _power_of_two(h, powers, D) * _power_of_two(w - h, powers, D)
        powers[w] = result
    return result
