"""Exact integers as decimal text and as Decimals, in subquadratic time.

str() of an int takes time quadratic in its length on CPython before 3.12,
and refuses values over sys.get_int_max_str_digits() digits (4300 by
default); Decimal(int) is quadratic too. to_decimal() converts by divide
and conquer through the decimal module (libmpdec), the algorithm CPython
3.12 adopted in Lib/_pylong.py, and decimal_text() is str() below
STR_CUTOFF_BITS and the text of that conversion above it. exact_context()
is the decimal context in which integer +, -, * and ** never round, for
callers that compute in decimal from the start.
"""

from __future__ import annotations

# decimal loads on the first to_decimal() or exact_context() call: str() needs none of it

# str() costs about the same as the split at this size, and a value of at
# most this many bits has at most 3613 digits, under CPython's default cap.
STR_CUTOFF_BITS = 12_000

# halves of at most this many bits convert to Decimal directly
_LEAF_BITS = 1024

_EXACT = None  # exact_context()'s decimal context, built on its first call


def exact_context():
    """A localcontext in which Decimal arithmetic on integers is exact."""
    global _EXACT
    import decimal

    if _EXACT is None:
        # the default traps plus Inexact: a result that would need rounding raises
        _EXACT = decimal.Context(
            prec=decimal.MAX_PREC,
            Emax=decimal.MAX_EMAX,
            Emin=decimal.MIN_EMIN,
            traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow,
                   decimal.Inexact],
        )
    return decimal.localcontext(_EXACT)


def to_decimal(n: int) -> Decimal:
    """n as an exact Decimal, in subquadratic time."""
    with exact_context():
        # the powers of two are kept for this call only
        value = _to_decimal(abs(n), n.bit_length(), {})
    return value.copy_negate() if n < 0 else value


def decimal_text(n: int) -> str:
    """The decimal text of n, byte-identical to str(n)."""
    if n.bit_length() <= STR_CUTOFF_BITS:
        return str(n)
    return str(to_decimal(n))


def integer_text(value: Decimal) -> str:
    """The text of an integer-valued Decimal of exponent 0, as decimal_text gives it.

    Decimal keeps the sign of zero (Decimal('-0') - Decimal('0') is -0),
    and an int zero has none.
    """
    return str(value) if value else "0"


def _to_decimal(m: int, w: int, powers: dict[int, Decimal]) -> Decimal:
    """m >= 0, of at most w bits, as an exact Decimal."""
    if w <= _LEAF_BITS:
        import decimal
        return decimal.Decimal(m)
    h = w >> 1
    hi = m >> h
    lo = _to_decimal(m - (hi << h), h, powers)
    return lo + _to_decimal(hi, w - h, powers) * _power_of_two(h, powers)


def _power_of_two(w: int, powers: dict[int, Decimal]) -> Decimal:
    """2**w as a Decimal, built from and kept in powers."""
    result = powers.get(w)
    if result is None:
        if w <= _LEAF_BITS:
            import decimal
            result = decimal.Decimal(1 << w)
        elif w - 1 in powers:
            result = powers[w - 1] + powers[w - 1]
        else:
            # the smaller half first, so an odd w's larger half is one
            # doubling of a power already kept
            h = w >> 1
            result = _power_of_two(h, powers) * _power_of_two(w - h, powers)
        powers[w] = result
    return result
