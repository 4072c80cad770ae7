"""Brute-force term-by-term summation, the ground truth for every identity.

Sums are accumulated one summand at a time over a sliding window of
consecutive sequence terms, so a length-n sum costs O(n) big-integer
operations. Nothing here consults a closed form; the only shared code is
term() from the sequences module, which is itself cross-checked against
the single-step recurrence.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import ZeroTermError
from .sequences import SequenceSpec, term


class SummandKind(enum.Enum):
    """The five summand families, keyed by the shape of the j-th summand."""

    SIXTH_POWER = "g6"             # G(j+t)^6
    SQUARE = "g2"                  # G(j+t)^2
    ALT_FIFTH_NEIGHBOR = "alt_g5"  # (-1)^(j-1) G(j+t)^5 (G(j+t+1) + G(j+t-1))
    CUBE_PRODUCT = "g3g3"          # G(j+t)^3 G(j+t+1)^3
    RECIPROCAL_WINDOW = "recip"    # 1 / (G(j+t-1)^2 G(j+t) G(j+t+1) G(j+t+2)^2)


# stored terms G(j+t+lo) .. G(j+t+hi); hi >= lo+1 so the window can slide
_WINDOW_OFFSETS = {
    SummandKind.SIXTH_POWER: (0, 1),
    SummandKind.SQUARE: (0, 1),
    SummandKind.ALT_FIFTH_NEIGHBOR: (-1, 1),
    SummandKind.CUBE_PRODUCT: (0, 1),
    SummandKind.RECIPROCAL_WINDOW: (-1, 2),
}


def _summand(kind: SummandKind, window: list[int], j: int):
    """The j-th summand from window = [G(j+t+lo), ..., G(j+t+hi)]."""
    if kind is SummandKind.SIXTH_POWER:
        return window[0] ** 6
    if kind is SummandKind.SQUARE:
        return window[0] ** 2
    if kind is SummandKind.ALT_FIFTH_NEIGHBOR:
        sign = 1 if j % 2 else -1  # (-1)^(j-1)
        return sign * window[1] ** 5 * (window[2] + window[0])
    if kind is SummandKind.CUBE_PRODUCT:
        return window[0] ** 3 * window[1] ** 3
    if kind is SummandKind.RECIPROCAL_WINDOW:
        den = window[0] ** 2 * window[1] * window[2] * window[3] ** 2
        return Fraction(1, den)
    raise TypeError(f"unknown summand kind: {kind!r}")


def oracle_term(kind: SummandKind, spec: SequenceSpec, t: int, j: int) -> Fraction:
    """The j-th summand of the given family, as an exact rational."""
    m = j + t
    lo, hi = _WINDOW_OFFSETS[kind]
    window = [term(spec, m + off) for off in range(lo, hi + 1)]
    if kind is SummandKind.RECIPROCAL_WINDOW and 0 in window:
        raise ZeroTermError(m + lo + window.index(0), spec.seeds)
    return Fraction(_summand(kind, window, j))


def oracle_sum(kind: SummandKind, spec: SequenceSpec, t: int, n: int) -> Fraction:
    """Term-by-term sum of the family over j in 1..n, as an exact rational.

    Follows the shared partial-sum convention: empty at n = 0, and the
    negated sum over j in n+1..0 for n < 0. For the reciprocal family each
    term is checked for zero as the window slides upward, and the first
    zero index is reported. Even the empty sum touches G(t)..G(t+2).
    """
    if n >= 0:
        start, count, negate = 1, n, False
    else:
        start, count, negate = n + 1, -n, True
    off_lo, off_hi = _WINDOW_OFFSETS[kind]
    window = [term(spec, start + t + off) for off in range(off_lo, off_hi + 1)]
    recip = kind is SummandKind.RECIPROCAL_WINDOW
    if recip and 0 in window[:-1]:
        raise ZeroTermError(start + t + off_lo + window.index(0), spec.seeds)
    total = Fraction(0) if recip else 0
    for j in range(start, start + count):
        if recip and window[-1] == 0:
            raise ZeroTermError(j + t + off_hi, spec.seeds)
        total += _summand(kind, window, j)
        window.append(window[-1] + window[-2])
        window.pop(0)
    if negate:
        total = -total
    return Fraction(total)
