"""Brute-force term-by-term summation, the ground truth for every identity.

Each sum is accumulated one summand at a time over a sliding window of
consecutive terms, and is an int, or a Fraction for the reciprocal family,
or the ZeroTermError where that family is undefined. oracle_walk() yields
every partial sum of a line n_lo..n_hi from one walk, so the whole line
costs O(|n_lo| + |n_hi|) summands rather than O(|n|) per point; oracle_sum()
is its one-point case. Nothing here consults a closed form; the only shared
code is window() from the sequences module, one fast-doubling pass for a run
of consecutive terms, itself cross-checked against the single-step recurrence.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import ZeroTermError
from .sequences import SequenceSpec, window


class SummandKind(enum.Enum):
    """The five summand families, keyed by the shape of the j-th summand."""

    SIXTH_POWER = "g6"             # G(j+t)^6
    SQUARE = "g2"                  # G(j+t)^2
    ALT_FIFTH_NEIGHBOR = "alt_g5"  # (-1)^(j-1) G(j+t)^5 (G(j+t+1) + G(j+t-1))
    CUBE_PRODUCT = "g3g3"          # G(j+t)^3 G(j+t+1)^3
    RECIPROCAL_WINDOW = "recip"    # 1 / (G(j+t-1)^2 G(j+t) G(j+t+1) G(j+t+2)^2)


# per family: the stored terms G(j+t+lo) .. G(j+t+hi), hi >= lo+1 so the
# window can slide, and the j-th summand from that window
_SUMMANDS = {
    SummandKind.SIXTH_POWER: (0, 1, lambda w, j: w[0] ** 6),
    SummandKind.SQUARE: (0, 1, lambda w, j: w[0] ** 2),
    SummandKind.ALT_FIFTH_NEIGHBOR: (
        -1, 1, lambda w, j: (1 if j % 2 else -1) * w[1] ** 5 * (w[2] + w[0])  # (-1)^(j-1)
    ),
    SummandKind.CUBE_PRODUCT: (0, 1, lambda w, j: w[0] ** 3 * w[1] ** 3),
    SummandKind.RECIPROCAL_WINDOW: (
        -1, 2, lambda w, j: Fraction(1, w[0] ** 2 * w[1] * w[2] * w[3] ** 2)
    ),
}


def oracle_term(kind: SummandKind, spec: SequenceSpec, t: int, j: int) -> int | Fraction:
    """The j-th summand of the given family: an int, or a Fraction for recip."""
    m = j + t
    lo, hi, summand = _SUMMANDS[kind]
    terms = window(spec, m + lo, hi - lo + 1)
    if kind is SummandKind.RECIPROCAL_WINDOW and 0 in terms:
        raise ZeroTermError(m + lo + terms.index(0), spec.seeds)
    return summand(terms, j)


def oracle_walk(
    kind: SummandKind, spec: SequenceSpec, t: int, n_lo: int, n_hi: int
) -> list[int | Fraction | ZeroTermError]:
    """S(n) for every n in n_lo..n_hi, in order: an int, or a Fraction for
    recip, or the ZeroTermError where the reciprocal family touches a zero
    term ([t, n+t+2] for n >= 0, [n+t, t+2] for n < 0).

    One walk up from j = 1 covers n >= 0, one walk down from j = 0 covers
    n < 0 by S(n-1) = S(n) - summand(n): O(|n_lo| + |n_hi|) summands.
    """
    off_lo, off_hi, summand = _SUMMANDS[kind]
    recip = kind is SummandKind.RECIPROCAL_WINDOW
    up, down = [], []
    if n_hi >= 0:
        # window at j = 1; S(0) touches all of it but the last term
        terms = window(spec, 1 + t + off_lo, off_hi - off_lo + 1)
        total = 0
        if recip and 0 in terms[:-1]:
            total = ZeroTermError(1 + t + off_lo + terms.index(0), spec.seeds)
        if n_lo <= 0:
            up.append(total)
        for j in range(1, n_hi + 1):
            if recip and terms[-1] == 0:
                total = ZeroTermError(j + t + off_hi, spec.seeds)
            if not isinstance(total, ZeroTermError):
                total += summand(terms, j)
            if j >= n_lo:
                up.append(total)
            terms.append(terms[-1] + terms[-2])
            terms.pop(0)
    if n_lo < 0:
        # window at j = 0; S(0) touches all of it but the first term
        terms = window(spec, t + off_lo, off_hi - off_lo + 1)
        total = 0
        if recip and 0 in terms[1:]:
            total = ZeroTermError(t + off_lo + terms.index(0, 1), spec.seeds)
        for j in range(0, n_lo, -1):  # summand j turns S(j) into S(j-1)
            if recip and terms[0] == 0:
                total = ZeroTermError(j + t + off_lo, spec.seeds)
            if not isinstance(total, ZeroTermError):
                total -= summand(terms, j)
            if j - 1 <= n_hi:
                down.append(total)
            terms.insert(0, terms[1] - terms[0])
            terms.pop()
    return down[::-1] + up


def oracle_sum(kind: SummandKind, spec: SequenceSpec, t: int, n: int) -> int | Fraction:
    """Term-by-term sum of the family over j in 1..n: an int, or a Fraction for recip.

    Follows the shared partial-sum convention: empty at n = 0, and the
    negated sum over j in n+1..0 for n < 0. For the reciprocal family a
    zero term anywhere in the touched window raises the ZeroTermError
    naming the smallest such index.
    """
    (outcome,) = oracle_walk(kind, spec, t, n, n)
    if isinstance(outcome, ZeroTermError):
        raise outcome
    return outcome
