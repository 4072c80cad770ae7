"""Shared grid constants and reference helpers for the test suite."""

import sys
from contextlib import contextmanager

from gibsum.sequences import term

# the six seed pairs every full-grid check runs over
GRID_SEEDS = ((0, 1), (2, 1), (1, 1), (3, 1), (-2, 5), (3, -4))

FULL_T_RANGE = (-8, 8)
FULL_N_RANGE = (0, 40)


# the five general forms, one per summand family, and the side of the seed
# grid that proves each
GENERAL_FORMS = {"sum_g2": 7, "sum_g6": 7, "alt_g5": 7, "sum_g3g3": 7, "recip": 13}


# the one-index point identities at r: id -> (left side, right side) from
# g = G(r-2) .. G(r+2), keyed -2 .. 2, and se = (-1)^r e
ONE_INDEX = {
    "vajda28": lambda g, se: (g[0] * g[2], g[1] ** 2 + se),
    "catalan_shift2": lambda g, se: (g[-2] * g[2], g[0] ** 2 + se),
    "doubling_sub": lambda g, se: (g[2] - g[-1], 2 * g[0]),
    "doubling_add": lambda g, se: (g[2] + g[-1], 2 * g[1]),
    "square_window_sum": lambda g, se: ((g[0] * g[1] * g[2]) ** 2 + (g[-1] * g[0] * g[1]) ** 2,
                                        2 * g[0] ** 4 * g[1] ** 2 + 2 * g[1] ** 4 * g[0] ** 2),
    "square_window_diff": lambda g, se: ((g[0] * g[1] * g[2]) ** 2 - (g[-1] * g[0] * g[1]) ** 2,
                                         4 * g[0] ** 3 * g[1] ** 3),
}


def seed_grid(side):
    """Every seed pair (a, b) with 1 <= a, b <= side."""
    return tuple((a, b) for a in range(1, side + 1) for b in range(1, side + 1))


def scan_first_zero(spec, lo, hi):
    """Smallest index in [lo, hi] whose term is zero, or None.

    The ground truth for the zero locator: walks the whole window with
    single recurrence steps, so it costs O(hi - lo) big-int additions.
    """
    if hi < lo:
        return None
    a, b = term(spec, lo), term(spec, lo + 1)
    for idx in range(lo, hi + 1):
        if a == 0:
            return idx
        a, b = b, a + b
    return None


@contextmanager
def unlimited_int_str():
    """Lift CPython's int/str digit cap inside the block, then restore it.

    gibsum leaves the cap alone, so str() as the reference for huge values
    needs it lifted locally.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.11: no cap
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)
