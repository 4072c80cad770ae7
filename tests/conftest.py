"""Shared grid constants and reference helpers for the test suite."""

import sys
from contextlib import contextmanager

from gibsum.sequences import term

# the six seed pairs every full-grid check runs over
GRID_SEEDS = ((0, 1), (2, 1), (1, 1), (3, 1), (-2, 5), (3, -4))

# narrower grids for the telescoping suite
TELESCOPE_SEEDS = ((0, 1), (2, 1), (3, 1))
TELESCOPE_SHIFTS = (-3, 0, 4)

FULL_T_RANGE = (-8, 8)
FULL_N_RANGE = (0, 40)


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
