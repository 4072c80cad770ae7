"""Brute-force oracle: spot values, an even dumber re-summation, line walks, telescoping."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import GRID_SEEDS
from gibsum import (
    SequenceSpec,
    SummandKind,
    ZeroTermError,
    first_zero_in_window,
    oracle_sum,
    oracle_term,
    recip_sum_closed,
    reciprocal_window,
    term_naive,
)
from gibsum.oracle import oracle_walk

F = SequenceSpec(0, 1)
L = SequenceSpec(2, 1)

ALL_KINDS = tuple(SummandKind)


def naive_summand(kind, spec, t, j):
    """The j-th summand built from term_naive only; independent of oracle.py."""
    g = lambda k: term_naive(spec, k)  # noqa: E731
    m = j + t
    if kind is SummandKind.SIXTH_POWER:
        return Fraction(g(m) ** 6)
    if kind is SummandKind.SQUARE:
        return Fraction(g(m) ** 2)
    if kind is SummandKind.ALT_FIFTH_NEIGHBOR:
        sign = 1 if (j - 1) % 2 == 0 else -1
        return Fraction(sign * g(m) ** 5 * (g(m + 1) + g(m - 1)))
    if kind is SummandKind.CUBE_PRODUCT:
        return Fraction(g(m) ** 3 * g(m + 1) ** 3)
    if kind is SummandKind.RECIPROCAL_WINDOW:
        return Fraction(1, g(m - 1) ** 2 * g(m) * g(m + 1) * g(m + 2) ** 2)
    raise AssertionError(kind)


def naive_partial_sum(kind, spec, t, n):
    if n >= 0:
        return sum(naive_summand(kind, spec, t, j) for j in range(1, n + 1))
    return -sum(naive_summand(kind, spec, t, j) for j in range(n + 1, 1))


class TestSpotValues:
    def test_sums(self):
        assert oracle_sum(SummandKind.SIXTH_POWER, F, 0, 5) == 16420
        assert oracle_sum(SummandKind.ALT_FIFTH_NEIGHBOR, F, 0, 2) == -2
        assert oracle_sum(SummandKind.SQUARE, L, 0, 0) == 0

    def test_terms(self):
        assert oracle_term(SummandKind.SIXTH_POWER, F, 0, 5) == 15625
        assert oracle_term(SummandKind.CUBE_PRODUCT, F, 0, 1) == 1
        assert oracle_term(SummandKind.RECIPROCAL_WINDOW, F, 1, 1) == Fraction(1, 18)

    def test_alternating_signs(self):
        # (-1)^(j-1): positive at odd j, negative at even j, on both sides of 0
        for j in (-3, -1, 1, 5):
            assert oracle_term(SummandKind.ALT_FIFTH_NEIGHBOR, L, 0, j) == naive_summand(
                SummandKind.ALT_FIFTH_NEIGHBOR, L, 0, j
            )
        assert oracle_term(SummandKind.ALT_FIFTH_NEIGHBOR, L, 0, 2) < 0
        assert oracle_term(SummandKind.ALT_FIFTH_NEIGHBOR, L, 0, 1) > 0


class TestAgainstNaiveResummation:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("seeds", GRID_SEEDS)
    def test_sliding_window_matches_per_term_rebuild(self, kind, seeds):
        spec = SequenceSpec(*seeds)
        for t in (-4, 0, 3):
            for n in range(-6, 13):
                if kind is SummandKind.RECIPROCAL_WINDOW:
                    lo, hi = reciprocal_window(t, n)
                    if first_zero_in_window(spec, lo, hi) is not None:
                        with pytest.raises(ZeroTermError):
                            oracle_sum(kind, spec, t, n)
                        continue
                assert oracle_sum(kind, spec, t, n) == naive_partial_sum(kind, spec, t, n)

    @settings(max_examples=60)
    @given(
        kind=st.sampled_from([k for k in ALL_KINDS if k is not SummandKind.RECIPROCAL_WINDOW]),
        g0=st.integers(min_value=-9, max_value=9),
        g1=st.integers(min_value=-9, max_value=9),
        t=st.integers(min_value=-10, max_value=10),
        n=st.integers(min_value=-15, max_value=15),
    )
    def test_random_points(self, kind, g0, g1, t, n):
        if (g0, g1) == (0, 0):
            g1 = 1
        spec = SequenceSpec(g0, g1)
        assert oracle_sum(kind, spec, t, n) == naive_partial_sum(kind, spec, t, n)


# positive, negative, crossing 0, and single points on either side
WALK_LINES = ((3, 14), (-14, -3), (-9, 11), (5, 5), (-4, -4), (0, 0))
# zero terms at indices 2, 3 and 4; (3, 1) and (3, -4) have none
WALK_SEEDS = ((1, -1), (2, -1), (-3, 2), (3, 1), (3, -4))


class TestWalk:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("line", WALK_LINES)
    def test_every_point_matches_naive_sum(self, kind, line):
        ns = range(line[0], line[1] + 1)
        for seeds in WALK_SEEDS:
            spec = SequenceSpec(*seeds)
            for t in (-8, -1, 0, 5):
                outcomes = oracle_walk(kind, spec, t, *line)
                assert len(outcomes) == len(ns)
                for n, outcome in zip(ns, outcomes):
                    zero = None
                    if kind is SummandKind.RECIPROCAL_WINDOW:
                        zero = first_zero_in_window(spec, *reciprocal_window(t, n))
                    if zero is not None:
                        assert isinstance(outcome, ZeroTermError), (seeds, t, n)
                        assert outcome.index == zero, (seeds, t, n)
                    else:
                        assert not isinstance(outcome, ZeroTermError), (seeds, t, n)
                        assert outcome == naive_partial_sum(kind, spec, t, n), (seeds, t, n)


class TestValueContract:
    """An outcome is an int, a Fraction for recip, or the ZeroTermError itself."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("line", WALK_LINES)
    def test_sums_are_ints_but_recip(self, kind, line):
        for seeds in WALK_SEEDS:
            spec = SequenceSpec(*seeds)
            for t in (-8, -1, 0, 5):
                outcomes = oracle_walk(kind, spec, t, *line)
                for n, outcome in zip(range(line[0], line[1] + 1), outcomes):
                    if isinstance(outcome, ZeroTermError):
                        continue
                    if kind is SummandKind.RECIPROCAL_WINDOW and n != 0:
                        assert type(outcome) is Fraction, (seeds, t, n)
                    else:
                        assert type(outcome) is int, (seeds, t, n)

    @pytest.mark.parametrize("line", WALK_LINES)
    def test_error_is_the_closed_forms_error(self, line):
        kind = SummandKind.RECIPROCAL_WINDOW
        errors = 0
        for seeds in WALK_SEEDS:
            spec = SequenceSpec(*seeds)
            for t in (-8, -1, 0, 5):
                outcomes = oracle_walk(kind, spec, t, *line)
                for n, outcome in zip(range(line[0], line[1] + 1), outcomes):
                    zero = first_zero_in_window(spec, *reciprocal_window(t, n))
                    if zero is None:
                        assert not isinstance(outcome, ZeroTermError), (seeds, t, n)
                        continue
                    errors += 1
                    assert type(outcome) is ZeroTermError, (seeds, t, n)
                    assert (outcome.index, outcome.seeds) == (zero, spec.seeds), (seeds, t, n)
                    with pytest.raises(ZeroTermError) as closed:
                        recip_sum_closed(spec, t, n)
                    with pytest.raises(ZeroTermError) as summed:
                        oracle_sum(kind, spec, t, n)
                    assert str(outcome) == str(closed.value) == str(summed.value), (seeds, t, n)
        assert errors > 0


class TestTelescoping:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sum_differences_are_terms(self, kind):
        spec = SequenceSpec(3, 1)  # no zero terms anywhere
        for t in (-3, 0, 4):
            for n in range(-20, 21):
                lhs = oracle_sum(kind, spec, t, n) - oracle_sum(kind, spec, t, n - 1)
                assert lhs == oracle_term(kind, spec, t, n)


class TestZeroPolicy:
    def test_sum_scans_whole_window(self):
        with pytest.raises(ZeroTermError) as exc:
            oracle_sum(SummandKind.RECIPROCAL_WINDOW, F, 0, 3)
        assert exc.value.index == 0
        assert "index 0" in str(exc.value)

    def test_sum_scans_backward_window(self):
        with pytest.raises(ZeroTermError) as exc:
            oracle_sum(SummandKind.RECIPROCAL_WINDOW, F, 3, -4)
        assert exc.value.index == 0

    def test_term_scans_its_own_window(self):
        with pytest.raises(ZeroTermError) as exc:
            oracle_term(SummandKind.RECIPROCAL_WINDOW, F, 3, -2)
        assert exc.value.index == 0

    def test_term_ok_when_zero_outside_its_window(self):
        # index 0 is zero, but the summand at j = 3, t = 0 only touches 2..5
        value = oracle_term(SummandKind.RECIPROCAL_WINDOW, F, 0, 3)
        assert value == Fraction(1, 1 * 2 * 3 * 25)

    def test_empty_sum_with_zero_in_anchor_window_still_raises(self):
        # the n = 0 window [t, t+2] is part of the contract even though the
        # sum itself is empty
        with pytest.raises(ZeroTermError):
            oracle_sum(SummandKind.RECIPROCAL_WINDOW, F, 0, 0)

    def test_empty_sum_touches_only_the_anchor_window(self):
        # seeds (2, -1) give G(3) = 0: outside [0, 2] for n = 0, inside for n = 1
        spec = SequenceSpec(2, -1)
        assert oracle_sum(SummandKind.RECIPROCAL_WINDOW, spec, 0, 0) == 0
        with pytest.raises(ZeroTermError) as exc:
            oracle_sum(SummandKind.RECIPROCAL_WINDOW, spec, 0, 1)
        assert exc.value.index == 3

    def test_zero_index_matches_locator(self):
        # the oracle finds zeros on its own walk; the sequences locator is
        # the reference for which index it must name
        kind = SummandKind.RECIPROCAL_WINDOW
        for g0 in range(-6, 7):
            for g1 in range(-6, 7):
                if (g0, g1) == (0, 0):
                    continue
                spec = SequenceSpec(g0, g1)
                for t in range(-9, 10):
                    for n in range(-14, 15):
                        zero = first_zero_in_window(spec, *reciprocal_window(t, n))
                        _assert_zero_at(zero, oracle_sum, kind, spec, t, n)
                        zero = first_zero_in_window(spec, n + t - 1, n + t + 2)
                        _assert_zero_at(zero, oracle_term, kind, spec, t, n)

    def test_integer_kinds_never_scan(self):
        assert oracle_sum(SummandKind.SQUARE, F, 0, 3) == 6


def _assert_zero_at(zero, fn, *args):
    if zero is None:
        fn(*args)
        return
    with pytest.raises(ZeroTermError) as exc:
        fn(*args)
    assert exc.value.index == zero, args
