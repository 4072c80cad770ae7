"""Core sequence evaluation: fast terms vs single-step iteration."""

from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from conftest import GRID_SEEDS, scan_first_zero, unlimited_int_str
from gibsum import (
    FIBONACCI,
    LUCAS,
    SequenceSpec,
    characteristic_e,
    fib,
    first_zero_in_window,
    lucas,
    reciprocal_window,
    term,
    term_naive,
)
from gibsum.render import exact_context
from gibsum.sequences import _SMALL_K, _fib_pair, window, zero_index

seed_ints = st.integers(min_value=-50, max_value=50)


def valid_seeds(g0, g1):
    return (g0, g1) != (0, 0)


class TestSequenceSpec:
    def test_rejects_double_zero(self):
        with pytest.raises(ValueError):
            SequenceSpec(0, 0)

    def test_seeds_property(self):
        assert SequenceSpec(3, -4).seeds == (3, -4)

    def test_fixed_sequences(self):
        assert FIBONACCI.seeds == (0, 1)
        assert LUCAS.seeds == (2, 1)

    def test_rejects_double_zero_by_keyword(self):
        with pytest.raises(ValueError, match=r"^invalid seeds \(0, 0\): at least one seed must be nonzero$"):
            SequenceSpec(g0=0, g1=0)

    def test_value_semantics(self):
        spec = SequenceSpec(3, -4)
        assert spec == SequenceSpec(g0=3, g1=-4) == SequenceSpec(3, g1=-4)
        assert spec != SequenceSpec(-4, 3) and spec != (3, -4)
        assert hash(spec) == hash(SequenceSpec(3, -4))
        assert len({spec, SequenceSpec(3, -4), FIBONACCI}) == 2
        assert repr(spec) == "SequenceSpec(g0=3, g1=-4)"

    def test_immutable(self):
        spec = SequenceSpec(3, -4)
        with pytest.raises(AttributeError):
            spec.g0 = 5
        with pytest.raises(AttributeError):
            del spec.g1
        assert spec.seeds == (3, -4)


class TestTerm:
    @pytest.mark.parametrize(
        "seeds,k,expected",
        [
            ((0, 1), 10, 55),
            ((2, 1), 0, 2),
            ((0, 1), -2, -1),
            ((3, 1), -1, -2),
        ],
    )
    def test_spot_values(self, seeds, k, expected):
        assert term(SequenceSpec(*seeds), k) == expected

    @pytest.mark.parametrize("seeds", GRID_SEEDS)
    def test_recurrence_both_directions(self, seeds):
        spec = SequenceSpec(*seeds)
        for k in range(-50, 49):
            assert term(spec, k + 2) == term(spec, k + 1) + term(spec, k)

    @pytest.mark.parametrize("seeds", GRID_SEEDS)
    def test_matches_naive_iteration(self, seeds):
        spec = SequenceSpec(*seeds)
        for k in range(-200, 201):
            assert term(spec, k) == term_naive(spec, k)

    @pytest.mark.parametrize("seeds", GRID_SEEDS)
    def test_linear_representation(self, seeds):
        g0, g1 = seeds
        spec = SequenceSpec(g0, g1)
        for k in range(-50, 51):
            assert term(spec, k) == g1 * fib(k) + g0 * fib(k - 1)

    @given(g0=seed_ints, g1=seed_ints, k=st.integers(min_value=-300, max_value=300))
    def test_matches_naive_anywhere(self, g0, g1, k):
        if not valid_seeds(g0, g1):
            g1 = 1
        spec = SequenceSpec(g0, g1)
        assert term(spec, k) == term_naive(spec, k)


def _fib_pair_naive(k):
    a, b = 0, 1
    for _ in range(abs(k)):
        a, b = (b, a + b) if k > 0 else (b - a, a)
    return a, b


class TestFibPair:
    # (F, L) doubling against single steps: every |k| up to 1000 walks each
    # bit pattern, both parities of m in the L(2m) step and every halving

    def test_matches_naive_up_to_1000(self):
        up, down = (0, 1), (0, 1)
        for k in range(1001):
            assert _fib_pair(k) == up, k
            assert _fib_pair(-k) == down, -k
            up, down = (up[1], up[0] + up[1]), (down[1] - down[0], down[0])

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(min_value=1001, max_value=10**5), negate=st.booleans())
    def test_matches_naive_at_large_k(self, k, negate):
        k = -k if negate else k
        assert _fib_pair(k) == _fib_pair_naive(k)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, -1, -2, -77, 64, 1000, 2**17 - 1, 2**17, -98765])
    def test_decimal_equals_int(self, k):
        with exact_context():
            got = _fib_pair(k, Decimal(1))
        assert all(isinstance(v, Decimal) for v in got)
        assert got == _fib_pair(k)


class TestSmallPairTable:
    # int pairs with |k| <= _SMALL_K are read from a table; a Decimal one
    # always takes the doubling path

    def test_bound_is_the_last_64_bit_pair(self):
        assert _fib_pair_naive(_SMALL_K)[1] < 2**63 <= _fib_pair_naive(_SMALL_K + 1)[1]
        assert -(2**63) <= _fib_pair_naive(-_SMALL_K)[1]

    def test_matches_doubling_and_naive_across_the_bound(self):
        for k in range(-_SMALL_K - 2, _SMALL_K + 3):
            with exact_context():
                doubled = _fib_pair(k, Decimal(1))
            assert _fib_pair(k) == tuple(int(v) for v in doubled), k
            assert fib(k) == term_naive(FIBONACCI, k), k

    def test_decimal_window_at_small_index(self):
        with exact_context():
            got = window(SequenceSpec(Decimal(3), Decimal(-4)), 5, 4)
        assert all(type(v) is Decimal and v == v.to_integral_value() for v in got)
        assert got == window(SequenceSpec(3, -4), 5, 4)

    def test_window_lists_are_fresh(self):
        spec = SequenceSpec(2, 1)
        for m in (-3, 0, 7, _SMALL_K):
            first = window(spec, m, 2)
            first.append(0)
            first[0] += 1
            assert window(spec, m, 2) == [term_naive(spec, m), term_naive(spec, m + 1)]


class TestNaive:
    @pytest.mark.parametrize(
        "seeds,k,expected",
        [((0, 1), 10, 55), ((2, 1), 1, 1), ((0, 1), -7, 13)],
    )
    def test_spot_values(self, seeds, k, expected):
        assert term_naive(SequenceSpec(*seeds), k) == expected


class TestFibLucas:
    @pytest.mark.parametrize("k,expected", [(7, 13), (0, 0), (-4, -3)])
    def test_fib_spot_values(self, k, expected):
        assert fib(k) == expected

    @pytest.mark.parametrize("k,expected", [(4, 7), (0, 2), (-3, -4)])
    def test_lucas_spot_values(self, k, expected):
        assert lucas(k) == expected

    def test_reflection(self):
        for k in range(0, 51):
            assert fib(-k) == (1 if k % 2 else -1) * fib(k)

    def test_large_index_digit_count(self):
        # F(100000) is about 20899 digits; fast doubling must reach it instantly
        with unlimited_int_str():
            assert len(str(fib(100000))) == 20899


class TestCharacteristic:
    @pytest.mark.parametrize("seeds,expected", [((0, 1), -1), ((2, 1), 5), ((3, 1), 11)])
    def test_spot_values(self, seeds, expected):
        assert characteristic_e(SequenceSpec(*seeds)) == expected

    def test_nonzero_for_all_small_integer_seeds(self):
        # e = 0 over the integers forces g0 = g1 = 0, which the type rejects
        for g0 in range(-20, 21):
            for g1 in range(-20, 21):
                if (g0, g1) == (0, 0):
                    continue
                assert characteristic_e(SequenceSpec(g0, g1)) != 0


class TestZeroScan:
    def test_fibonacci_zero_at_origin(self):
        assert first_zero_in_window(FIBONACCI, -3, 3) == 0

    def test_shifted_fibonacci_zero(self):
        assert first_zero_in_window(SequenceSpec(1, 1), -5, 5) == -1

    def test_interior_zero(self):
        assert first_zero_in_window(SequenceSpec(1, -1), 0, 5) == 2

    def test_lucas_has_no_zero(self):
        assert first_zero_in_window(LUCAS, -60, 60) is None

    def test_empty_window(self):
        assert first_zero_in_window(FIBONACCI, 5, 4) is None

    def test_returns_first_of_several(self):
        # (0, 0) is invalid, so a sequence has at most one zero; but the scan
        # must still return the smallest index when the window starts below it
        assert first_zero_in_window(FIBONACCI, -10, 10) == 0


class TestZeroLocator:
    def test_empty_window_around_the_zero(self):
        assert first_zero_in_window(FIBONACCI, 2, -2) is None

    def test_zero_on_window_edges(self):
        assert first_zero_in_window(SequenceSpec(1, -1), 2, 2) == 2
        assert first_zero_in_window(SequenceSpec(1, -1), 3, 9) is None
        assert first_zero_in_window(SequenceSpec(1, -1), -9, 1) is None

    def test_lucas_has_no_zero_index(self):
        assert zero_index(LUCAS) is None

    def test_huge_window_is_an_interval_test(self):
        # a walk over this window would never finish
        assert first_zero_in_window(SequenceSpec(1, -1), -10**15, 10**15) == 2
        assert first_zero_in_window(LUCAS, -10**15, 10**15) is None

    def test_matches_scan_on_all_small_seeds(self):
        windows = [(lo, hi) for lo in range(-11, 12, 2) for hi in (lo - 1, lo, lo + 3, 12)]
        for g0 in range(-40, 41):
            for g1 in range(-40, 41):
                if (g0, g1) == (0, 0):
                    continue
                spec = SequenceSpec(g0, g1)
                assert zero_index(spec) == scan_first_zero(spec, -60, 60), (g0, g1)
                for lo, hi in windows:
                    assert first_zero_in_window(spec, lo, hi) == scan_first_zero(spec, lo, hi)

    @pytest.mark.parametrize("c", [1, -1, 7, -7, 10**30 + 1])
    def test_built_zero_found_exactly(self, c):
        # G(k) = c F(k - a) has its one zero at a
        for a in range(-80, 81):
            spec = SequenceSpec(c * fib(-a), c * fib(1 - a))
            assert zero_index(spec) == a
            for lo, hi in ((a - 4, a + 4), (a, a), (a + 1, a + 6), (a - 6, a - 1), (a, a - 1)):
                assert first_zero_in_window(spec, lo, hi) == scan_first_zero(spec, lo, hi)


class TestWindow:
    @pytest.mark.parametrize("seeds", GRID_SEEDS)
    def test_matches_term(self, seeds):
        spec = SequenceSpec(*seeds)
        for m in range(-40, 41):
            assert window(spec, m, 6) == [term(spec, m + i) for i in range(6)]

    def test_short_counts(self):
        assert window(LUCAS, 3, 1) == [4]
        assert window(LUCAS, 3, 0) == []

    def test_large_index(self):
        spec = SequenceSpec(3, -4)
        for m in (10**5, -(10**5) - 1):
            assert window(spec, m, 4) == [term(spec, m + i) for i in range(4)]


class TestReciprocalWindow:
    def test_forward(self):
        assert reciprocal_window(t=0, n=3) == (0, 5)

    def test_empty_sum_still_covers_anchor(self):
        assert reciprocal_window(t=2, n=0) == (2, 4)

    def test_backward(self):
        assert reciprocal_window(t=0, n=-4) == (-4, 2)
