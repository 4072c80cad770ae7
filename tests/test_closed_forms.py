"""Closed-form evaluators: frozen values, coherence, and domain errors."""

from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import FULL_N_RANGE, FULL_T_RANGE, GRID_SEEDS
from gibsum import (
    DomainError,
    IntegralityError,
    SequenceSpec,
    ZeroTermError,
    alt_sum_fifth_closed,
    fib_alt_f5l_closed,
    fib_sixth_closed,
    lucas_alt_l5f_closed,
    lucas_sixth_closed,
    recip_fib_special,
    recip_lucas_special,
    recip_sum_closed,
    sum_cubes_product_closed,
    sum_sixth_closed,
    sum_squares_closed,
    treeby_f3_closed,
    treeby_l3_closed,
)
from gibsum.closed_forms import _exact_half, _exact_quarter, _require_integral
from gibsum.render import exact_context, integer_text
from gibsum.verifier import REGISTRY, descriptor, render_value

F = SequenceSpec(0, 1)
L = SequenceSpec(2, 1)


class TestSpotValues:
    def test_sum_squares(self):
        assert sum_squares_closed(F, 0, 3) == 6
        assert sum_squares_closed(F, 0, 0) == 0
        assert sum_squares_closed(L, 0, 2) == 10

    def test_sum_sixth(self):
        assert sum_sixth_closed(F, 0, 5) == 16420
        assert sum_sixth_closed(SequenceSpec(3, 1), 0, 2) == 4097
        assert sum_sixth_closed(F, 1, 2) == 65
        assert sum_sixth_closed(F, 0, 0) == 0

    def test_fib_sixth(self):
        assert fib_sixth_closed(0, 5) == 16420
        assert fib_sixth_closed(0, 1) == 1
        assert fib_sixth_closed(1, 2) == 65

    def test_lucas_sixth(self):
        assert lucas_sixth_closed(0, 2) == 730
        assert lucas_sixth_closed(0, 1) == 1
        assert lucas_sixth_closed(0, 0) == 0

    def test_alt_sum_fifth(self):
        assert alt_sum_fifth_closed(F, 0, 1) == 1
        assert alt_sum_fifth_closed(F, 0, 2) == -2
        assert alt_sum_fifth_closed(L, 0, 1) == 5

    def test_alt_specials(self):
        assert fib_alt_f5l_closed(1) == 1
        assert fib_alt_f5l_closed(2) == -2
        assert fib_alt_f5l_closed(0) == 0
        assert lucas_alt_l5f_closed(1) == 1
        assert lucas_alt_l5f_closed(2) == -242
        assert lucas_alt_l5f_closed(0) == 0

    def test_cubes(self):
        assert sum_cubes_product_closed(F, 0, 2) == 9
        assert sum_cubes_product_closed(L, 0, 1) == 27
        assert sum_cubes_product_closed(F, 0, 0) == 0

    def test_reciprocal(self):
        assert recip_sum_closed(F, 1, 1) == Fraction(1, 18)
        assert recip_sum_closed(L, 0, 1) == Fraction(1, 192)
        assert recip_sum_closed(L, 0, 2) == Fraction(65, 9408)

    def test_treeby(self):
        assert treeby_f3_closed(2) == 9
        assert treeby_l3_closed(1) == 27

    def test_recip_specials(self):
        assert recip_fib_special(1) == Fraction(1, 18)
        assert recip_lucas_special(1) == Fraction(1, 588)


class TestSpecializationCoherence:
    def test_fib_sixth_equals_general(self):
        for t in range(FULL_T_RANGE[0], FULL_T_RANGE[1] + 1):
            for n in range(FULL_N_RANGE[0], FULL_N_RANGE[1] + 1):
                assert fib_sixth_closed(t, n) == sum_sixth_closed(F, t, n)

    def test_lucas_sixth_equals_general(self):
        for t in range(FULL_T_RANGE[0], FULL_T_RANGE[1] + 1):
            for n in range(FULL_N_RANGE[0], FULL_N_RANGE[1] + 1):
                assert lucas_sixth_closed(t, n) == sum_sixth_closed(L, t, n)

    def test_alt_specials_equal_general(self):
        for n in range(0, 31):
            assert fib_alt_f5l_closed(n) == alt_sum_fifth_closed(F, 0, n)
            assert lucas_alt_l5f_closed(n) == alt_sum_fifth_closed(L, 0, n) / 5

    def test_treeby_specials_equal_general(self):
        for n in range(0, 31):
            assert treeby_f3_closed(n) == sum_cubes_product_closed(F, 0, n)
            assert treeby_l3_closed(n) == sum_cubes_product_closed(L, 0, n)

    def test_recip_specials_equal_general_at_shift_one(self):
        for n in range(1, 31):
            assert recip_fib_special(n) == recip_sum_closed(F, 1, n)
            assert recip_lucas_special(n) == recip_sum_closed(L, 1, n)


class TestShiftCoherence:
    # advancing the seeds by one step equals shifting t by one
    @pytest.mark.parametrize("seeds", GRID_SEEDS)
    def test_shifted_seeds_match_shifted_t(self, seeds):
        g0, g1 = seeds
        spec = SequenceSpec(g0, g1)
        advanced = SequenceSpec(g1, g0 + g1)
        for t in range(-4, 5):
            for n in range(0, 15):
                assert sum_sixth_closed(advanced, t, n) == sum_sixth_closed(spec, t + 1, n)
                assert sum_squares_closed(advanced, t, n) == sum_squares_closed(spec, t + 1, n)
                assert alt_sum_fifth_closed(advanced, t, n) == alt_sum_fifth_closed(spec, t + 1, n)
                assert sum_cubes_product_closed(advanced, t, n) == sum_cubes_product_closed(
                    spec, t + 1, n
                )


class TestDomains:
    @pytest.mark.parametrize(
        "op,bad_n",
        [
            (fib_alt_f5l_closed, -1),
            (lucas_alt_l5f_closed, -1),
            (treeby_f3_closed, -1),
            (treeby_l3_closed, -1),
            (recip_fib_special, 0),
            (recip_lucas_special, 0),
        ],
    )
    def test_below_domain_rejected(self, op, bad_n):
        with pytest.raises(DomainError):
            op(bad_n)

    def test_reciprocal_zero_at_origin(self):
        with pytest.raises(ZeroTermError) as exc:
            recip_sum_closed(F, 0, 3)
        assert exc.value.index == 0

    def test_reciprocal_zero_reported_for_negative_window(self):
        with pytest.raises(ZeroTermError) as exc:
            recip_sum_closed(SequenceSpec(1, 1), -2, 3)
        assert exc.value.index == -1

    def test_reciprocal_interior_zero(self):
        # seeds (1, -1) hit zero at index 2, inside the window but away
        # from both boundary anchors
        with pytest.raises(ZeroTermError) as exc:
            recip_sum_closed(SequenceSpec(1, -1), 0, 5)
        assert exc.value.index == 2

    def test_reciprocal_empty_sum_with_clean_window_is_zero(self):
        assert recip_sum_closed(F, 1, 0) == 0

    def test_negative_n_reciprocal(self):
        # S(-2) at t = 3 is minus the sum of the two summands at j = -1, 0
        expected = -(Fraction(1, 1 * 1 * 2 * 9) + Fraction(1, 1 * 2 * 3 * 25))
        assert recip_sum_closed(F, 3, -2) == expected


class TestIntegralityGuards:
    def test_exact_quarter_accepts_multiples(self):
        assert _exact_quarter(-8, "op") == -2

    def test_exact_quarter_rejects_others(self):
        with pytest.raises(IntegralityError) as exc:
            _exact_quarter(10, "someop")
        assert "someop" in str(exc.value)

    @pytest.mark.parametrize("number", [int, Decimal])
    def test_exact_divisions_check_the_remainder(self, number):
        # a Decimal halves or quarters exactly (x.5, x.25) without Inexact,
        # so only the remainder tells an integer result
        with exact_context():
            assert _exact_quarter(number(-8), "op") == -2
            assert _exact_half(number(-6), "op") == -3
            for num in (10, -7, 3):
                with pytest.raises(IntegralityError, match="someop: numerator not divisible by 4"):
                    _exact_quarter(number(num), "someop")
            for num in (7, -7):
                with pytest.raises(IntegralityError) as exc:
                    _exact_half(number(num), "someop")
                assert str(exc.value) == "someop: result has denominator 2, expected 1"

    def test_require_integral(self):
        assert _require_integral(Fraction(4, 2), "op") == 2
        with pytest.raises(IntegralityError):
            _require_integral(Fraction(1, 2), "op")

    @pytest.mark.parametrize("seeds", GRID_SEEDS)
    def test_integer_forms_stay_integral(self, seeds):
        spec = SequenceSpec(*seeds)
        for t in range(-5, 6):
            for n in range(-10, 21):
                assert isinstance(sum_sixth_closed(spec, t, n), int)
                assert alt_sum_fifth_closed(spec, t, n).denominator == 1
                assert isinstance(sum_cubes_product_closed(spec, t, n), int)


DECIMAL_IDS = ("sum_g6", "sum_g2", "alt_g5", "sum_g3g3")


class TestDecimalPath:
    def test_generic_bodies_are_the_seed_free_integer_forms(self):
        assert tuple(d.id for d in REGISTRY if d.generic is not None) == DECIMAL_IDS

    @pytest.mark.parametrize("identity", DECIMAL_IDS)
    def test_text_equals_int_path(self, identity):
        desc = descriptor(identity)
        for seeds in GRID_SEEDS:
            spec = SequenceSpec(*seeds)
            for t in range(FULL_T_RANGE[0], FULL_T_RANGE[1] + 1):
                for n in range(-12, FULL_N_RANGE[1] + 1):
                    expected = render_value(desc.closed(spec, t, n))
                    assert desc.closed_text(spec, t, n) == expected, (seeds, t, n)

    def test_negative_zero_prints_as_zero(self):
        with exact_context():
            zero = Decimal("-0") - Decimal("0")
        assert str(zero) == "-0"
        assert integer_text(zero) == "0"
        assert integer_text(Decimal(0)) == "0"
        assert integer_text(Decimal(-120)) == "-120"
