"""Closed-form evaluators: frozen values, coherence, and domain errors."""

import copy
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import FULL_N_RANGE, FULL_T_RANGE, GRID_SEEDS
from gibsum import (
    DomainError,
    IntegralityError,
    SequenceSpec,
    SummandKind,
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
from gibsum import closed_forms, verifier
from gibsum.closed_forms import (
    _alt_end,
    _exact_div,
    _sixth_end,
    _triple_square,
)
from gibsum.render import exact_context, integer_text
from gibsum.sequences import characteristic_e, fib, lucas, term
from gibsum.verifier import REGISTRY, descriptor, effective_inputs, render_value

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


def _textbook_sixth_end(spec, m):
    """G(m)^5 G(m+3) + e^2 G(m)(G(m+1) + G(m-1)), term by term."""
    g = term(spec, m)
    return g**5 * term(spec, m + 3) + characteristic_e(spec) ** 2 * g * (
        term(spec, m + 1) + term(spec, m - 1)
    )


def _textbook_alt_end(spec, m):
    """2Q(m) - P(m), Q(m) = G(m+1)^4 G(m)^2, P(m) = (G(m) G(m+1) G(m+2))^2."""
    g0, g1, g2 = term(spec, m), term(spec, m + 1), term(spec, m + 2)
    return 2 * g1**4 * g0**2 - (g0 * g1 * g2) ** 2


def _textbook_triple_square(spec, m):
    return (term(spec, m) * term(spec, m + 1) * term(spec, m + 2)) ** 2


def _kernels(spec, m):
    """The three end kernels at (spec, m), in the seeds' number type."""
    return _sixth_end(spec, m), _alt_end(spec, m), _triple_square(spec, m)


def _textbook(spec, m):
    return (
        _textbook_sixth_end(spec, m),
        _textbook_alt_end(spec, m),
        _textbook_triple_square(spec, m),
    )


# seeds of both signs, with a zero term ((0, 1), (1, 1), (1, -1)) and
# without, up to 10^30 in size; m crosses the zero index on both sides
KERNEL_SEEDS = GRID_SEEDS + ((1, -1), (-5, 8), (10**30, -(10**30) + 7), (-(10**30), 3))
kernel_seed = st.integers(min_value=-(10**30), max_value=10**30)


class TestKernels:
    # the rewritten ends hold for all seeds and indices: checked against the
    # printed shapes evaluated term by term, on both parities of m

    @pytest.mark.parametrize("seeds", KERNEL_SEEDS)
    def test_match_textbook_shapes(self, seeds):
        spec = SequenceSpec(*seeds)
        for m in range(-40, 41):
            assert _kernels(spec, m) == _textbook(spec, m), (seeds, m)

    @given(g0=kernel_seed, g1=kernel_seed, m=st.integers(min_value=-400, max_value=400))
    def test_match_textbook_shapes_anywhere(self, g0, g1, m):
        spec = SequenceSpec(g0, g1 if (g0, g1) != (0, 0) else 1)
        assert _kernels(spec, m) == _textbook(spec, m)

    @pytest.mark.parametrize("seeds", KERNEL_SEEDS)
    def test_decimal_kernels_equal_int(self, seeds):
        spec = SequenceSpec(*seeds)
        dec = SequenceSpec(Decimal(seeds[0]), Decimal(seeds[1]))
        for m in (-301, -40, -1, 0, 1, 2, 37, 300):
            with exact_context():
                got = _kernels(dec, m)
            assert all(isinstance(v, Decimal) for v in got)
            assert got == _textbook(spec, m), (seeds, m)

    def test_special_ends_keep_the_published_shapes(self):
        # fib6 and lucas6 take F(2m) from the terms at m; the alt specials'
        # printed product after (-1)^n / 2 and (-1)^n / 10 is D(n)
        for m in range(-60, 61):
            assert _sixth_end(F, m) == fib(m) ** 5 * fib(m + 3) + fib(2 * m)
            assert _sixth_end(L, m) == lucas(m) ** 5 * lucas(m + 3) + 125 * fib(2 * m)
            fm, fm1, fm3 = fib(m), fib(m + 1), fib(m + 3)
            assert _alt_end(F, m) == fm**2 * fm1**2 * (fm1**2 - fm * fm3)
            lm, lm1, lm3 = lucas(m), lucas(m + 1), lucas(m + 3)
            assert _alt_end(L, m) == lm**2 * lm1**2 * (lm1**2 - lm * lm3)

    def test_specials_at_large_n_equal_published_shapes(self):
        for n in (999, 1000, 5001):
            sign = -1 if n % 2 else 1
            fn, fn1, fn3 = fib(n), fib(n + 1), fib(n + 3)
            assert fib_alt_f5l_closed(n) == Fraction(sign * fn**2 * fn1**2 * (fn1**2 - fn * fn3), 2)
            ln, ln1, ln3 = lucas(n), lucas(n + 1), lucas(n + 3)
            expected = Fraction(sign * ln**2 * ln1**2 * (ln1**2 - ln * ln3), 10) + Fraction(14, 5)
            assert lucas_alt_l5f_closed(n) == expected
            assert fib_sixth_closed(3, n) == (
                fib(n + 3) ** 5 * fib(n + 6) - 2**5 * 8 + fib(2 * n + 6) - fib(6)
            ) // 4
            assert lucas_sixth_closed(-2, n) == (
                lucas(n - 2) ** 5 * lucas(n + 1) - 3**5 * 1 + 125 * (fib(2 * n - 4) - fib(-4))
            ) // 4


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
        for n in range(0, 61):
            assert fib_alt_f5l_closed(n) == alt_sum_fifth_closed(F, 0, n)
            assert lucas_alt_l5f_closed(n) == Fraction(alt_sum_fifth_closed(L, 0, n), 5)

    def test_treeby_specials_equal_general(self):
        for n in range(0, 61):
            assert treeby_f3_closed(n) == sum_cubes_product_closed(F, 0, n)
            assert treeby_l3_closed(n) == sum_cubes_product_closed(L, 0, n)

    def test_recip_specials_equal_general_at_shift_one(self):
        for n in range(1, 61):
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
        "op,bad_n,message",
        [
            (fib_alt_f5l_closed, -1, "fib_alt_f5l_closed requires n >= 0, got -1"),
            (lucas_alt_l5f_closed, -1, "lucas_alt_l5f_closed requires n >= 0, got -1"),
            (treeby_f3_closed, -1, "treeby_f3_closed requires n >= 0, got -1"),
            (treeby_l3_closed, -1, "treeby_l3_closed requires n >= 0, got -1"),
            (recip_fib_special, 0, "recip_fib_special requires n >= 1, got 0"),
            (recip_lucas_special, 0, "recip_lucas_special requires n >= 1, got 0"),
        ],
    )
    def test_below_domain_rejected(self, op, bad_n, message):
        with pytest.raises(DomainError) as exc:
            op(bad_n)
        assert str(exc.value) == message

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

    @pytest.mark.parametrize("seeds", [(1, -1), None])
    def test_zero_term_error_survives_copy_and_pickle(self, seeds):
        exc = ZeroTermError(2, seeds)
        for clone in (copy.copy(exc), copy.deepcopy(exc), pickle.loads(pickle.dumps(exc))):
            assert type(clone) is ZeroTermError and str(clone) == str(exc)
            assert (clone.index, clone.seeds) == (2, seeds)
        assert str(exc) == "zero term at index 2" + (" for seeds (1, -1)" if seeds else "")

    def test_reciprocal_empty_sum_with_clean_window_is_zero(self):
        assert recip_sum_closed(F, 1, 0) == 0

    def test_negative_n_reciprocal(self):
        # S(-2) at t = 3 is minus the sum of the two summands at j = -1, 0
        expected = -(Fraction(1, 1 * 1 * 2 * 9) + Fraction(1, 1 * 2 * 3 * 25))
        assert recip_sum_closed(F, 3, -2) == expected


class TestIntegralityGuards:
    @pytest.mark.parametrize("number", [int, Decimal])
    def test_exact_divisions_check_the_remainder(self, number):
        # a Decimal halves, quarters or fifths exactly (x.5, x.25, x.2)
        # without Inexact, so only the remainder tells an integer result
        with exact_context():
            assert _exact_div(number(-8), 4, "op") == -2
            assert _exact_div(number(-6), 2, "op") == -3
            assert _exact_div(number(-15), 5, "op") == -3
            for d, nums in ((2, (7, -7)), (4, (10, -7, 3)), (5, (7, -7, 12))):
                for num in nums:
                    with pytest.raises(IntegralityError) as exc:
                        _exact_div(number(num), d, "someop")
                    r = divmod(number(num), d)[1]
                    assert str(exc.value) == f"someop: numerator not divisible by {d} (remainder {r})"

    @pytest.mark.parametrize("seeds", GRID_SEEDS)
    def test_integer_forms_stay_integral(self, seeds):
        spec = SequenceSpec(*seeds)
        for t in range(-5, 6):
            for n in range(-10, 21):
                assert isinstance(sum_sixth_closed(spec, t, n), int)
                assert isinstance(alt_sum_fifth_closed(spec, t, n), int)
                assert isinstance(sum_cubes_product_closed(spec, t, n), int)


# the integer sums; the recip family's values are rationals
INTEGER_IDS = tuple(d.id for d in REGISTRY if d.kind is not SummandKind.RECIPROCAL_WINDOW)


class TestDecimalPath:
    @pytest.mark.parametrize("identity", INTEGER_IDS)
    def test_text_equals_int_path(self, identity):
        # the entry's one evaluation, over Decimal seeds and over int ones
        desc = descriptor(identity)
        points = {
            effective_inputs(desc, SequenceSpec(*seeds), t)
            for seeds in GRID_SEEDS
            for t in range(FULL_T_RANGE[0], FULL_T_RANGE[1] + 1)
        }
        n_lo = -12 if desc.min_n is None else desc.min_n
        for spec, t in points:
            for n in range(n_lo, FULL_N_RANGE[1] + 1):
                expected = render_value(desc.closed(spec, t, n))
                assert desc.closed_text(spec, t, n) == expected, (spec, t, n)

    @pytest.mark.parametrize("identity", [d.id for d in REGISTRY if d.min_n is not None])
    def test_below_the_domain_raises(self, identity):
        desc = descriptor(identity)
        with pytest.raises(DomainError, match=f"requires n >= {desc.min_n}, got {desc.min_n - 1}"):
            desc.closed_text(desc.seeds, desc.fixed_t, desc.min_n - 1)

    @pytest.mark.parametrize("identity", [d.id for d in REGISTRY if d.id not in INTEGER_IDS])
    def test_recip_family_prints_recip_sum_closed(self, monkeypatch, identity):
        broken = lambda spec, t, n: Fraction(-1, 7)  # noqa: E731
        monkeypatch.setitem(verifier._FORMS, SummandKind.RECIPROCAL_WINDOW, broken)
        assert descriptor(identity).closed_text(F, 1, 2) == "-1/7"

    def test_negative_zero_prints_as_zero(self):
        with exact_context():
            zero = Decimal("-0") - Decimal("0")
        assert str(zero) == "-0"
        assert integer_text(zero) == "0"
        assert integer_text(Decimal(0)) == "0"
        assert integer_text(Decimal(-120)) == "-120"
