"""Registry, single-point verification, sweeps, and the telescoping and point
identities checked side by side."""

import dataclasses
import inspect
import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    FULL_N_RANGE, FULL_T_RANGE, GENERAL_FORMS, GRID_SEEDS, ONE_INDEX, seed_grid, unlimited_int_str,
)
from gibsum import (
    DomainError,
    GridSpec,
    REGISTRY,
    SequenceSpec,
    TSV_COLUMNS,
    SummandKind,
    UnknownIdentityError,
    VerificationReport,
    ZeroTermError,
    characteristic_e,
    descriptor,
    effective_inputs,
    identity_ids,
    lucas,
    oracle_sum,
    oracle_term,
    render_value,
    sweep,
    term,
    verify_one,
)
from gibsum import closed_forms, render, verifier
from gibsum.render import STR_CUTOFF_BITS
from gibsum.sequences import window

F = SequenceSpec(0, 1)

SPEC_IDS = (
    "sum_g6",
    "sum_g2",
    "alt_g5",
    "sum_g3g3",
    "recip",
    "fib6",
    "lucas6",
    "fib_alt_f5l",
    "lucas_alt_l5f",
    "treeby_f3",
    "treeby_l3",
    "recip_fib",
    "recip_lucas",
)

# each registry entry's public closed form, the library API over its body
PUBLIC_FORMS = {
    "sum_g6": "sum_sixth_closed",
    "sum_g2": "sum_squares_closed",
    "alt_g5": "alt_sum_fifth_closed",
    "sum_g3g3": "sum_cubes_product_closed",
    "recip": "recip_sum_closed",
    "fib6": "fib_sixth_closed",
    "lucas6": "lucas_sixth_closed",
    "fib_alt_f5l": "fib_alt_f5l_closed",
    "lucas_alt_l5f": "lucas_alt_l5f_closed",
    "treeby_f3": "treeby_f3_closed",
    "treeby_l3": "treeby_l3_closed",
    "recip_fib": "recip_fib_special",
    "recip_lucas": "recip_lucas_special",
}


class TestRegistry:
    def test_ids_complete_and_ordered(self):
        assert identity_ids() == SPEC_IDS

    def test_unknown_id(self):
        with pytest.raises(UnknownIdentityError):
            descriptor("nope")

    def test_each_closed_form_names_exactly_one_entry(self):
        public = [
            name for name, fn in inspect.getmembers(closed_forms, inspect.isfunction)
            if fn.__module__ == closed_forms.__name__ and not name.startswith("_")
        ]
        assert tuple(PUBLIC_FORMS) == SPEC_IDS
        assert sorted(PUBLIC_FORMS.values()) == sorted(public)

    @pytest.mark.parametrize("desc", REGISTRY, ids=SPEC_IDS)
    def test_entry_contract(self, desc):
        # every caller in a process shares the entries, so none is rebound;
        # perfbench/tracer.py wraps the callables dataclasses.fields() of an
        # entry holds, and evaluation must not go through such a field
        for name in ("id", "kind", "seeds", "fixed_t", "min_n", "divisor", "other"):
            with pytest.raises(AttributeError):
                setattr(desc, name, None)
            with pytest.raises(AttributeError):
                delattr(desc, name)
        assert not [f.name for f in dataclasses.fields(desc) if callable(getattr(desc, f.name))]
        assert repr(desc).startswith(f"IdentityDescriptor(id={desc.id!r}, ")

    @pytest.mark.parametrize("identity", SPEC_IDS)
    def test_closed_form_equals_its_entry(self, identity):
        # both sides evaluate the same general form, the one named on the
        # identity's closed_forms.CATALOG row; what is left is that they
        # apply it alike, so both sides are evaluated:
        # the same value and type, zero-term error and domain boundary
        desc, fn = descriptor(identity), getattr(closed_forms, PUBLIC_FORMS[identity])

        def outcome(call, *args):
            try:
                return call(*args)
            except DomainError:
                return DomainError
            except ZeroTermError as exc:
                return str(exc)

        for seeds in GRID_SEEDS:
            spec = SequenceSpec(*seeds)
            for t in range(FULL_T_RANGE[0], FULL_T_RANGE[1] + 1):
                args = (spec, t) if desc.seeds is None else (t,) if desc.fixed_t is None else ()
                for n in range(-12, FULL_N_RANGE[1] + 1):
                    expected = outcome(fn, *args, n)
                    got = outcome(desc.closed, spec, t, n)
                    assert got == expected and type(got) is type(expected), (spec, t, n)
                    assert (got is DomainError) == (desc.min_n is not None and n < desc.min_n)

    @pytest.mark.parametrize("identity", SPEC_IDS)
    def test_oracle_is_the_entrys_oracle_sum(self, identity):
        # the entry's oracle side: its seeds and shift, its domain, its
        # divisor over oracle_sum; and it agrees with the closed side
        desc = descriptor(identity)
        for seeds in GRID_SEEDS:
            spec = SequenceSpec(*seeds)
            for t in range(-3, 4):
                for n in range(-6, 13):
                    if desc.min_n is not None and n < desc.min_n:
                        with pytest.raises(DomainError) as info:
                            desc.oracle(spec, t, n)
                        message = f"identity {identity} requires n >= {desc.min_n}, got {n}"
                        assert str(info.value) == message
                        continue
                    try:
                        total = oracle_sum(desc.kind, *effective_inputs(desc, spec, t), n)
                    except ZeroTermError as exc:
                        with pytest.raises(ZeroTermError) as info:
                            desc.oracle(spec, t, n)
                        assert str(info.value) == str(exc)
                        continue
                    expected = desc.from_oracle(total)
                    got = desc.oracle(spec, t, n)
                    assert got == expected and type(got) is type(expected), (spec, t, n)
                    assert got == desc.closed(spec, t, n), (spec, t, n)

    def test_readme_catalog_matches_registry(self):
        # the kernels need not follow the printed shapes, but the shapes the
        # README and `gibsum list` show must not drift apart
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| id | summand | closed form |\n|----|---------|-------------|\n")[1]
        rows = []
        for line in table.split("\n\n")[0].splitlines():
            cells = [c.strip() for c in line.strip("|").split(" | ")]
            # alt_g5 writes its ", P(m) = ..., Q(m) = ..." tail as "` with `P(m) = ...`, `Q(m) ..."
            closed = cells[2].replace("` with `", ", ").replace("`, `", ", ")
            rows.append(tuple(c.strip("`") for c in (cells[0], cells[1], closed)))
        assert rows == [(d.id, d.summand, d.closed_form) for d in REGISTRY]

    def test_readme_python_example_runs(self):
        # the library example must stay runnable as printed, asserts included
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = [block.split("```", 1)[0] for block in readme.split("```python\n")[1:]]
        assert blocks
        for block in blocks:
            exec(compile(block, "README.md", "exec"), {})


def _split_widths(w):
    """Every width the divide-and-conquer path splits a w-bit value into."""
    if w <= render._LEAF_BITS:
        return {w}
    h = w >> 1
    return {w} | _split_widths(h) | _split_widths(w - h)


class TestRenderValue:
    """Rendering is byte-identical to str() on both sides of the cutoff."""

    def test_integers(self):
        assert render_value(5) == "5"
        assert render_value(-12) == "-12"
        assert render_value(Fraction(4, 2)) == "2"

    def test_ratios(self):
        assert render_value(Fraction(10, 4)) == "5/2"
        assert render_value(Fraction(-1, 18)) == "-1/18"

    def assert_same_as_str(self, values):
        with unlimited_int_str():
            expected = [str(v) for v in values]
        assert [render_value(v) for v in values] == expected

    def test_ints_fractions_and_bools(self):
        assert render_value(-7) == "-7"
        assert render_value(Fraction(6)) == "6"
        assert render_value(Fraction(-3, 6)) == "-1/2"
        assert render_value(True) == "1"

    def test_zero_and_units(self):
        self.assert_same_as_str([0, 1, -1])

    @pytest.mark.parametrize("bits", [STR_CUTOFF_BITS - 1, STR_CUTOFF_BITS, STR_CUTOFF_BITS + 1])
    def test_at_the_cutoff(self, bits):
        rng = random.Random(bits)
        values = [1 << (bits - 1), (1 << bits) - 1, rng.getrandbits(bits) | 1 << (bits - 1)]
        self.assert_same_as_str(values + [-v for v in values])

    def test_random_sizes_both_signs(self):
        rng = random.Random(5)
        sizes = [2, 64, 1000, 12_345, 12_999, 16_384, 20_001, 33_333, 65_537, 100_000, 300_000]
        values = [rng.getrandbits(b) | 1 << (b - 1) for b in sizes]
        values += [rng.getrandbits(rng.randrange(12_001, 40_000)) for _ in range(20)]
        self.assert_same_as_str(values + [-v for v in values])

    @pytest.mark.parametrize("k", [1, 3612, 3613, 3614, 5000, 20_000, 90_000])
    def test_powers_of_ten(self, k):
        # a lost leading or trailing zero would show here
        self.assert_same_as_str([10**k, 10**k - 1, 10**k + 1, -(10**k)])

    @pytest.mark.parametrize("bits", [STR_CUTOFF_BITS + 1, 20_000, 65_537])
    def test_powers_of_two_at_split_points(self, bits):
        # all-zero low halves, a lone high bit, and carries across every split
        values = [1 << w for w in _split_widths(bits)]
        values += [v + d for v in values for d in (-1, 1)]
        values += [(1 << bits) - 1, (1 << (bits - 1)) + 1]
        self.assert_same_as_str(values + [-v for v in values])

    def test_huge_fractions(self):
        rng = random.Random(11)
        fractions = [
            Fraction(rng.getrandbits(60_000) + 1, rng.getrandbits(45_000) + 1),
            Fraction(-(rng.getrandbits(13_000) + 1), (1 << 70_000) + 1),
            Fraction(-7, 10**9000 + 3),
        ]
        with unlimited_int_str():
            expected = [f"{f.numerator}/{f.denominator}" for f in fractions]
        assert [render_value(f) for f in fractions] == expected

    def test_over_two_million_digits(self):
        # checked without a full str(), which takes minutes at this size
        value = 7**2_500_000
        text = render_value(value)
        digits = len(text)
        assert digits > 2_000_000
        scale = 10 ** (digits - 50)
        assert text[:50] == str(value // scale)  # also pins the digit count
        assert 10**49 <= value // scale < 10**50
        assert text[-50:] == str(value % 10**50).zfill(50)

    def test_zero_term_message_renders_huge_seeds(self):
        big = 10**5000 + 1
        message = str(ZeroTermError(2, (big, -big)))
        with unlimited_int_str():
            assert message == f"zero term at index 2 for seeds ({big}, {-big})"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit cap before Python 3.11"
    )
    def test_import_leaves_the_digit_cap_alone(self):
        script = textwrap.dedent("""
            import sys
            from fractions import Fraction
            before = sys.get_int_max_str_digits()
            import gibsum
            assert sys.get_int_max_str_digits() == before == 4300
            p, q = 7**23_665 + 2, 3**41_918 + 4  # 20 k digits each
            texts = [gibsum.render_value(p), gibsum.render_value(Fraction(-p, q))]
            sys.set_int_max_str_digits(0)
            expected = [str(p), f"{-p}/{q}"]
            sys.set_int_max_str_digits(before)
            assert len(expected[0]) == 20_000 and len(expected[1]) == 40_002
            assert texts == expected
            print("ok")
        """)
        src = str(Path(verifier.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path, "PYTHONINTMAXSTRDIGITS": "4300"}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"


class TestVerifyOne:
    def test_match(self):
        rep = verify_one("sum_g6", F, 0, 5)
        assert rep.match and rep.closed == rep.oracle == "16420" and rep.error is None

    def test_empty_sum(self):
        rep = verify_one("sum_g6", F, 0, 0)
        assert rep.match and rep.closed == "0"

    def test_identical_errors_pass_vacuously(self):
        rep = verify_one("recip", F, 0, 3)
        assert rep.match
        assert rep.closed is None and rep.oracle is None
        assert "zero term at index 0" in rep.error

    def test_domain_excluded_point_passes_vacuously(self):
        rep = verify_one("fib_alt_f5l", F, 0, -3)
        assert rep.match and rep.closed is None and rep.oracle is None
        assert "requires n >= 0" in rep.error

    def test_seed_and_shift_substitution(self):
        # seed-fixed, t-fixed identities ignore the passed spec and t
        rep = verify_one("treeby_l3", SequenceSpec(7, -2), 5, 1)
        assert (rep.g0, rep.g1, rep.t) == (2, 1, 0)
        assert rep.match and rep.closed == "27"

    def test_value_mismatch_reported(self, monkeypatch):
        # E(m) = 333 m: S(3) = E(3) - E(0) = 999
        broken = (lambda spec, m: 333 * m, 1, False, "sum_squares_closed")
        monkeypatch.setattr(closed_forms, "_SQUARES", broken)
        rep = verify_one("sum_g2", F, 0, 3)
        assert not rep.match
        assert rep.closed == "999" and rep.oracle == "6" and rep.error is None

    def test_fraction_mismatch_renders_each_side(self, monkeypatch):
        broken = lambda spec, t, n: Fraction(1, 7)  # noqa: E731
        monkeypatch.setitem(verifier._FORMS, SummandKind.RECIPROCAL_WINDOW, broken)
        spec = SequenceSpec(3, -2)
        rep = verify_one("recip", spec, -2, 2)
        expected = oracle_sum(SummandKind.RECIPROCAL_WINDOW, spec, -2, 2)
        assert not rep.match and rep.error is None
        assert rep.closed == "1/7"
        assert rep.oracle == f"{expected.numerator}/{expected.denominator}" == "-133/19200"

    def test_denominator_one_fraction_matches(self):
        spec = SequenceSpec(2, 1)
        value = closed_forms.alt_sum_fifth_closed(spec, 1, 3)
        assert type(value) is int
        rep = verify_one("alt_g5", spec, 1, 3)
        assert rep.match and rep.error is None
        assert rep.closed == rep.oracle == str(value.numerator)

    def test_one_sided_error_is_mismatch(self, monkeypatch):
        def explode(spec, m):
            raise ZeroTermError(99, spec.seeds)

        broken = (explode, 1, False, "sum_squares_closed")
        monkeypatch.setattr(closed_forms, "_SQUARES", broken)
        rep = verify_one("sum_g2", F, 0, 3)
        assert not rep.match
        assert "closed: zero term at index 99" in rep.error
        assert "oracle: ok" in rep.error

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentityError):
            verify_one("nope", F, 0, 1)


class TestReportShapes:
    def test_as_dict_keys_match_tsv_columns(self):
        rep = verify_one("sum_g2", F, 0, 3)
        assert tuple(rep.as_dict().keys()) == TSV_COLUMNS

    def test_as_dict_value_types(self):
        rep = verify_one("sum_g2", F, 0, 3)
        d = rep.as_dict()
        assert d["g0"] == "0" and d["g1"] == "1"
        assert d["t"] == 0 and d["n"] == 3
        assert d["closed"] == "6" and d["match"] is True and d["error"] is None
        json.dumps(d)

    def test_tsv_row(self):
        rep = verify_one("sum_g2", F, 0, 3)
        assert rep.as_tsv_row() == "sum_g2\t0\t1\t0\t3\t6\t6\ttrue\t"

    def test_tsv_row_with_error(self):
        rep = verify_one("recip", F, 0, 3)
        cells = rep.as_tsv_row().split("\t")
        assert len(cells) == len(TSV_COLUMNS)
        assert cells[5] == "" and cells[6] == "" and cells[7] == "true"
        assert cells[8].startswith("zero term")


class TestVerificationReport:
    FIELDS = dict(identity="sum_g2", g0=0, g1=1, t=0, n=3, closed="6", oracle="6", match=True)

    def test_equal_fields_compare_equal(self):
        rep = VerificationReport(**self.FIELDS)
        assert rep == VerificationReport("sum_g2", 0, 1, 0, 3, "6", "6", True, None)
        assert rep == verify_one("sum_g2", F, 0, 3)

    @pytest.mark.parametrize("name, other", [
        ("identity", "sum_g6"), ("g0", 2), ("g1", -1), ("t", 1), ("n", 4),
        ("closed", "7"), ("oracle", "7"), ("match", False), ("error", "x"),
    ])
    def test_one_differing_field(self, name, other):
        assert VerificationReport(**{**self.FIELDS, name: other}) != VerificationReport(**self.FIELDS)


class TestJsonRow:
    """as_json_row() is json.dumps(as_dict()) byte for byte."""

    BIG = 7 ** 5000  # over render.STR_CUTOFF_BITS

    @pytest.mark.parametrize("fields", [
        ("sum_g2", 0, 1, 0, 3, "6", "6", True, None),
        ("recip", 0, 1, 0, 3, None, None, True, "zero term at index 0"),
        ("recip", 3, -2, -1, 2, "-1/18", None, False, "closed: ok; oracle: x"),
        ("alt_g5", -3, -5, -7, -4, "-12", "13", False, None),
        ("sum_g6", 2, 1, 0, 0, "0", "0", None, None),
        ("fib6", 0, 1, 0, 0, None, None, None, None),
        ("sum_g2", 1, 1, 0, 0, None, None, False, 'quote " backslash \\ tab \t nul \x00 \x1f'),
        ("sum_g2", 1, 1, 0, 0, None, None, False, "non-ASCII \u00e9 \u2264 \U0001d53e \x7f"),
        ("sum_g6", -BIG, BIG, 10**6, -(10**6), str(BIG), f"-{BIG}/{BIG + 2}", True, None),
    ])
    def test_equals_json_dumps(self, fields):
        rep = VerificationReport(*fields)
        assert rep.as_json_row() == json.dumps(rep.as_dict())

    def test_sweep_rows(self):
        grid = GridSpec(seeds=((3, -2), (-2, 5)), t_range=(-2, 1), n_range=(-3, 3))
        for identity_id in ("recip", "alt_g5", "lucas_alt_l5f"):
            for rep in sweep(identity_id, grid):
                assert rep.as_json_row() == json.dumps(rep.as_dict())


class TestGridSpec:
    def test_valid(self):
        GridSpec(seeds=((0, 1),), t_range=(0, 0), n_range=(0, 3))

    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError):
            GridSpec(seeds=(), t_range=(0, 0), n_range=(0, 3))

    def test_rejects_zero_seeds(self):
        with pytest.raises(ValueError):
            GridSpec(seeds=((0, 0),), t_range=(0, 0), n_range=(0, 3))

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            GridSpec(seeds=((0, 1),), t_range=(3, 1), n_range=(0, 3))


class TestSweep:
    def test_spot_grid(self):
        grid = GridSpec(seeds=((0, 1),), t_range=(0, 0), n_range=(0, 3))
        reps = sweep("sum_g2", grid)
        assert [r.oracle for r in reps] == ["0", "1", "2", "6"]
        assert all(r.match for r in reps)

    def test_seed_fixed_identity_collapses_seed_axis(self):
        grid = GridSpec(seeds=((0, 1), (2, 1), (3, 1)), t_range=(0, 0), n_range=(1, 1))
        reps = sweep("fib6", grid)
        assert len(reps) == 1 and reps[0].match and reps[0].closed == "1"

    def test_shift_fixed_identity_collapses_t_axis(self):
        grid = GridSpec(seeds=((0, 1),), t_range=(-5, 5), n_range=(2, 2))
        reps = sweep("treeby_f3", grid)
        assert len(reps) == 1 and reps[0].t == 0 and reps[0].closed == "9"

    def test_deterministic_order(self):
        grid = GridSpec(seeds=((2, 1), (0, 1)), t_range=(-1, 1), n_range=(0, 2))
        reps = sweep("sum_g2", grid)
        coords = [(r.g0, r.g1, r.t, r.n) for r in reps]
        expected = [
            (g0, g1, t, n)
            for g0, g1 in ((2, 1), (0, 1))
            for t in (-1, 0, 1)
            for n in (0, 1, 2)
        ]
        assert coords == expected
        assert sweep("sum_g2", grid) == reps

    def test_unknown_identity(self):
        grid = GridSpec(seeds=((0, 1),), t_range=(0, 0), n_range=(0, 0))
        with pytest.raises(UnknownIdentityError):
            sweep("nope", grid)

    @pytest.mark.parametrize(
        "identity_id, seeds, t_range, n_range",
        [
            ("recip", ((1, -1), (2, -1), (-3, 2), (0, 1)), (-5, 4), (-9, 9)),
            ("alt_g5", ((1, -1), (2, -1), (-3, 2)), (-5, 4), (-9, 9)),
            ("fib_alt_f5l", ((0, 1),), (0, 0), (-5, 6)),
            ("recip_fib", ((0, 1),), (1, 1), (-5, 6)),
        ],
    )
    def test_matches_pointwise_verification(self, identity_id, seeds, t_range, n_range):
        grid = GridSpec(seeds=seeds, t_range=t_range, n_range=n_range)
        expected = [
            verify_one(identity_id, SequenceSpec(*pair), t, n)
            for pair in seeds
            for t in range(t_range[0], t_range[1] + 1)
            for n in range(n_range[0], n_range[1] + 1)
        ]
        assert sweep(identity_id, grid) == expected

    @pytest.mark.parametrize(
        "identity_id, n_range, walked",
        [
            ("fib_alt_f5l", (-5, 6), [(0, 6)]),
            ("recip_fib", (-5, 6), [(1, 6)]),
            ("recip_fib", (-5, 0), []),
        ],
    )
    def test_domain_rows_are_not_summed(self, monkeypatch, identity_id, n_range, walked):
        calls = []
        real_walk = verifier.oracle_walk

        def recording_walk(kind, spec, t, n_lo, n_hi):
            calls.append((n_lo, n_hi))
            return real_walk(kind, spec, t, n_lo, n_hi)

        monkeypatch.setattr(verifier, "oracle_walk", recording_walk)
        grid = GridSpec(seeds=((0, 1),), t_range=(0, 0), n_range=n_range)
        reps = sweep(identity_id, grid)
        assert calls == walked
        assert len(reps) == n_range[1] - n_range[0] + 1
        assert all(r.match for r in reps)


def telescoping_steps(identity_id, spec, t, n_range):
    """(n, left, right, error) for S(n) - S(n-1) = summand(n) at each n.

    The left side uses only the closed form, the right side only
    oracle_term, so no oracle sum takes part. The range is clipped so S(n)
    and S(n-1) both lie in the identity's n-domain. A point where either
    side hits a zero term has left and right None and the error recorded.
    """
    desc = descriptor(identity_id)
    spec, t = effective_inputs(desc, spec, t)
    lo, hi = n_range
    if desc.min_n is not None:
        lo = max(lo, desc.min_n + 1)
    steps = []
    for n in range(lo, hi + 1):
        try:
            left = desc.closed(spec, t, n) - desc.closed(spec, t, n - 1)
            right = desc.from_oracle(oracle_term(desc.kind, spec, t, n))
        except ZeroTermError as exc:
            steps.append((n, None, None, str(exc)))
        else:
            steps.append((n, left, right, None))
    return steps


def steps_hold(steps):
    return all(left == right for _, left, right, _ in steps)


class TestTelescoping:
    SEEDS = ((0, 1), (2, 1), (3, 1))
    SHIFTS = (-3, 0, 4)

    def test_spot_ranges(self):
        assert steps_hold(telescoping_steps("sum_g6", F, 0, (1, 10)))
        assert steps_hold(telescoping_steps("sum_g6", SequenceSpec(3, 1), -3, (-5, 5)))
        assert steps_hold(telescoping_steps("alt_g5", SequenceSpec(2, 1), 0, (1, 10)))

    def test_every_identity_over_negative_and_positive_n(self):
        for identity_id in identity_ids():
            for seeds in self.SEEDS:
                for t in self.SHIFTS:
                    steps = telescoping_steps(identity_id, SequenceSpec(*seeds), t, (-20, 20))
                    assert steps and steps_hold(steps), (identity_id, seeds, t)

    def test_domain_clipping(self):
        steps = telescoping_steps("fib_alt_f5l", F, 0, (-20, 20))
        assert steps[0][0] == 1 and steps[-1][0] == 20
        steps = telescoping_steps("recip_fib", F, 0, (-20, 20))
        assert steps[0][0] == 2

    def test_zero_term_points_pass_vacuously(self):
        steps = telescoping_steps("recip", F, 0, (1, 5))
        assert steps and steps_hold(steps)
        assert all(left is None and "zero term" in error for _, left, _, error in steps)


class TestTelescopingProof:
    # The closed-form route to criterion 6: the step at n = 1 is
    # E(m) - sigma E(m-1) = d summand(m) at m = t + 1, here with the summand
    # from oracle_term rather than an oracle sum. The grid argument of
    # criterion 6 then gives all seeds, shifts and lengths.
    @pytest.mark.parametrize("identity, side", GENERAL_FORMS.items())
    def test_general_form_holds_for_all_seeds_shifts_and_lengths(self, identity, side):
        for a, b in seed_grid(side):
            for t in (0, 1):
                ((_, left, right, error),) = telescoping_steps(identity, SequenceSpec(a, b), t, (1, 1))
                assert error is None and left == right, (a, b, t)


class TestPointIdentities:
    # criterion 7 proves these on a seed grid at r, s in {0, 1}; this samples
    # them far from it, at negative seeds and over r in [-30, 30],
    # s in [-10, 10]
    @pytest.mark.parametrize("seeds", GRID_SEEDS)
    def test_all_hold(self, seeds):
        spec = SequenceSpec(*seeds)
        e = characteristic_e(spec)
        for r in range(-30, 31):
            g = dict(zip(range(-2, 3), window(spec, r - 2, 5)))
            se = -e if r % 2 else e
            for pid, sides in ONE_INDEX.items():
                left, right = sides(g, se)
                assert left == right, (pid, r)
            for s in range(-10, 11):
                left = term(spec, r + s) + (-1) ** s * term(spec, r - s)
                assert left == lucas(s) * g[0], ("vajda10a", r, s)

    def test_spot_vajda28(self):
        # r = 1: F(1) F(3) = F(2)^2 + (-1)^1 e, with e = -1 for Fibonacci
        g = dict(zip(range(-2, 3), window(F, -1, 5)))
        assert characteristic_e(F) == -1
        assert ONE_INDEX["vajda28"](g, 1) == (2, 2)
