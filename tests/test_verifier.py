"""Registry, single-point verification, sweeps, and property suites."""

import dataclasses
import inspect
import json
from fractions import Fraction

import pytest

from conftest import GRID_SEEDS, TELESCOPE_SEEDS, TELESCOPE_SHIFTS
from gibsum import (
    GridSpec,
    POINT_IDENTITY_IDS,
    REGISTRY,
    SequenceSpec,
    TSV_COLUMNS,
    UnknownIdentityError,
    ZeroTermError,
    check_point_identities,
    check_telescoping,
    descriptor,
    identity_ids,
    render_value,
    sweep,
    verify_one,
)
from gibsum import closed_forms, verifier

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


class TestRegistry:
    def test_ids_complete_and_ordered(self):
        assert identity_ids() == SPEC_IDS

    def test_unknown_id(self):
        with pytest.raises(UnknownIdentityError):
            descriptor("nope")

    def test_each_closed_form_evaluates_exactly_one_entry(self):
        public = [
            fn for name, fn in inspect.getmembers(closed_forms, inspect.isfunction)
            if fn.__module__ == closed_forms.__name__ and not name.startswith("_")
        ]
        evaluators = [d.evaluate for d in REGISTRY]
        assert len(public) == len(REGISTRY)
        for fn in public:
            assert evaluators.count(fn) == 1, fn.__name__


class TestRenderValue:
    def test_integers(self):
        assert render_value(5) == "5"
        assert render_value(-12) == "-12"
        assert render_value(Fraction(4, 2)) == "2"

    def test_ratios(self):
        assert render_value(Fraction(10, 4)) == "5/2"
        assert render_value(Fraction(-1, 18)) == "-1/18"


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
        broken = dataclasses.replace(
            descriptor("sum_g2"), evaluate=lambda spec, t, n: 999
        )
        monkeypatch.setitem(verifier._BY_ID, "sum_g2", broken)
        rep = verify_one("sum_g2", F, 0, 3)
        assert not rep.match
        assert rep.closed == "999" and rep.oracle == "6" and rep.error is None

    def test_one_sided_error_is_mismatch(self, monkeypatch):
        def explode(spec, t, n):
            raise ZeroTermError(99, spec.seeds)

        broken = dataclasses.replace(descriptor("sum_g2"), evaluate=explode)
        monkeypatch.setitem(verifier._BY_ID, "sum_g2", broken)
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


class TestTelescoping:
    def test_spot_ranges(self):
        assert all(r.match for r in check_telescoping("sum_g6", F, 0, (1, 10)))
        assert all(r.match for r in check_telescoping("sum_g6", SequenceSpec(3, 1), -3, (-5, 5)))
        assert all(r.match for r in check_telescoping("alt_g5", SequenceSpec(2, 1), 0, (1, 10)))

    def test_every_identity_over_negative_and_positive_n(self):
        for identity_id in identity_ids():
            for seeds in TELESCOPE_SEEDS:
                for t in TELESCOPE_SHIFTS:
                    reps = check_telescoping(identity_id, SequenceSpec(*seeds), t, (-20, 20))
                    assert all(r.match for r in reps), (identity_id, seeds, t)

    def test_domain_clipping(self):
        reps = check_telescoping("fib_alt_f5l", F, 0, (-20, 20))
        assert reps[0].n == 1 and reps[-1].n == 20
        reps = check_telescoping("recip_fib", F, 0, (-20, 20))
        assert reps[0].n == 2

    def test_zero_term_points_pass_vacuously(self):
        reps = check_telescoping("recip", F, 0, (1, 5))
        assert reps and all(r.match and "zero term" in r.error for r in reps)


class TestPointIdentities:
    @pytest.mark.parametrize("seeds", GRID_SEEDS)
    def test_all_hold(self, seeds):
        reps = check_point_identities(SequenceSpec(*seeds), (-30, 30), (-10, 10))
        assert all(r.match for r in reps)
        assert {r.identity for r in reps} == set(POINT_IDENTITY_IDS)

    def test_report_count(self):
        reps = check_point_identities(F, (-2, 2), (0, 3))
        # 5 r-values, 6 single-index identities plus 4 s-values of vajda10a
        assert len(reps) == 5 * (6 + 4)

    def test_spot_vajda28(self):
        reps = check_point_identities(F, (1, 1), (0, 0))
        by_id = {r.identity: r for r in reps}
        assert by_id["vajda28"].closed == "2"  # F(1) F(3) = 1 * 2
        assert by_id["vajda28"].match
