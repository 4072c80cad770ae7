"""CLI behavior: output formats, exit codes, flag handling."""

import dataclasses
import gc
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gibsum
from conftest import unlimited_int_str
from gibsum import SummandKind, ZeroTermError, closed_forms, verifier
from gibsum.cli import ORACLE_AUTO_LIMIT, main, run_bench, _digest, _parse_range, _parse_seeds


def _fib_pair_mod(n, m):
    """(F(n), F(n+1)) mod m for n >= 0, by fast doubling."""
    if n == 0:
        return 0, 1
    a, b = _fib_pair_mod(n >> 1, m)
    c, d = a * (2 * b - a) % m, (a * a + b * b) % m
    return (d, (c + d) % m) if n & 1 else (c, d)


def _terms_mod(g0, g1, k, count, m):
    """G(k), ..., G(k+count-1) mod m for k >= 0."""
    f, f1 = _fib_pair_mod(k, m)
    terms = [(g1 * f + g0 * (f1 - f)) % m, (g1 * f1 + g0 * f) % m]
    while len(terms) < count:
        terms.append((terms[-1] + terms[-2]) % m)
    return terms


def _closed_mod(identity, g0, g1, t, n, m):
    """The closed form at (g0, g1, t, n) mod m, with n >= 0, and t >= 1 for sum_g6."""
    if identity == "lucas_alt_l5f":
        # the Lucas alternating sum over 5, a division known to be exact
        return _closed_mod("alt_g5", g0, g1, t, n, 5 * m) // 5
    if identity == "sum_g6":
        e2 = (g0 * g0 - g1 * g1 + g0 * g1) ** 2
        hm1, hi, hp1, _, hp3 = _terms_mod(g0, g1, n + t - 1, 5, 4 * m)
        lm1, lo, lp1, _, lp3 = _terms_mod(g0, g1, t - 1, 5, 4 * m)
        num = hi**5 * hp3 - lo**5 * lp3 + e2 * (hi * (hp1 + hm1) - lo * (lp1 + lm1))
        return num % (4 * m) // 4
    if identity in ("sum_g3g3", "treeby_l3"):
        h0, h1, h2 = _terms_mod(g0, g1, n + t, 3, 4 * m)
        l0, l1, l2 = _terms_mod(g0, g1, t, 3, 4 * m)
        return ((h0 * h1 * h2) ** 2 - (l0 * l1 * l2) ** 2) % (4 * m) // 4
    assert identity == "alt_g5"
    sign = -1 if n % 2 else 1
    h0, h1, h2 = _terms_mod(g0, g1, n + t, 3, 2 * m)
    l0, l1, l2 = _terms_mod(g0, g1, t, 3, 2 * m)
    half = ((l0 * l1 * l2) ** 2 - sign * (h0 * h1 * h2) ** 2) % (2 * m) // 2
    return (half + sign * h1**4 * h0**2 - l1**4 * l0**2) % m


def _digit_cap():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


class TestParsers:
    def test_seed_lists(self):
        assert _parse_seeds("0,1") == [(0, 1)]
        assert _parse_seeds("0,1;2,1;-3,4") == [(0, 1), (2, 1), (-3, 4)]

    @pytest.mark.parametrize("bad", ["", "1", "1,2,3", "a,b"])
    def test_bad_seeds(self, bad):
        with pytest.raises(ValueError):
            _parse_seeds(bad)

    def test_ranges(self):
        assert _parse_range("0..20") == (0, 20)
        assert _parse_range("-5..5") == (-5, 5)
        assert _parse_range("7") == (7, 7)

    @pytest.mark.parametrize("bad", ["5..1", "a..b", ""])
    def test_bad_ranges(self, bad):
        with pytest.raises(ValueError):
            _parse_range(bad)


class TestList:
    def test_json(self, capsys):
        assert main(["list"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["id"] for row in rows] == [d.id for d in verifier.REGISTRY]
        assert all(row["summand"] and row["closed_form"] and row["source"] for row in rows)

    def test_tsv(self, capsys):
        assert main(["list", "--format", "tsv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "id\tsummand\tclosed_form\tsource"
        assert len(lines) == 1 + len(verifier.REGISTRY)


# a squares row whose end is wrong: S(3) = (E(3) - E(0)) / 1 = 999 at t = 0
BROKEN_SQUARES = (lambda spec, m: 333 * m, 1, False, "sum_squares_closed")
# each integer family's telescoping row in closed_forms
ROWS = {
    SummandKind.SIXTH_POWER: "_SIXTH",
    SummandKind.SQUARE: "_SQUARES",
    SummandKind.ALT_FIFTH_NEIGHBOR: "_ALT_FIFTH",
    SummandKind.CUBE_PRODUCT: "_CUBES_PRODUCT",
}


class TestEval:
    def test_both_match(self, capsys):
        code = main(["eval", "sum_g6", "--g0", "0", "--g1", "1", "--t", "0", "--n", "5",
                     "--method", "both"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["closed"] == payload["oracle"] == "16420"
        assert payload["match"] is True

    def test_closed_only(self, capsys):
        assert main(["eval", "lucas6", "--t", "0", "--n", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["closed"] == "1" and payload["oracle"] is None

    def test_oracle_only(self, capsys):
        assert main(["eval", "sum_g2", "--n", "3", "--method", "oracle"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle"] == "6" and payload["closed"] is None

    def test_rational_value(self, capsys):
        assert main(["eval", "recip", "--t", "1", "--n", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["closed"] == "1/18"

    def test_zero_term_exits_2(self, capsys):
        assert main(["eval", "recip", "--g0", "0", "--g1", "1", "--t", "0", "--n", "3"]) == 2
        assert "zero term at index 0" in capsys.readouterr().err

    def test_zero_term_in_huge_window_refused_at_once(self, capsys):
        # the window [-1000000, 1000002] holds the zero at index 2
        argv = ["eval", "recip", "--g0=1", "--g1=-1", "--t=-1000000", "--n=2000000"]
        assert main(argv) == 2
        assert "zero term at index 2" in capsys.readouterr().err

    def test_unknown_identity_exits_2(self, capsys):
        assert main(["eval", "nope", "--n", "1"]) == 2
        assert "unknown identity" in capsys.readouterr().err

    def test_domain_error_exits_2(self, capsys):
        assert main(["eval", "treeby_f3", "--n", "-1"]) == 2
        assert "requires n >= 0" in capsys.readouterr().err

    def test_invalid_seeds_exit_2(self, capsys):
        assert main(["eval", "sum_g2", "--g0", "0", "--g1", "0", "--n", "1"]) == 2
        assert "invalid seeds" in capsys.readouterr().err

    def test_fixed_seed_warning(self, capsys):
        assert main(["eval", "fib6", "--g0", "3", "--g1", "1", "--n", "2"]) == 0
        captured = capsys.readouterr()
        assert "fixed seeds" in captured.err
        assert json.loads(captured.out)["g0"] == "0"

    def test_fixed_seed_flags_are_not_validated(self, capsys):
        # (0, 0) would be invalid seeds, but fib6 ignores the flags
        assert main(["eval", "fib6", "--g0", "0", "--g1", "0", "--n", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: fib6 has fixed seeds (0, 1); ignoring --g0/--g1\n"
        payload = json.loads(captured.out)
        assert (payload["g0"], payload["g1"], payload["closed"]) == ("0", "1", "66")

    def test_fixed_shift_warning(self, capsys):
        assert main(["eval", "treeby_f3", "--t", "5", "--n", "2"]) == 0
        assert "fixed shift" in capsys.readouterr().err

    def test_missing_n_usage_error(self, capsys):
        assert main(["eval", "sum_g6"]) == 2

    def test_tsv_format(self, capsys):
        assert main(["eval", "sum_g2", "--n", "3", "--method", "both", "--format", "tsv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("identity\t")
        assert lines[1] == "sum_g2\t0\t1\t0\t3\t6\t6\ttrue\t"

    @pytest.mark.parametrize("method, row", [
        ("closed", "sum_g2\t0\t1\t0\t3\t6\t\t\t"),
        ("oracle", "sum_g2\t0\t1\t0\t3\t\t6\t\t"),
    ], ids=("closed", "oracle"))
    def test_tsv_match_cell_empty_without_comparison(self, capsys, method, row):
        assert main(["eval", "sum_g2", "--n", "3", "--method", method, "--format", "tsv"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == row

    def test_seed_over_default_digit_cap(self, capsys):
        # main() lifts CPython's 4300-digit int/str cap while it runs, then restores it
        big = 10**5000 - 1
        cap = _digit_cap()
        assert main(["eval", "sum_g2", f"--g0={'9' * 5000}", "--g1=1", "--n=2"]) == 0
        assert _digit_cap() == cap
        payload = json.loads(capsys.readouterr().out)
        with unlimited_int_str():
            assert (payload["g0"], payload["closed"]) == (str(big), str(1 + (big + 1) ** 2))

    def test_value_over_two_million_digits(self, capsys):
        # once "Exceeds the limit (2000000 digits)" and exit 2
        n = 4_900_000
        assert main(["eval", "sum_g2", f"--n={n}"]) == 0
        closed = json.loads(capsys.readouterr().out)["closed"]
        assert len(closed) > 2_000_000 and closed.isdigit()
        f_n, f_n1 = _fib_pair_mod(n, 10**30)
        assert closed[-30:] == str(f_n * f_n1 % 10**30).zfill(30)

    @pytest.mark.parametrize("identity", ["sum_g6", "alt_g5", "sum_g3g3", "treeby_l3", "lucas_alt_l5f"])
    def test_large_value_trailing_digits(self, capsys, identity):
        # computed in decimal from the seeds up; checked mod 10^30
        desc, n = verifier.descriptor(identity), 1_000_000
        spec, t = verifier.effective_inputs(desc, gibsum.SequenceSpec(3, -4), 7)
        point = [] if desc.seeds else [f"--g0={spec.g0}", f"--g1={spec.g1}", f"--t={t}"]
        assert main(["eval", identity, *point, f"--n={n}"]) == 0
        closed = json.loads(capsys.readouterr().out)["closed"]
        digits = closed.lstrip("-")
        assert len(digits) > 1_000_000 and digits.isdigit() and digits[0] != "0"
        m = 10**30
        expected = _closed_mod(identity, spec.g0, spec.g1, t, n, m)
        if closed.startswith("-"):
            expected = -expected % m
        assert digits[-30:] == str(expected).zfill(30)

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(closed_forms, "_SQUARES", BROKEN_SQUARES)
        code = main(["eval", "sum_g2", "--n", "3", "--method", "both"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["match"] is False

    def test_both_compares_the_printed_text(self, capsys, monkeypatch):
        # the printed text comes from the broken row, and --method both
        # compares that text with the oracle's
        monkeypatch.setattr(closed_forms, "_SQUARES", BROKEN_SQUARES)
        assert main(["eval", "sum_g2", "--n=3"]) == 0
        printed = json.loads(capsys.readouterr().out)["closed"]
        assert printed == "999"
        assert main(["eval", "sum_g2", "--n=3", "--method=both", "--format=tsv"]) == 1
        row = capsys.readouterr().out.splitlines()[1].split("\t")
        assert row[5:8] == [printed, "6", "false"]


class TestVerify:
    def test_seeds_over_default_digit_cap(self, capsys):
        big = "9" * 5000
        cap = _digit_cap()
        assert main(["verify", "sum_g2", f"--seeds={big},1;2,-{big}", "--n=0..2", "--format=tsv"]) == 0
        assert _digit_cap() == cap
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split("\t")[1:3] for row in rows] == [[big, "1"]] * 3 + [["2", "-" + big]] * 3

    def test_single_identity_json(self, capsys):
        code = main(["verify", "sum_g2", "--seeds", "0,1;2,1", "--t=-1..1", "--n", "0..4"])
        assert code == 0
        captured = capsys.readouterr()
        reports = json.loads(captured.out)
        assert len(reports) == 2 * 3 * 5
        assert all(r["match"] for r in reports)
        assert "sum_g2: 30/30 match" in captured.err
        assert "total: 30/30 match" in captured.err

    def test_all_identities(self, capsys):
        code = main(["verify", "all", "--seeds", "0,1;2,1;3,1", "--t=-2..2", "--n", "0..6"])
        assert code == 0
        reports = json.loads(capsys.readouterr().out)
        seen = {r["identity"] for r in reports}
        assert seen == set(d.id for d in verifier.REGISTRY)

    def test_tsv_row_count_matches_grid(self, capsys):
        code = main(["verify", "sum_g6", "--seeds", "0,1;3,-4", "--t", "0..2", "--n", "0..5",
                     "--format", "tsv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 2 * 3 * 6

    def test_vacuous_error_points_still_pass(self, capsys):
        code = main(["verify", "recip", "--seeds", "0,1", "--t", "0..0", "--n", "0..5"])
        assert code == 0
        reports = json.loads(capsys.readouterr().out)
        assert all(r["match"] and "zero term" in r["error"] for r in reports)

    def test_range_aliases(self, capsys):
        code = main(["verify", "sum_g2", "--t-range", "0..1", "--n-range", "0..2"])
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)) == 6

    def test_invalid_seed_exits_2(self, capsys):
        assert main(["verify", "sum_g6", "--seeds", "0,0", "--n", "0..2"]) == 2

    def test_empty_range_exits_2(self, capsys):
        assert main(["verify", "sum_g6", "--n", "5..1"]) == 2

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(closed_forms, "_SQUARES", BROKEN_SQUARES)
        code = main(["verify", "sum_g2", "--seeds", "0,1", "--t", "0..0", "--n", "1..3"])
        assert code == 1
        captured = capsys.readouterr()
        assert "sum_g2: 0/3 match" in captured.err

    @pytest.mark.parametrize(
        "identity", [d.id for d in verifier.REGISTRY if d.kind in ROWS]
    )
    def test_broken_row_fails_verify_and_eval(self, capsys, monkeypatch, identity):
        # verify checks the same evaluation eval prints; 5 d m keeps the
        # divisions exact, lucas_alt_l5f's /5 included
        desc = verifier.descriptor(identity)
        end, d, alternating, op = getattr(closed_forms, ROWS[desc.kind])
        broken = (lambda spec, m: end(spec, m) + 5 * d * m, d, alternating, op)
        monkeypatch.setattr(closed_forms, ROWS[desc.kind], broken)
        assert main(["verify", identity, "--n=1..3"]) == 1
        assert main(["eval", identity, "--n=3", "--method=both"]) == 1
        assert "0/3 match" in capsys.readouterr().err


class TestBench:
    @pytest.mark.parametrize("identity", verifier.identity_ids())
    def test_small_run_with_oracle(self, capsys, identity):
        # seeds (3, -4) have no zero term, so recip is defined at every n
        point = ["--g0=3", "--g1=-4", "--t=-2"] if identity in SEED_FREE_IDS else []
        code = main(["bench", identity, *point, "--n", "50", "--repeat", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["match"] is True
        assert payload["closed_seconds"] >= 0 and payload["oracle_seconds"] >= 0
        assert payload["closed_value"]["digits"] > 0

    def test_auto_skips_oracle_above_limit(self, capsys, monkeypatch):
        monkeypatch.setattr("gibsum.cli.ORACLE_AUTO_LIMIT", 10)
        code = main(["bench", "sum_g6", "--n", "11", "--repeat", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle_seconds"] is None and payload["match"] is None
        assert "--force-oracle" in payload["note"]

    def test_force_oracle(self, capsys, monkeypatch):
        monkeypatch.setattr("gibsum.cli.ORACLE_AUTO_LIMIT", 10)
        code = main(["bench", "sum_g6", "--n", "11", "--repeat", "1", "--force-oracle"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["match"] is True

    def test_fixed_seed_flags_are_not_validated(self, capsys):
        code = main(["bench", "treeby_f3", "--g0", "0", "--g1", "0", "--n", "3", "--repeat", "1"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: treeby_f3 has fixed seeds (0, 1); ignoring --g0/--g1\n"
        payload = json.loads(captured.out)
        assert (payload["g0"], payload["g1"]) == ("0", "1")
        assert payload["closed_value"]["leading"] == "225" and payload["match"] is True

    def test_point_flags_on_seed_free_identity(self, capsys):
        code = main(["bench", "sum_g6", "--g0=3", "--g1=-4", "--t=-2", "--n=25", "--repeat=1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["g0"], payload["g1"], payload["t"], payload["n"]) == ("3", "-4", -2, 25)
        assert payload["match"] is True

    def test_n_zero_usage_error(self, capsys):
        assert main(["bench", "sum_g6", "--n", "0"]) == 2
        assert "n >= 1" in capsys.readouterr().err

    def test_run_bench_zero_term_exits_2(self, capsys):
        assert main(["bench", "recip", "--n", "3"]) == 2

    def test_run_bench_reports_digits(self):
        from gibsum.closed_forms import sum_sixth_closed
        from gibsum.sequences import FIBONACCI

        result = run_bench("sum_g6", n=100, repeats=1)
        text = str(sum_sixth_closed(FIBONACCI, 0, 100))
        assert result["closed_value"]["digits"] == len(text)
        assert result["closed_value"]["leading"] == text[:24]

    def test_run_bench_json_shape(self):
        def fib_digest(n, power):  # digest of F(1)^p + ... + F(n)^p, summed here
            a, b, total = 0, 1, 0
            for _ in range(n):
                a, b = b, a + b
                total += a**power
            with unlimited_int_str():
                text = str(total)
            return {"leading": text[:24], "digits": len(text)}

        head = ["identity", "g0", "g1", "t", "n", "repeats", "closed_seconds", "closed_value"]
        tail = ["oracle_seconds", "oracle_value", "match"]
        point = {"g0": "0", "g1": "1", "t": 0}
        big = ORACLE_AUTO_LIMIT + 1
        g2 = fib_digest(big, 2)
        runs = [
            (run_bench("sum_g6", n=50, repeats=3),
             {"identity": "sum_g6", "n": 50, "repeats": 3, "match": True}, fib_digest(50, 6)),
            (run_bench("sum_g2", n=big, repeats=1),
             {"identity": "sum_g2", "n": big, "repeats": 1, "match": None, "oracle_value": None,
              "oracle_seconds": None,
              "note": f"oracle skipped for n > {ORACLE_AUTO_LIMIT}; pass --force-oracle to run it"},
             g2),
            (run_bench("sum_g2", n=big, repeats=1, force_oracle=True),
             {"identity": "sum_g2", "n": big, "repeats": 1, "match": True}, g2),
        ]
        for result, expected, digest in runs:
            expected = {**point, "closed_value": digest, "oracle_value": digest, **expected}
            assert list(result) == head + tail + (["note"] if "note" in expected else [])
            for key, value in result.items():
                if key.endswith("_seconds") and key not in expected:  # a timing that ran
                    assert type(value) is float and value >= 0
                else:
                    assert value == expected[key], key

    def test_zero_repeats_usage_error(self, capsys):
        assert main(["bench", "sum_g2", "--n=3", "--repeat=0"]) == 2
        assert capsys.readouterr().err == "error: bench requires repeats >= 1, got 0\n"

    @pytest.mark.parametrize("value,digits", [(0, 1), (-12, 2), (Fraction(-123, 4567), 7)])
    def test_digest_counts_digits_only(self, value, digits):
        assert _digest(value)["digits"] == digits


SEED_FREE_IDS = ("sum_g6", "sum_g2", "alt_g5", "sum_g3g3", "recip")
SPECIAL_IDS = ("fib_alt_f5l", "lucas_alt_l5f", "treeby_f3", "treeby_l3", "recip_fib", "recip_lucas")


def _perfbench_tracer():
    """perfbench/tracer.py, loaded without putting perfbench on sys.path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestStartUp:
    def test_identity_descriptor_is_the_only_dataclass(self):
        # a @dataclass loads dataclasses and inspect in every gibsum process
        # and execs its generated methods, so value classes are plain
        # classes; IdentityDescriptor is one too and only declares an empty
        # __dataclass_fields__, because perfbench/tracer.py calls
        # dataclasses.fields() on each entry, and is_dataclass reads that
        found = []
        for info in pkgutil.iter_modules(gibsum.__path__):
            module = importlib.import_module(f"gibsum.{info.name}")
            found += [
                value.__name__ for value in vars(module).values()
                if isinstance(value, type) and value.__module__ == module.__name__
                and dataclasses.is_dataclass(value)
            ]
        assert found == ["IdentityDescriptor"]

    def test_cli_import_skips_the_property_suites(self):
        # no CLI command uses them; gibsum loads them on first access
        src = str(Path(gibsum.__file__).parents[1])
        script = (
            "import sys, gibsum.cli; print('gibsum.properties' in sys.modules); "
            "from gibsum import check_telescoping; print('gibsum.properties' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]

    def test_cli_loads_no_dataclasses_typing_or_json(self):
        # -S: no site .pth file loads them first; verify formats its own rows
        src = str(Path(gibsum.__file__).parents[1])
        script = (
            "import sys, gibsum.cli; unused = ('dataclasses', 'inspect', 'typing', 'json'); "
            "print([m for m in unused if m in sys.modules]); "
            "code = gibsum.cli.main(['verify', 'sum_g2', '--n=0..3']); "
            "print(code, [m for m in unused if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert (lines[0], lines[-2], lines[-1]) == ("[]", "]", "0 []")


class TestEntryPoints:
    def test_module_invocation(self):
        # the child imports the same gibsum as this process, also when only
        # pytest's own pythonpath setting put it on the path
        src = str(Path(gibsum.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "gibsum", "eval", "sum_g6", "--n", "5", "--method", "both"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["match"] is True

    @pytest.mark.parametrize("method", ["closed", "both"])
    @pytest.mark.parametrize("identity", [*SEED_FREE_IDS, *SPECIAL_IDS])
    def test_traced_child_prints_the_same(self, tmp_path, capsys, identity, method):
        # perfbench's tracer wraps the public closed forms and reads
        # int/Fraction results; eval must run unchanged under it
        root = Path(__file__).resolve().parents[1]
        src = str(Path(gibsum.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, str(root / "perfbench")))}
        n = 5000 if method == "closed" else 500  # the recip oracle is slow at 5000
        point = ["--g0=3", "--g1=-4", "--t=2"] if identity in SEED_FREE_IDS else []
        argv = ["eval", identity, *point, f"--n={n}", f"--method={method}"]
        spans = tmp_path / "spans.json"
        traced = subprocess.run(
            [sys.executable, str(root / "perfbench" / "cli_child.py"), str(spans), *argv],
            capture_output=True, text=True, env=env,
        )
        assert traced.returncode == 0, traced.stderr
        assert main(argv) == 0
        assert traced.stdout == capsys.readouterr().out
        assert spans.stat().st_size > 0

    def test_traced_verify_prints_the_same(self, tmp_path, capsys):
        root = Path(__file__).resolve().parents[1]
        src = str(Path(gibsum.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, str(root / "perfbench")))}
        argv = ["verify", "all", "--seeds=0,1;3,-2", "--t=-1..0", "--n=-3..2"]
        spans = tmp_path / "spans.json"
        traced = subprocess.run(
            [sys.executable, str(root / "perfbench" / "cli_child.py"), str(spans), *argv],
            capture_output=True, text=True, env=env,
        )
        assert traced.returncode == 0, traced.stderr
        assert main(argv) == 0
        assert traced.stdout == capsys.readouterr().out
        assert spans.stat().st_size > 0

    def test_traced_special_is_one_call(self, tmp_path):
        # the tracer wraps every public closed form, so a special that
        # called another public form would record a span inside its own
        root = Path(__file__).resolve().parents[1]
        src = str(Path(gibsum.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        forms = verifier.REGISTRY  # the seed-free forms too: alt_g5 returns an int
        jobs, spans = tmp_path / "jobs.json", tmp_path / "spans.json"
        jobs.write_text(json.dumps([[d.id, 0, 1, 2, 30] for d in forms]))
        traced = subprocess.run(
            [sys.executable, str(root / "perfbench" / "api_child.py"), str(jobs), str(spans)],
            capture_output=True, text=True, env=env,
        )
        assert traced.returncode == 0, traced.stderr
        records = [json.loads(line) for line in traced.stdout.splitlines()]
        assert len(records) == len(forms) and all("num" in r for r in records)
        integral = [d.kind is not SummandKind.RECIPROCAL_WINDOW for d in forms]
        assert [r["den"] == 1 for r in records] == integral
        record = json.loads(spans.read_text())
        tracer = _perfbench_tracer()
        closed = tracer.LAYERS.index("closed_forms")
        parents = [p for layer, p in zip(record["layer"], record["parent"]) if layer == closed]
        assert parents == [-1] * len(forms)

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_closed_pipe_exits_141(self, fmt):
        # `gibsum verify ... | head -c 1` with over 1 MB of rows: no traceback,
        # and not 1, which means a mismatch
        src = str(Path(gibsum.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as in a plain shell
        proc = subprocess.Popen(
            [sys.executable, "-m", "gibsum", "verify", "sum_g6",
             "--t=-2..2", "--n=0..400", f"--format={fmt}"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert len(proc.stdout.read(1)) == 1
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert b"Traceback" not in err and b"Exception ignored" not in err

    @pytest.mark.parametrize(
        "argv", [["list"], ["eval", "sum_g6", "--n=5"], ["verify", "sum_g2", "--n=0..3"]],
        ids=("list", "eval", "verify"),
    )
    def test_reader_gone_before_first_write_exits_141(self, argv):
        # less than a buffer of output, so the first write is a flush; at
        # interpreter exit it would be past main's handler
        src = str(Path(gibsum.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("PYTHONUNBUFFERED", None)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "gibsum", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert b"Traceback" not in proc.stderr and b"Exception ignored" not in proc.stderr

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_closed_pipe_leaks_no_descriptor(self, monkeypatch):
        # in process, each call on a pipe of its own whose reader is gone:
        # main points that pipe's descriptor at devnull and keeps no other
        def call():
            read_end, write_end = os.pipe()
            os.close(read_end)
            with open(write_end, "w") as stdout, monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", stdout)
                return main(["verify", "sum_g2", "--n=0..200"])

        before = len(os.listdir("/proc/self/fd"))
        codes = [call() for _ in range(3)]
        assert codes == [141] * 3
        assert len(os.listdir("/proc/self/fd")) == before

    def test_main_leaves_the_collector_alone(self, capsys):
        # freezing an embedding caller's heap would keep its garbage cycles
        # forever; only the process entry freezes
        frozen = gc.get_freeze_count()
        assert main(["list"]) == 0
        assert main(["verify", "sum_g2", "--n=0..3"]) == 0
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("argv", [["eval", "sum_g6", "--n=5"], ["eval", "recip", "--n=5"]],
                             ids=("exit0", "exit2"))
    def test_process_entry_returns_the_exit_code(self, capsys, argv):
        src = str(Path(gibsum.__file__).parents[1])
        script = (
            "import gc, sys; from gibsum.__main__ import run; "
            f"sys.argv[1:] = {argv!r}; code = run(); "
            "print(code, gc.get_freeze_count() > 0, file=sys.stderr)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0
        expected = main(argv)
        assert proc.stderr.split()[-2:] == [str(expected), "True"]
        assert proc.stdout == capsys.readouterr().out

    def test_script_runs_the_process_entry(self):
        # the installed script and python -m gibsum end through one function
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["gibsum"] == "gibsum.__main__:run"

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_no_command_usage_error(self):
        assert main([]) == 2
