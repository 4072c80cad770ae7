"""Golden CLI transcript: stdout, stderr and exit code of fixed `gibsum` calls.

Each call runs `cli.main` in process; PROCESS_CASES also run through
`python -m gibsum`, the process entry. The expected transcript is
golden_cli.json next to this file, in the order of CASES. Timings and
--help text are left out: the first changes from run to run, the second
with the terminal width. After a deliberate change to CLI output,
regenerate the transcript and review its diff:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import gibsum
from gibsum.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

IDS = (
    "sum_g6", "sum_g2", "alt_g5", "sum_g3g3", "recip", "fib6", "lucas6",
    "fib_alt_f5l", "lucas_alt_l5f", "treeby_f3", "treeby_l3", "recip_fib", "recip_lucas",
)
SEED_FREE = {"sum_g6", "sum_g2", "alt_g5", "sum_g3g3", "recip"}
NS = (0, 1, 7, -9)


def _eval_cases():
    """Each id under --method closed and both; formats alternate, n cycles over NS."""
    cases = []
    for i, identity in enumerate(IDS):
        point = ["--g0=3", "--g1=-4", "--t=-2"] if identity in SEED_FREE else []
        for k, method in enumerate(("closed", "both")):
            fmt = ("json", "tsv")[k ^ (i % 2)]
            n = NS[(i + 2 * k) % 4]
            cases.append(["eval", identity, *point, f"--n={n}", f"--method={method}", f"--format={fmt}"])
    return cases


SPECIALS = ("fib_alt_f5l", "lucas_alt_l5f", "treeby_f3", "treeby_l3", "recip_fib", "recip_lucas")


def _special_cases():
    """The alternating, cube-product and reciprocal specials past their small values."""
    return [
        ["eval", identity, f"--n={15 if identity.startswith('recip') else 40}",
         f"--method={method}", f"--format={fmt}"]
        for identity in SPECIALS
        for method in ("closed", "both")
        for fmt in ("json", "tsv")
    ]


GRID = ["--seeds=0,1;3,-2", "--t=-1..0", "--n=-3..2"]  # (0, 1) and (3, -2) hold a zero term

CASES = [
    ["list"],
    ["list", "--format=tsv"],
    *_eval_cases(),
    ["eval", "fib_alt_f5l", "--n=7"],
    ["eval", "treeby_f3", "--n=7", "--method=both", "--format=tsv"],
    ["eval", "recip_fib", "--n=7"],
    ["eval", "recip_lucas", "--n=1", "--format=tsv"],
    ["eval", "recip", "--t=2", "--n=3"],
    ["eval", "sum_g6", "--n=-9"],
    ["eval", "sum_g6", "--g0=2", "--g1=1", "--t=5", "--n=3000", "--method=both"],
    ["eval", "sum_g3g3", "--g0=2", "--g1=1", "--t=-40", "--n=9", "--method=both", "--format=tsv"],
    ["eval", "lucas6", "--t=-5", "--n=-9", "--method=both"],
    # values over render.STR_CUTOFF_BITS, compared as text
    ["eval", "sum_g2", "--g0=2", "--g1=1", "--t=3", "--n=9000", "--method=both"],
    ["eval", "alt_g5", "--g0=3", "--g1=-4", "--t=-7", "--n=3000", "--method=both"],
    ["eval", "sum_g3g3", "--g0=-2", "--g1=5", "--t=4", "--n=3001", "--method=both", "--format=tsv"],
    ["eval", "fib6", "--n=3000", "--format=tsv"],
    ["eval", "lucas6", "--t=-1", "--n=3000", "--method=both"],
    ["eval", "fib_alt_f5l", "--n=3000", "--method=both", "--format=tsv"],
    ["eval", "lucas_alt_l5f", "--n=3000"],
    ["eval", "treeby_f3", "--n=3000", "--method=both"],
    ["eval", "treeby_l3", "--n=3000", "--format=tsv"],
    *_special_cases(),
    # --method oracle compares nothing
    ["eval", "sum_g2", "--g0=2", "--g1=1", "--n=7", "--method=oracle"],
    ["eval", "alt_g5", "--g0=2", "--g1=1", "--t=1", "--n=-9", "--method=oracle", "--format=tsv"],
    ["eval", "recip_lucas", "--n=7", "--method=oracle", "--format=tsv"],
    ["eval", "recip", "--g0=3", "--g1=-2", "--n=-9", "--method=oracle"],
    ["eval", "lucas_alt_l5f", "--n=12", "--method=oracle", "--format=tsv"],  # the oracle-side divisor alone
    # zero-term refusals
    ["eval", "recip", "--n=5"],
    ["eval", "recip", "--g0=3", "--g1=-2", "--t=-1", "--n=7", "--method=both", "--format=tsv"],
    ["eval", "recip", "--g0=3", "--g1=-2", "--t=2", "--n=-9", "--method=oracle"],
    ["eval", "recip", "--g0=1", "--g1=-1", "--t=3", "--n=-2", "--method=oracle"],  # zero at t-1
    # flags the identity fixes: a warning, then the fixed value
    ["eval", "fib6", "--g0=5", "--g1=2", "--n=7"],
    ["eval", "treeby_f3", "--t=2", "--n=3", "--format=tsv"],
    # domain errors
    ["eval", "treeby_l3", "--n=-1"],
    ["eval", "recip_fib", "--n=0"],
    ["eval", "sum_g2", "--g0=0", "--g1=0", "--n=1"],
    # usage errors
    ["eval", "nope", "--n=1"],
    ["verify", "sum_g2", "--n=3..1"],
    ["verify", "all", "--seeds=1"],
    ["bench", "sum_g2", "--n=0"],
    ["bench", "recip", "--n=3"],
    ["bench", "nope", "--n=3"],
    # sweeps with negative n and a zero-bearing seed pair
    ["verify", "all", *GRID],
    ["verify", "all", *GRID, "--format=tsv"],
    ["verify", "sum_g6", "--seeds=2,1;-2,5", "--t=-2..2", "--n=-2..2", "--format=tsv"],
    ["verify", "fib6", "--n=-3..3", "--format=tsv"],
    ["verify", "lucas_alt_l5f", "--n=-2..4"],
    # sweep rows over render.STR_CUTOFF_BITS, denominator-1 Fractions, and p/q cells
    ["verify", "sum_g6", "--seeds=517,-802", "--t=3", "--n=2998..3000"],
    ["verify", "alt_g5", "--seeds=2,1", "--t=-1..1", "--n=-3..3", "--format=tsv"],
    ["verify", "recip", "--seeds=3,-2;1,1", "--t=-2..1", "--n=-3..3", "--format=tsv"],
    # zeros at indices 2 and 4, met by both walks; S(0) never touches t+3
    ["verify", "recip", "--seeds=1,-1;-3,2", "--t=-1..3", "--n=-3..4", "--format=tsv"],
    # sweep windows straddling |k| = 91, the largest index whose Fibonacci
    # pair (F(k), F(k+1)) fits a signed 64-bit word
    ["verify", "sum_g6", "--seeds=2,1;-3,5", "--t=88..92", "--n=-2..3"],
    ["verify", "sum_g6", "--seeds=2,1;-3,5", "--t=-92..-88", "--n=-2..3"],
    ["verify", "recip", "--seeds=2,1", "--t=87..91", "--n=-2..3"],
    # a special's fixed seeds and shift collapse the grid, with domain rows
    ["verify", "treeby_l3", "--seeds=3,-2;5,1", "--t=-2..2", "--n=-2..3", "--format=tsv"],
    ["verify", "recip_lucas", "--seeds=3,-2", "--t=4", "--n=-1..3"],
    # the exact /5 of lucas_alt_l5f over render.STR_CUTOFF_BITS, in a sweep and in eval
    ["verify", "lucas_alt_l5f", "--n=2998..3000", "--format=tsv"],
    ["eval", "lucas_alt_l5f", "--g0=3", "--g1=-4", "--t=9", "--n=3000", "--method=both", "--format=tsv"],
]


def run(argv):
    """stdout, stderr and exit code of one in-process `gibsum` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


# run again as processes: the shutdown after main returns must not change a byte
PROCESS_CASES = [
    ["list"],
    ["eval", "sum_g2", "--g0=2", "--g1=1", "--t=3", "--n=9000", "--method=both"],
    ["eval", "recip", "--n=5"],
    ["bench", "nope", "--n=3"],
    ["verify", "all", *GRID],
    ["verify", "recip", "--seeds=1,-1;-3,2", "--t=-1..3", "--n=-3..4", "--format=tsv"],
]


def run_process(argv):
    """stdout, stderr and exit code of one `python -m gibsum` process."""
    env = {**os.environ, "PYTHONPATH": str(Path(gibsum.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as in a plain shell
    proc = subprocess.run(
        [sys.executable, "-m", "gibsum", *argv],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=60,
    )
    return {"argv": argv, "exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


@pytest.fixture(scope="module")
def transcript():
    with GOLDEN.open(encoding="utf-8") as fh:
        return json.load(fh)


def test_transcript_covers_cases(transcript):
    assert [entry["argv"] for entry in transcript] == CASES


@pytest.mark.parametrize("index", range(len(CASES)), ids=lambda i: " ".join(CASES[i]))
def test_golden(index, transcript):
    assert run(CASES[index]) == transcript[index]


@pytest.mark.parametrize("argv", PROCESS_CASES, ids=" ".join)
def test_golden_process(argv, transcript):
    assert run_process(argv) == transcript[CASES.index(argv)]


def test_process_flushes_large_output():
    # over 1 MB through a block-buffered stdout, whole after the freeze
    argv = ["verify", "sum_g6", "--t=-2..2", "--n=0..400"]
    process = run_process(argv)
    assert len(process["stdout"]) > 1_000_000
    assert process == run(argv)


if __name__ == "__main__":
    with GOLDEN.open("w", encoding="utf-8") as fh:
        json.dump([run(argv) for argv in CASES], fh, indent=1, ensure_ascii=False)
        fh.write("\n")
