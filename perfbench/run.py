"""gibsum benchmark: seeded workloads, timed from outside, outputs checked mod P.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gibsum checkout; children import gibsum from ./src.
NAME is one of eval_cli, closed_api, verify_grid, verify_lines, or `all`.

One benchmark process drives a closed loop with a single client: it runs
one gibsum child process at a time. A pass runs the workload's fixed
operation list once; passes repeat until S seconds have gone by, and at
least MIN_PASSES times. Each execution's time is scaled to reference host
speed by the probe timed around it (probe.py), and each operation is
reported at its median over the passes (see typical_times). Every output is
checked against `modp`, and a wrong output, an unexpected exit code or an
operation over its time budget (the child is killed) counts as a failed
operation.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1, passes alternate untraced and traced, and it reports per-layer
metrics from spans recorded around the calls into each gibsum module, plus
the tracing overhead. The exit code is 0 only if every operation passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter

import probe
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 3            # untraced; every operation's time is its median over these
SETUP_LAUNCHES = 5        # interpreter launches behind setup_s, before each of the
                          # first MIN_PASSES passes, so they spread over the run
RUN_LIMIT_S = 150.0       # no operation starts, or runs, past this point of a run

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_s_p50": "s", "op_s_tail": "s", "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "sequences.term.calls": "count",
    "sequences.term.self_s": "s",
    "sequences.first_zero_in_window.calls": "count",
    "sequences.first_zero_in_window.self_s": "s",
    "sequences.first_zero_in_window.indices": "count",
    "closed_forms.calls": "count",
    "closed_forms.self_s": "s",
    "closed_forms.result_bits": "bits",
    "oracle.oracle_sum.calls": "count",
    "oracle.oracle_sum.self_s": "s",
    "oracle.summands": "count",
    "verifier.render_value.calls": "count",
    "verifier.render_value.self_s": "s",
    "verifier.render_value.digits": "count",
    "verifier.sweep.self_s": "s",
    "verifier.points": "count",
    "verifier.vacuous_domain": "count",
    "verifier.vacuous_zero": "count",
    "verifier.mismatches": "count",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Child:
    code: int
    seconds: float
    probe_s: float
    rss_mb: float
    out: bytes
    err: bytes
    timed_out: bool


class Runner:
    """Runs one child at a time through the launcher process (see launcher.py)."""

    def __init__(self, root: str, work: str):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        # its own process group, so that close() can stop it with its child
        self.launcher = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True,
        )

    def close(self) -> None:
        """End the launcher; if it is still running a child, kill both."""
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(self.launcher.pid, signal.SIGKILL)
            self.launcher.wait()

    def run(self, args: list, budget: float, probe_kind: str = "mixed") -> Child:
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        request = {"argv": [sys.executable, *args], "env": self.env, "budget": budget,
                   "stdout": out_path, "stderr": err_path, "probe": probe_kind}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended unexpectedly")
        reply = json.loads(reply)
        with open(out_path, "rb") as fh:
            out = fh.read()
        with open(err_path, "rb") as fh:
            err = fh.read()
        return Child(reply["code"], reply["seconds"], reply["probe_s"], reply["rss_mb"], out,
                     err, reply["timed_out"])


class Pass:
    """Results of one pass over the operation list."""

    def __init__(self):
        self.op_seconds: dict[int, float] = {}  # operation index -> seconds at reference speed
        self.raw_seconds = 0.0  # the same, summed, as measured
        self.rss_mb = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.layers: dict = {}
        self.import_s: list[float] = []

    def add_child(self, child: Child) -> None:
        self.rss_mb = max(self.rss_mb, child.rss_mb)

    def add_time(self, i: int, seconds: float, probe_s: float, kind: str = "mixed") -> None:
        self.op_seconds[i] = probe.adjusted(seconds, probe_s, kind)
        self.raw_seconds += seconds

    def add_spans(self, path: str, stdout_bytes: int) -> None:
        with open(path) as fh:
            summary = tracer.summarize(json.load(fh))
        self.import_s.append(summary.pop("cli.import_s"))
        summary["cli.stdout_bytes"] = stdout_bytes
        for key, value in summary.items():
            self.layers[key] = self.layers.get(key, 0) + value

    def fail(self, label: str, problem: str) -> None:
        self.failures.append(f"{label}: {problem}")


def _checked(op, *args) -> str | None:
    try:
        return op.check(*args)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed output ({exc!r})"


def cli_pass(runner: Runner, ops: list, traced: bool, deadline: float) -> Pass:
    result = Pass()
    spans = os.path.join(runner.work, "spans.json")
    for i, op in enumerate(ops):
        result.attempted += 1
        budget = min(op.budget, deadline - perf_counter())
        if budget <= 0:
            result.fail(op.label, "not started: run time limit reached")
            continue
        if traced:
            if os.path.exists(spans):
                os.remove(spans)
            args = [os.path.join(HERE, "cli_child.py"), spans, *op.argv]
        else:
            args = ["-m", "gibsum", *op.argv]
        child = runner.run(args, budget, op.probe)
        result.add_child(child)
        result.add_time(i, child.seconds, child.probe_s, op.probe)
        if child.timed_out:
            result.fail(op.label, f"killed after its {budget:.0f} s budget")
            continue
        problem = _checked(op, child.code, child.out, child.err)
        if problem:
            result.fail(op.label, problem)
        elif traced:
            result.add_spans(spans, len(child.out))
    return result


def api_pass(runner: Runner, calls: list, traced: bool, deadline: float) -> Pass:
    result = Pass()
    jobs = os.path.join(runner.work, "jobs.json")
    spans = os.path.join(runner.work, "spans.json")
    with open(jobs, "w") as fh:
        json.dump([call.job() for call in calls], fh)
    budget = min(sum(call.budget for call in calls), deadline - perf_counter())
    child = runner.run([os.path.join(HERE, "api_child.py"), jobs, spans if traced else "-"], budget)
    result.add_child(child)
    records = []
    for line in child.out.decode(errors="replace").splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            break
    for i, call in enumerate(calls):
        result.attempted += 1
        if i >= len(records):
            why = "killed: pass over budget" if child.timed_out else f"child exited {child.code}"
            result.fail(call.label, f"no result ({why})")
            continue
        seconds = records[i].get("s", float("inf"))
        result.add_time(i, seconds, records[i]["probe_s"], "bigint")
        if seconds > call.budget:
            result.fail(call.label, f"took {seconds:.1f} s, over its {call.budget:.0f} s budget")
            continue
        problem = _checked(call, records[i])
        if problem:
            result.fail(call.label, problem)
    if traced and not result.failures and child.code == 0:
        result.add_spans(spans, 0)
    elif child.code != 0 and len(records) >= len(calls):
        result.fail("api child", f"exit {child.code}: {child.err.decode(errors='replace')[-200:]}")
    return result


def setup_launches(runner: Runner, count: int) -> list:
    """Times from interpreter launch until `import gibsum.cli` returns, at reference speed."""
    times = []
    for _ in range(count):
        child = runner.run(["-c", "import gibsum.cli"], 30.0)
        if child.code != 0:
            raise RuntimeError(f"import gibsum.cli failed: {child.err.decode(errors='replace')}")
        times.append(probe.adjusted(child.seconds, child.probe_s))
    return times


def typical_times(passes: list, count: int) -> list:
    """Each operation's median time at reference speed over the passes."""
    typical = []
    for i in range(count):
        times = [p.op_seconds[i] for p in passes if i in p.op_seconds]
        if times:
            typical.append(statistics.median(times))
    return typical


def tail(values: list) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least 10 values beyond it."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - 10)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def src_lines(root: str) -> int:
    pkg = os.path.join(root, "src", "gibsum")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def run_workload(name: str, seed: int, seconds: float, trace: bool, runner: Runner) -> dict:
    run_start = perf_counter()
    deadline = run_start + RUN_LIMIT_S
    ops = workloads.build(name, seed)
    one_pass = api_pass if name == "closed_api" else cli_pass
    setup_times: list[float] = []
    passes: list[tuple[bool, Pass]] = []
    started = perf_counter()
    while perf_counter() < deadline:
        traced = trace and len(passes) % 2 == 1
        if not trace and len(passes) < MIN_PASSES:
            setup_times += setup_launches(runner, SETUP_LAUNCHES)
        passes.append((traced, one_pass(runner, ops, traced, deadline)))
        done = len(passes) >= (2 if trace else MIN_PASSES)
        if done and perf_counter() - started >= seconds:
            break
    plain = [p for traced, p in passes if not traced]
    traced_passes = [p for traced, p in passes if traced]
    attempted = sum(p.attempted for _, p in passes)
    failures = [f for _, p in passes for f in p.failures]
    if trace and not traced_passes:
        failures.append("no traced pass finished within the run time limit")
        traced_passes = plain
    print(f"perfbench: workload={name} seed={seed} trace={int(trace)} passes={len(passes)} "
          f"ops/pass={len(ops)} attempted={attempted} failed={len(failures)} "
          f"error_rate={len(failures) / attempted:.6g} ratio")
    for failure in failures[:10]:
        print(f"perfbench: FAILED {failure}")

    typical = typical_times(plain, len(ops))
    if trace:
        for p in traced_passes:
            p.layers["cli.import_s"] = statistics.median(p.import_s) if p.import_s else 0.0
        traced_wall = sum(typical_times(traced_passes, len(ops)))
        values = {metric: statistics.median(p.layers.get(metric, 0) for p in traced_passes)
                  for metric in PER_LAYER_UNITS}
        values["trace.overhead_s"] = traced_wall - sum(typical)
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
        print(f"perfbench: traced wall_s={traced_wall:.4f} s untraced wall_s={sum(typical):.4f} s")
    else:
        percentile, tail_s = tail(typical)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": sum(typical),
            "op_s_p50": statistics.median(typical),
            "op_s_tail": tail_s,
            "peak_rss_mb": max(p.rss_mb for p in plain),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"perfbench: op_s_tail is p{percentile:.1f} of {len(typical)} operations, "
              f"each timed at its median of {len(plain)} passes")
        print(f"perfbench: wall_s as measured, median over passes: "
              f"{statistics.median(p.raw_seconds for p in plain):.4f} s")
    for metric, m in metrics.items():
        print(f"perfbench: {name} {metric} = {m['value']:.6g} {m['unit']}")
    print(f"perfbench: run took {perf_counter() - run_start:.1f} s")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gibsum", "cli.py")):
        print("perfbench: no src/gibsum here; run from the root of a gibsum checkout",
              file=sys.stderr)
        return 2
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    runner = Runner(root, work)
    try:
        probe = runner.run(["-c", "import gibsum.cli; print(gibsum.cli.__file__)"], 60.0)
        where = probe.out.decode().strip()
        if probe.code != 0 or not where.startswith(os.path.join(root, "src") + os.sep):
            print(f"perfbench: gibsum does not import from ./src ({where or probe.err[-200:]!r})",
                  file=sys.stderr)
            return 2
        print(f"perfbench: python={platform.python_version()} nproc={os.cpu_count()} "
              f"src_lines={src_lines(root)}")
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), runner)
                   for n in names}
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
