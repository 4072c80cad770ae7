"""Start the benchmark's child processes one at a time and measure each.

    python perfbench/launcher.py

Reads one JSON request per stdin line, {"argv": [...], "env": {...},
"budget": seconds, "stdout": path, "stderr": path, "probe": kind}, runs the
command with its output in those files, kills it once it outlives its
budget, and answers with one JSON line: {"code", "seconds", "rss_mb",
"timed_out", "probe_s"}, where probe_s is the mean time of the host-speed
probe of that kind (see probe.py) run just before and just after the child.
Exits at end of input.

The benchmark process does not start the children itself because a child
started by posix_spawn (or fork) reports as its own peak resident memory at
least the peak of the process that started it. The benchmark process grows
while it parses outputs; this process stays smaller than any gibsum child,
so the peak it reports is the child's.
"""

import json
import os
import select
import signal
import sys
from time import perf_counter

from probe import probe


def run(argv, env, budget, stdout, stderr):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644),
    ]
    started = perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    reaped = False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(budget, 0.0))
        finally:
            os.close(pidfd)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        if not reaped:  # interrupted: leave no child behind
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return {
        "code": os.waitstatus_to_exitcode(status),
        "seconds": perf_counter() - started,
        "rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
        "timed_out": not ready,
    }


def main() -> int:
    last = {}  # probe kind -> its time just after the previous child
    for line in sys.stdin:
        req = json.loads(line)
        kind = req["probe"]
        before = last[kind] if kind in last else probe(kind)
        reply = run(req["argv"], req["env"], req["budget"], req["stdout"], req["stderr"])
        after = probe(kind)
        last = {kind: after}
        reply["probe_s"] = (before + after) / 2
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
