"""Child processes of the benchmark: launch, stream stdout, reap with wait4.

Peak RSS comes from each child's own ``os.wait4`` rusage. ``RUSAGE_CHILDREN``
would report the largest child reaped so far, so one heavy command would
hide every later one.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

# a child still running after this many seconds is killed, so that a run
# ends within its 180 s limit
TIMEOUT_S = 170.0


@dataclass
class ChildResult:
    argv: list[str]
    code: int
    wall_s: float
    first_line_s: float | None  # launch to first stdout line
    peak_rss_mb: float
    stdout: list[str]
    stderr: str


def checkout_env(src: str) -> dict[str, str]:
    """Environment that imports canoc from the checkout's ``src`` first.

    Output is unbuffered: verdict lines leave the child as they are printed,
    so the time to the first one is canoc's, not the stdio buffer's.
    """
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run(args: list[str], env: dict[str, str], cwd: str) -> ChildResult:
    """Run ``python <args>`` to completion; the child is always reaped.

    A child still running after TIMEOUT_S seconds is killed. ``os.kill``
    is used, not ``Popen.kill``, because the latter polls and would reap
    the child before ``wait4`` could read its rusage.
    """
    argv = [sys.executable, *args]
    with tempfile.TemporaryFile("w+", encoding="utf-8", dir=cwd) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=cwd,
                                env=env, text=True)
        killer = threading.Timer(TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        first = None
        lines = []
        try:
            for line in proc.stdout:
                if first is None:
                    first = time.perf_counter() - start
                lines.append(line.rstrip("\n"))
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            raise
        finally:
            proc.stdout.close()
            killer.cancel()
            _, status, rusage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return ChildResult(argv, proc.returncode, wall, first,
                       rusage.ru_maxrss / 1024.0, lines, stderr)
