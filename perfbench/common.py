"""Shared pieces of the workloads: run context, operation tally, statistics,
set-up timing and the record of the machine a run used."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import child

# fresh interpreters timed for setup_s after each timed pass
SETUP_PER_PASS = 3
# a workload repeats its timed pass until --seconds is used up, but never
# fewer times than this
MIN_PASSES = 3

SETUP_CODE = ("import sys, canoc, canoc.cli\n"
              "from canoc.models import load_model\n"
              "for path in sys.argv[1:]:\n"
              "    load_model(path)\n"
              "print(canoc.__file__)\n")


@dataclass
class Context:
    src: str       # the checkout's src directory, first on every child's PYTHONPATH
    work: str      # scratch directory of this run, removed at exit
    seed: int
    seconds: float
    env: dict[str, str]


@dataclass
class Tally:
    """Operations attempted and failed; a failed check is a failed operation."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def command(self, result: child.ChildResult, expected: int) -> bool:
        return self.check(result.code == expected,
                          f"{' '.join(result.argv[2:4])} exited {result.code}, "
                          f"expected {expected}: {result.stderr.strip()[-300:]}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def midmean(values: list[float]) -> float:
    """Mean of the middle half of ``values`` (all of them when there are
    fewer than four).

    The machine's speed switches between levels that last a few seconds, so
    the median of a handful of passes jumps from one level to the other
    between runs; a mean over the passes varies about half as much. The
    outer quarters are dropped so that one stalled pass cannot move it.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])


def run_passes(ctx: Context, one_pass) -> int:
    """Call ``one_pass(k)`` while another pass of median length still fits in
    ``ctx.seconds`` (at least MIN_PASSES times); returns the number of passes."""
    start = time.perf_counter()
    durations: list[float] = []
    while (len(durations) < MIN_PASSES
           or time.perf_counter() - start + statistics.median(durations) <= ctx.seconds):
        t0 = time.perf_counter()
        one_pass(len(durations))
        durations.append(time.perf_counter() - t0)
    return len(durations)


class SetupProbe:
    """Times fresh interpreters that import canoc.cli and load ``models``.

    Workloads take a few samples after every timed pass rather than one
    block, so that setup_s sees the same stretch of machine time as the
    other metrics.
    """

    def __init__(self, ctx: Context, tally: Tally) -> None:
        self.ctx = ctx
        self.tally = tally
        self.samples: list[float] = []

    def _start(self, models: list[str]) -> child.ChildResult:
        result = child.run(["-c", SETUP_CODE, *models], self.ctx.env, self.ctx.work)
        self.tally.command(result, 0)
        return result

    def warm(self, models: list[str]) -> None:
        """One unmeasured start: writes the bytecode cache and checks that
        children import the checkout's canoc."""
        result = self._start(models)
        expected = os.path.join(self.ctx.src, "canoc", "__init__.py")
        if result.code == 0:
            self.tally.check(os.path.samefile(result.stdout[-1], expected),
                             f"children import canoc from {result.stdout[-1]}, "
                             "not the checkout")

    def sample(self, models: list[str]) -> None:
        for _ in range(SETUP_PER_PASS):
            self.samples.append(self._start(models).wall_s)


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def to_float(text: str) -> float:
    """The number in ``text``; NaN when it is not one."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _openblas() -> dict[str, object]:
    """Version and thread count of the OpenBLAS that numpy loaded."""
    import numpy as np

    info: dict[str, object] = {"version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["version"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                break
    return info


def machine() -> dict[str, object]:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "platform": platform.platform(),
        "executable": sys.executable,
    }
