"""Seeded benchmark for canoc.

    python3 perfbench/run.py --workload detect_long --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. canoc is imported from the checkout's
``src`` (children get it first on ``PYTHONPATH``); nothing is installed.
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the workload in-process with every layer's public functions wrapped
and reports per-layer metrics. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. A summary
with the machine record, every sample and the output hashes is written to
``.perfbench/results/``; traced runs also write their spans there.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

import child
import common
from common import Context, Tally, quartiles
from tracer import Tracer, layer_spans, summarize
from wl_cli import CliPipeline
from wl_detect import DetectLong
from wl_train import TrainSweep

WORKLOADS = {cls.name: cls for cls in (DetectLong, TrainSweep, CliPipeline)}

UNITS = {"setup_s": "s", "wall_s": "s", "frames_per_s": "1/s", "first_verdict_s": "s",
         "peak_rss_mb": "MB", "train_s": "s", "gmean": "ratio", "ops_ok_frac": "ratio"}

# layers each workload must load in a traced run; a silent layer is an error
EXPECTED_LAYERS = {
    "detect_long": ("canlog", "features", "models", "persist", "cli"),
    "train_sweep": ("simulate", "features", "smo", "ssvdd", "models", "evaluate"),
    "cli_pipeline": ("canlog", "simulate", "features", "smo", "models", "persist",
                     "evaluate", "cli"),
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_checkout(root: str) -> str:
    """Make the checkout's canoc importable here; fail when it is absent."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "canoc", "__init__.py")):
        raise SystemExit(f"error: no canoc package under {src}; run from a checkout root")
    sys.path.insert(0, src)
    import canoc

    if not os.path.samefile(os.path.dirname(canoc.__file__), os.path.join(src, "canoc")):
        raise SystemExit(f"error: imported canoc from {canoc.__file__}, not the checkout")
    return src


def timed_run(workload, tally: Tally) -> tuple[dict, dict]:
    metrics, samples = workload.timed(tally)
    metrics["ops_ok_frac"] = (tally.attempted - tally.failed) / max(tally.attempted, 1)
    return metrics, samples


def traced_run(workload, ctx: Context, tally: Tally, out_dir: str) -> tuple[dict, dict]:
    """Alternate untraced and traced in-process passes for ``ctx.seconds``;
    per-layer numbers are per traced pass."""
    tracer = Tracer(f"{workload.name}-seed{ctx.seed}-pid{os.getpid()}")
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < ctx.seconds:
        t0 = time.perf_counter()
        workload.traced_pass(tally, None)
        untraced.append(time.perf_counter() - t0)
        tracer.install()
        try:
            t0 = time.perf_counter()
            workload.traced_pass(tally, tracer)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
    tracer.dump(os.path.join(out_dir, f"trace-{workload.name}-seed{ctx.seed}.json"))

    seen = layer_spans(tracer.spans)
    for layer in EXPECTED_LAYERS[workload.name]:
        tally.check(seen[layer] > 0, f"layer {layer} recorded no span on {workload.name}")
    metrics = summarize(tracer.spans, tracer.counts, len(traced))
    metrics["trace.wall_s"] = sum(traced) / len(traced)
    metrics["trace.untraced_wall_s"] = sum(untraced) / len(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics, {"traced_wall_s": traced, "untraced_wall_s": untraced,
                     "spans": len(tracer.spans), "spans_per_layer": seen}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".share"):
        return "ratio"
    return "count"


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # a terminated run still kills and reaps its child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    src = load_checkout(root)
    machine = common.machine()
    out_dir = os.path.join(root, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    work = os.path.join(root, ".perfbench", f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    ctx = Context(src, work, args.seed, args.seconds, child.checkout_env(src))
    tally = Tally()
    try:
        workload = WORKLOADS[args.workload](ctx)
        info = workload.prepare(tally)
        if args.trace:
            metrics, samples = traced_run(workload, ctx, tally, out_dir)
        else:
            metrics, samples = timed_run(workload, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = tally.failed == 0
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "machine": machine, "workload_info": info,
               "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
               "problems": tally.problems, "metrics": metrics, "samples": samples}
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
        f.write("\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} python={machine['python']} "
          f"numpy={machine['numpy']} openblas={machine['openblas']} nproc={machine['nproc']} "
          f"loadavg={machine['loadavg_at_start']}")
    for name, values in samples.items():
        if isinstance(values, list) and values and isinstance(values[0], float):
            q1, q2, q3 = quartiles(values)
            print(f"#   {name}: median {q2:.4g} (q1 {q1:.4g}, q3 {q3:.4g}, n={len(values)})")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(f"ops_failed_frac = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems:
        print(f"# FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {name: {"value": value, "unit": unit_of(name)}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
