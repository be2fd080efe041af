"""cli_pipeline: the README command sequence, one child process per command.

simulate (training log) -> extract --save-vocab -> train --family svdd ->
simulate (fresh log) -> inject zero_id -> inject replay, stacked on the
zero-ID labels -> extract --vocab --labels -> eval -> detect.

Every file canoc writes is hashed; a pass whose hashes differ from the
first pass counts as failed, and the hashes are recorded with the results,
so a commit that changes simulator output shows as changed input.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import child
from common import Context, SetupProbe, Tally, midmean, run_passes, sha256, to_float

TRAIN_SECONDS = 600
FRESH_SECONDS = 120


def commands(seed: int) -> list[tuple[list[str], int]]:
    """(argv after ``canoc``, documented exit code) of one pass; paths are
    relative to the pass directory."""
    return [
        (["simulate", "--out", "normal.csv", "--duration", str(TRAIN_SECONDS),
          "--seed", str(seed)], 0),
        (["extract", "--in", "normal.csv", "--out", "train.csv",
          "--save-vocab", "vocab.json"], 0),
        (["train", "--features", "train.csv", "--out", "model.json", "--family", "svdd",
          "--c", "1.0", "--extraction-config", "vocab.json"], 0),
        (["simulate", "--out", "fresh.csv", "--duration", str(FRESH_SECONDS),
          "--seed", str(seed + 1)], 0),
        (["inject", "--in", "fresh.csv", "--labels", "fresh.csv.labels.csv",
          "--out", "zero.csv", "--kind", "zero_id", "--rate", "500",
          "--start", "20", "--end", "40", "--seed", str(seed + 2)], 0),
        (["inject", "--in", "zero.csv", "--labels", "zero.csv.labels.csv",
          "--out", "attacked.csv", "--kind", "replay", "--segment", "5:7",
          "--start", "60", "--end", "64", "--repeat", "2", "--seed", str(seed + 3)], 0),
        (["extract", "--in", "attacked.csv", "--vocab", "vocab.json",
          "--labels", "attacked.csv.labels.csv", "--out", "test.csv"], 0),
        (["eval", "--model", "model.json", "--features", "test.csv",
          "--out-table", "table.csv", "--out-summary", "summary.json"], 0),
        (["detect", "--model", "model.json", "--in", "attacked.csv"], 4),
    ]


# simulate -> extract -> train: the commands up to a trained model (train_s)
TRAINED_AFTER = 3
# the logs the pass's commands parse, once per reading command (frames_per_s)
LOGS_READ = ("normal.csv", "fresh.csv", "zero.csv", "attacked.csv", "attacked.csv")

OUTPUTS = ("normal.csv", "normal.csv.labels.csv", "train.csv", "vocab.json", "model.json",
           "fresh.csv", "fresh.csv.labels.csv", "zero.csv", "zero.csv.labels.csv",
           "attacked.csv", "attacked.csv.labels.csv", "test.csv", "table.csv",
           "summary.json")


class CliPipeline:
    name = "cli_pipeline"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.dir = os.path.join(ctx.work, "pipeline")
        os.makedirs(self.dir, exist_ok=True)
        self.hashes: dict[str, str] | None = None

    def prepare(self, tally: Tally) -> dict:
        return {"commands": [argv[0] for argv, _ in commands(self.ctx.seed)]}

    def _check_outputs(self, detect_lines: list[str], tally: Tally) -> float:
        """Hash outputs, check the detect lines and the eval summary; returns Gmean."""
        paths = {name: os.path.join(self.dir, name) for name in OUTPUTS}
        # a missing output (its command failed, and was counted) hashes as None
        hashes = {name: sha256(path) if os.path.exists(path) else None
                  for name, path in paths.items()}
        hashes["detect.stdout"] = sha256_text("\n".join(detect_lines))
        if self.hashes is None:
            self.hashes = hashes
        changed = [name for name, digest in hashes.items() if self.hashes[name] != digest]
        tally.check(not changed, f"{', '.join(changed)} changed between passes")
        bad = []
        for line in detect_lines:
            parts = line.split(",")
            if not (len(parts) == 3 and parts[2] in ("normal", "anomaly")
                    and math.isfinite(to_float(parts[1]))):
                bad.append(line)
        tally.check(bool(detect_lines) and not bad,
                    f"{len(detect_lines)} verdict lines, {len(bad)} bad, first {bad[:1]}")
        try:
            with open(os.path.join(self.dir, "summary.json"), encoding="utf-8") as f:
                summary = json.load(f)
            gmean = float(summary["gmean"])
            ok = 0.0 < gmean <= 1.0 and summary["tp"] + summary["fn"] > 0
        except (OSError, ValueError, KeyError, TypeError):
            gmean, ok = 0.0, False
        tally.check(ok, "eval summary does not parse")
        return gmean

    def timed(self, tally: Tally) -> tuple[dict, dict]:
        ctx = self.ctx
        setup = SetupProbe(ctx, tally)
        model = os.path.join(self.dir, "model.json")
        walls, rss, trains, firsts, rates, gmeans = [], [], [], [], [], []

        def one_pass(k: int) -> None:
            results = []
            for argv, code in commands(ctx.seed):
                result = child.run(["-m", "canoc.cli", *argv], ctx.env, self.dir)
                tally.command(result, code)
                results.append(result)
            wall = sum(r.wall_s for r in results)
            walls.append(wall)
            rss.append(max(r.peak_rss_mb for r in results))
            trains.append(sum(r.wall_s for r in results[:TRAINED_AFTER]))
            detect = results[-1]
            firsts.append(wall - detect.wall_s + (detect.first_line_s or detect.wall_s))
            frames = sum(count_lines(os.path.join(self.dir, name)) - 1 for name in LOGS_READ)
            rates.append(frames / wall)
            gmeans.append(self._check_outputs(detect.stdout, tally))
            if k == 0:
                setup.warm([model])
            setup.sample([model])

        run_passes(ctx, one_pass)
        metrics = {
            "setup_s": midmean(setup.samples),
            "wall_s": midmean(walls),
            "frames_per_s": midmean(rates),
            "first_verdict_s": midmean(firsts),
            "peak_rss_mb": midmean(rss),
            "train_s": midmean(trains),
            "gmean": gmeans[0],
        }
        samples = {"setup_s": setup.samples, "wall_s": walls, "peak_rss_mb": rss,
                   "train_s": trains, "first_verdict_s": firsts, "frames_per_s": rates,
                   "sha256": self.hashes}
        return metrics, samples

    def traced_pass(self, tally: Tally, tracer) -> None:
        """The same commands through ``canoc.cli.main`` in this process."""
        import canoc.cli

        detect_out = []
        with contextlib.chdir(self.dir):
            for argv, expected in commands(self.ctx.seed):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    if tracer is None:
                        code = canoc.cli.main(argv)
                    else:
                        code = tracer.call(f"cli.{argv[0]}", canoc.cli.main, argv)
                tally.check(code == expected, f"in-process {argv[0]} returned {code}")
                detect_out = out.getvalue().splitlines()
        self._check_outputs(detect_out, tally)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def count_lines(path: str) -> int:
    with open(path, "rb") as f:
        return sum(1 for _ in f)
