"""detect_long: one ``canoc detect`` child over a long candump log.

The log comes from the benchmark's own generator (candump_gen), so the
parser sees the same bytes whatever commit is under test. The linear-SVDD
model is trained with the CLI during untimed preparation, on a separate
normal log from the same generator. The same ``canoc train`` command runs
again after every detect pass; those runs give train_s.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

import candump_gen
import child
from common import Context, SetupProbe, Tally, midmean, run_passes, sha256, to_float

LOG_SECONDS = 600.0
TRAIN_SECONDS = 300.0
FLOODS = (candump_gen.Flood(candump_gen.LABEL_ZERO_ID, 100, 145, 800.0),
          candump_gen.Flood(candump_gen.LABEL_RANDOM_ID, 300, 345, 800.0))


class DetectLong:
    name = "detect_long"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.model = os.path.join(ctx.work, "model.json")
        self.log_path = os.path.join(ctx.work, "long.log")

    def prepare(self, tally: Tally) -> dict:
        ctx = self.ctx
        # distinct generator streams for the training log and the scored log
        train = candump_gen.generate(2 * ctx.seed, TRAIN_SECONDS)
        log = candump_gen.generate(2 * ctx.seed + 1, LOG_SECONDS, FLOODS)
        train_path = os.path.join(ctx.work, "train.log")
        with open(train_path, "w", encoding="utf-8") as f:
            f.write(train.text)
        with open(self.log_path, "w", encoding="utf-8") as f:
            f.write(log.text)
        self.frames = log.frames
        self.attacked = candump_gen.window_labels(log)
        self.t_first = float(log.times[0])

        self.feats = os.path.join(ctx.work, "train.csv")
        self.vocab = os.path.join(ctx.work, "vocab.json")
        tally.command(child.run(["-m", "canoc.cli", "extract", "--in", train_path,
                                 "--out", self.feats, "--save-vocab", self.vocab],
                                ctx.env, ctx.work), 0)
        self.model_digest = None
        self._train(tally)
        return {"frames": self.frames, "windows": int(self.attacked.size),
                "flood_windows": int(self.attacked.sum())}

    def _train(self, tally: Tally) -> float:
        """Train the detect model with the CLI; every run must write the same file."""
        result = child.run(["-m", "canoc.cli", "train", "--features", self.feats,
                            "--out", self.model, "--family", "svdd", "--c", "1.0",
                            "--extraction-config", self.vocab], self.ctx.env, self.ctx.work)
        if tally.command(result, 0):
            digest = sha256(self.model)
            self.model_digest = self.model_digest or digest
            tally.check(digest == self.model_digest, "training wrote a different model file")
        return result.wall_s

    def _verdicts(self, lines: list[str], tally: Tally) -> float:
        """Check detect's lines against the generator's windows; returns Gmean."""
        if not tally.check(len(lines) == self.attacked.size,
                           f"detect printed {len(lines)} lines for "
                           f"{self.attacked.size} windows"):
            return 0.0
        flagged = np.zeros(self.attacked.size, dtype=bool)
        bad = []
        for k, line in enumerate(lines):
            parts = line.split(",")
            ok = len(parts) == 3 and parts[2] in ("normal", "anomaly")
            if ok:
                start, score = to_float(parts[0]), to_float(parts[1])
                ok = (math.isfinite(score) and (score > 0) == (parts[2] == "anomaly")
                      and math.isfinite(start) and round(start - self.t_first) == k)
            if not ok:
                bad.append(f"{k}: {line!r}")
            flagged[k] = ok and parts[2] == "anomaly"
        # all verdict lines of one detect are one operation
        tally.check(not bad, f"{len(bad)} bad verdict lines, first {bad[:1]}")
        missed = int((self.attacked & ~flagged).sum())
        tally.check(missed == 0, f"{missed} flood windows not flagged")
        tpr = (flagged & self.attacked).sum() / self.attacked.sum()
        tnr = (~flagged & ~self.attacked).sum() / (~self.attacked).sum()
        return float(math.sqrt(tpr * tnr))

    def timed(self, tally: Tally) -> tuple[dict, dict]:
        ctx = self.ctx
        setup = SetupProbe(ctx, tally)
        setup.warm([self.model])
        walls, firsts, rss, trains, gmeans = [], [], [], [], []

        def one_pass(k: int) -> None:
            result = child.run(["-m", "canoc.cli", "detect", "--model", self.model,
                                "--in", self.log_path], ctx.env, ctx.work)
            tally.command(result, 4)
            walls.append(result.wall_s)
            firsts.append(result.first_line_s or result.wall_s)
            rss.append(result.peak_rss_mb)
            gmeans.append(self._verdicts(result.stdout, tally))
            tally.check(gmeans[-1] == gmeans[0], "Gmean changed between detect runs")
            # train_s and setup_s samples spread over the run like detect's
            trains.append(self._train(tally))
            setup.sample([self.model])

        run_passes(ctx, one_pass)
        wall = midmean(walls)
        metrics = {
            "setup_s": midmean(setup.samples),
            "wall_s": wall,
            "frames_per_s": self.frames / wall,
            "first_verdict_s": midmean(firsts),
            "peak_rss_mb": midmean(rss),
            "train_s": midmean(trains),
            "gmean": gmeans[0],
        }
        samples = {"setup_s": setup.samples, "wall_s": walls, "first_verdict_s": firsts,
                   "train_s": trains, "peak_rss_mb": rss}
        return metrics, samples

    def traced_pass(self, tally: Tally, tracer) -> None:
        """One detect through ``canoc.cli.main`` in this process."""
        import canoc.cli

        argv = ["detect", "--model", self.model, "--in", self.log_path]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if tracer is None:
                code = canoc.cli.main(argv)
            else:
                code = tracer.call("cli.detect", canoc.cli.main, argv)
        tally.check(code == 4, f"in-process detect returned {code}")
        self._verdicts(out.getvalue().splitlines(), tally)

