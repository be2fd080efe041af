"""Span tracer that wraps canoc's public functions from outside the package.

Each wrapper records a span (id, parent id, name, start, end, failed) in
memory; the spans are written out when the run ends. A name is patched in
the module that looks it up at call time: ``from .x import f`` binds ``f``
into the importing module, so patching ``x.f`` alone would miss those calls.
The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("canlog", "simulate", "features", "smo", "ssvdd", "models",
          "persist", "evaluate", "cli")

CLI_COMMANDS = ("simulate", "inject", "extract", "train", "eval", "detect")


def _frames(tracer, args, kwargs, result):
    tracer.counts["canlog.parse.frames"] += len(result.frames)


def _windows(tracer, args, kwargs, result):
    tracer.counts["features.windows"] += len(result)


def _extract_call(tracer, args, kwargs, result):
    tracer.counts["features.extract.calls"] += 1


def _solve(tracer, args, kwargs, result):
    tracer.counts["smo.solve.calls"] += 1
    tracer.counts["smo.solve.n_total"] += int(np.shape(args[0])[0])


def _score(tracer, args, kwargs, result):
    tracer.counts["models.score.calls"] += 1
    tracer.counts["models.score.rows"] += int(np.shape(result)[0])


# (module that looks the name up, attribute, span name, counter)
WRAPS = (
    ("canoc.canlog", "read_candump", "canlog.parse_candump", _frames),
    ("canoc.canlog", "parse_csv_log", "canlog.parse_csv", _frames),
    ("canoc.canlog", "write_csv_log", "canlog.write", None),

    ("canoc.simulate", "generate_normal", "simulate.generate", None),
    ("canoc.simulate", "inject", "simulate.inject", None),
    ("canoc.simulate", "label_windows", "simulate.label_windows", None),
    ("canoc.simulate", "write_labels", "simulate.labels_io", None),
    ("canoc.simulate", "read_labels", "simulate.labels_io", None),

    ("canoc.features", "segment_windows", "features.segment", _windows),
    ("canoc.features", "extract_matrix", "features.extract", None),
    ("canoc.features", "extract_features", "features.extract", _extract_call),
    ("canoc.features", "build_vocabulary", "features.vocab", None),
    ("canoc.features", "write_feature_csv", "features.csv_io", None),
    ("canoc.features", "read_feature_csv", "features.csv_io", None),

    ("canoc.models.svdd", "solve_svdd_dual", "smo.solve", _solve),
    ("canoc.models.ssvdd", "solve_svdd_dual", "smo.solve", _solve),
    ("canoc.models.ocsvm", "solve_ocsvm_dual", "smo.solve", _solve),

    ("canoc.models.api", "ssvdd_fit", "ssvdd.fit", None),

    ("canoc.cli", "fit_model", "models.fit", None),
    ("canoc.models.api", "fit_model", "models.fit", None),
    ("canoc.models.api", "svdd_fit", "models.fit", None),
    ("canoc.models.api", "ocsvm_fit", "models.fit", None),
    ("canoc.models.api", "esvdd_fit", "models.fit", None),
    ("canoc.models.api", "gesvdd_fit", "models.fit", None),
    ("canoc.models.api", "geocsvm_fit", "models.fit", None),
    ("canoc.models.whiten", "svdd_fit", "models.fit", None),
    ("canoc.models.whiten", "ocsvm_fit", "models.fit", None),
    ("canoc.models.ssvdd", "svdd_fit", "models.fit", None),
    ("canoc.cli", "score_samples", "models.score", _score),
    ("canoc.models.api", "score_samples", "models.score", _score),
    ("canoc.models.svdd", "gram_matrix", "models.kernel", None),
    ("canoc.models.ocsvm", "gram_matrix", "models.kernel", None),
    ("canoc.models.ssvdd", "gram_matrix", "models.kernel", None),
    ("canoc.models.svdd", "resolve_kernel", "models.kernel", None),
    ("canoc.models.ocsvm", "resolve_kernel", "models.kernel", None),
    ("canoc.models.ssvdd", "resolve_kernel", "models.kernel", None),

    ("canoc.cli", "save_model", "persist.save", None),
    ("canoc.cli", "load_model", "persist.load", None),
    ("canoc.models.persist", "save_model", "persist.save", None),
    ("canoc.models.persist", "load_model", "persist.load", None),
    ("canoc.evaluate", "model_tag", "persist.describe", None),
    ("canoc.evaluate", "config_digest", "persist.describe", None),

    ("canoc.cli", "evaluate", "evaluate", None),
    ("canoc.evaluate", "evaluate", "evaluate", None),
    ("canoc.evaluate", "split", "evaluate", None),
    ("canoc.cli", "write_report_table", "evaluate", None),
)

TIMED_NAMES = tuple(dict.fromkeys(
    [name for _, _, name, _ in WRAPS] + [f"cli.{c}" for c in CLI_COMMANDS]))

COUNT_NAMES = ("canlog.parse.frames", "features.extract.calls", "features.windows",
               "smo.solve.calls", "models.score.calls", "models.score.rows")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans of one traced run; all spans share ``trace_id``."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[list] = []  # [id, parent, name, start, end, failed]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, time.perf_counter(), None, False])
        self._stack.append(sid)
        return sid

    def close(self, sid: int, failed: bool = False) -> None:
        span = self.spans[sid]
        span[4] = time.perf_counter()
        span[5] = failed
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {span[2]} closed out of order")

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; a raised exception marks it failed."""
        sid = self.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.close(sid, failed=True)
            raise
        self.close(sid)
        return result

    def install(self) -> None:
        for module_name, attr, name, counter in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrapper(original, name, counter))
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrapper(self, original, name, counter):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"trace_id": self.trace_id,
                       "fields": ["id", "parent", "name", "start", "end", "failed"],
                       "spans": self.spans, "counts": dict(self.counts)}, f)
            f.write("\n")


def summarize(spans: list[list], counts: dict[str, float], passes: int) -> dict[str, float]:
    """Per-pass layer metrics from spans of ``passes`` traced passes.

    ``<name>.s`` sums spans that have no ancestor of the same name, so
    nested calls (extract_matrix -> extract_features) count once.
    ``<name>.self_s`` subtracts the time covered by child spans.
    """
    children_time = defaultdict(float)
    for sid, parent, name, start, end, failed in spans:
        if parent is not None:
            children_time[parent] += end - start
    by_id = {s[0]: s for s in spans}
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    failed_solves = 0
    for sid, parent, name, start, end, failed in spans:
        dur = end - start
        self_time[name] += dur - children_time[sid]
        ancestor = parent
        while ancestor is not None and by_id[ancestor][2] != name:
            ancestor = by_id[ancestor][1]
        if ancestor is None:
            inclusive[name] += dur
        failed_solves += failed and name == "smo.solve"

    out: dict[str, float] = {}
    for name in TIMED_NAMES:
        out[f"{name}.s"] = inclusive[name] / passes
        out[f"{name}.self_s"] = self_time[name] / passes
    for name in COUNT_NAMES:
        out[name] = counts.get(name, 0.0) / passes
    calls = counts.get("smo.solve.calls", 0.0)
    out["smo.solve.n_mean"] = counts.get("smo.solve.n_total", 0.0) / calls if calls else 0.0
    out["smo.solve.failed"] = failed_solves / passes

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_time.items():
        layer_self[layer_of(name)] += value / passes
    total = sum(layer_self.values())
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = layer_self[layer]
        out[f"layer.{layer}.share"] = layer_self[layer] / total if total else 0.0
    return out


def layer_spans(spans: list[list]) -> dict[str, int]:
    """Spans per layer. The benchmark opens the ``cli.<command>`` spans
    itself, so a cli span counts only when canoc.cli made a traced call
    under it."""
    parents = {span[1] for span in spans}
    seen = {layer: 0 for layer in LAYERS}
    for sid, parent, name, *_ in spans:
        if layer_of(name) != "cli" or sid in parents:
            seen[layer_of(name)] += 1
    return seen
