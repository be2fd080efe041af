"""Command-line pipeline: simulate, inject, extract, train, eval, detect.

Exit codes: 0 ok/clean, 2 usage or input error (an input too large to
hold in memory included), 3 contract violation (non-normal training
rows), 4 anomaly detected. Every command is deterministic given its
inputs and flags; ``simulate`` and ``inject`` draw from ``--seed``. A flat
``key = value`` config file can supply any optional flag, but not a
required one; explicit flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import canlog, features, simulate
from .evaluate import evaluate, write_report_table
from .models import (FAMILY_PARAMS, MODEL_FAMILIES, PSI_VARIANTS, DualSolverError,
                     KernelSpec, ScoreRangeError, fit_model, load_model, save_model,
                     score_samples)
from .models.kernels import KERNEL_KINDS
from .models.persist import model_tag

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONTRACT = 3
EXIT_ANOMALY = 4


class ContractViolation(Exception):
    pass


def load_config(path: str) -> dict[str, str]:
    """Flat ``key = value`` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(features.read_text(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno} is not 'key = value': {raw.rstrip()}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


# a boolean flag's config value, in any case
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _config_defaults(subparser: argparse.ArgumentParser, path: str) -> dict:
    """Convert a config file into typed defaults for one subcommand."""
    actions = {}
    for action in subparser._actions:
        actions[action.dest] = action
        for opt in action.option_strings:
            actions[opt.lstrip("-")] = action
    typed: dict = {}
    for key, text in load_config(path).items():
        action = actions.get(key) or actions.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"unknown config key '{key}'")
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            value: object = _BOOLEANS.get(text.lower())
            if value is None:
                raise ValueError(f"config key '{key}': {text!r} is not one of "
                                 f"{'/'.join(_BOOLEANS)}")
        elif action.type is not None:
            try:
                value = action.type(text)
            except ValueError:
                raise ValueError(f"config key '{key}': {text!r} is not a valid "
                                 f"{action.type.__name__}") from None
        else:
            value = text
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config key '{key}': {value!r} not in {action.choices}")
        typed[action.dest] = value
    return typed


def _parse_bus(args: argparse.Namespace) -> simulate.BusSpec:
    if args.bus_ids or args.bus_periods:
        if not (args.bus_ids and args.bus_periods):
            raise ValueError("--bus-ids and --bus-periods must be given together")
        ids = [int(tok, 16) if tok.lower().startswith("0x") else int(tok)
               for tok in args.bus_ids.split(",")]
        periods = [float(tok) for tok in args.bus_periods.split(",")]
        if len(ids) != len(periods):
            raise ValueError("--bus-ids and --bus-periods lengths differ")
        ecus = tuple(simulate.EcuSpec(i, p, args.bus_jitter) for i, p in zip(ids, periods))
        return simulate.BusSpec(ecus, args.duration, args.seed)
    spec = simulate.default_bus(args.duration, args.seed)
    return dataclasses.replace(spec, ids=tuple(dataclasses.replace(e, jitter=args.bus_jitter)
                                               for e in spec.ids))


def _labels_path(args: argparse.Namespace) -> str:
    return args.labels_out if args.labels_out else args.out + ".labels.csv"


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _parse_bus(args)
    frames = simulate.save_labeled(simulate.iter_normal(spec), args.out, _labels_path(args))
    print(f"wrote {frames} frames over {args.duration:g} s "
          f"({len(spec.ids)} ids) to {args.out}")
    return EXIT_OK


def cmd_inject(args: argparse.Namespace) -> int:
    # the input is read twice, the second time while the output is written
    if args.input == "-":
        raise ValueError("inject reads its input log twice; give a file, not -")
    inputs = {os.path.realpath(path) for path in (args.input, args.labels) if path}
    for path in (args.out, _labels_path(args)):
        if os.path.realpath(path) in inputs:
            raise ValueError(f"output file {path} is also an input of inject")
    segment = tuple(float(t) for t in args.segment.split(":")) if args.segment else None
    end = args.end
    if end is None:
        # a replay's frames span its repeats of the segment; a flood lasts 1 s
        end = (args.start + args.repeat * (segment[1] - segment[0])
               if args.kind == simulate.LABEL_REPLAY and segment and len(segment) == 2 else 1.0)
    scenario = simulate.AttackScenario(
        kind=args.kind,
        rate=args.rate,
        window=(args.start, end),
        replay_segment=segment,
        repeat=args.repeat,
        seed=args.seed,
        payload_length=args.payload_len,
    )
    # the first pass finds the span and the replay source; the second merges
    added, earliest = simulate.scan_log(args.input, scenario)
    frames = simulate.save_labeled(
        simulate.iter_injected(simulate.iter_labeled(args.input, args.labels), earliest, added),
        args.out, _labels_path(args))
    print(f"injected {len(added)} {args.kind} frames; wrote {frames} frames to {args.out}")
    return EXIT_OK


def _load_spec(path: str) -> features.FeatureSpec:
    where = f"vocabulary file {path}"
    return features.spec_from_dict(features.read_json(path, where), where)


def cmd_extract(args: argparse.Namespace) -> int:
    # the extraction settings given, by FeatureSpec field; the rest keep its defaults
    given = {key: getattr(args, key) for key in ("window", "stride", "stdev_mode")
             if getattr(args, key) is not None}
    if args.vocab:
        flags = [f"--{key.replace('_', '-')}" for key in given]
        flags += ["--no-other-bucket"] if args.no_other_bucket else []
        if flags:
            raise ValueError(f"vocabulary file {args.vocab} fixes the extraction "
                             f"settings; drop {', '.join(flags)}")
        spec = _load_spec(args.vocab)
        window, stride, stdev_mode = spec.window, spec.stride, spec.stdev_mode
    else:
        spec = None
        window = given.get("window", features.FeatureSpec.window)
        stride = given.get("stride", window)
        stdev_mode = given.get("stdev_mode", features.FeatureSpec.stdev_mode)
    batches = simulate.iter_labeled(args.input, args.labels)
    ids = np.empty(0, dtype=np.int64)  # the distinct ids read so far

    def logs():
        nonlocal ids
        for batch in batches:
            ids = np.union1d(ids, batch.ids)
            try:
                yield batch
            except canlog.LateFrameError as late:
                batches.throw(late)
                raise

    # each batch's rows against the vocabulary file, or the ids read so far:
    # a log's own ids leave its other bucket empty
    parts, labels = [], []
    for windows in features.iter_windows(logs(), window, stride):
        vocab = spec.vocab if spec else features.IdVocabulary(tuple(ids.tolist()), False)
        # the windows of labeled batches carry their frames' labels
        X, window_labels = features.extract_matrix(
            windows, vocab, stdev_mode,
            simulate.label_windows(None, windows) if args.labels else None)
        parts.append((X, vocab))
        labels += window_labels
    if not parts:  # a log with a frame has a window
        raise ValueError(f"input log {args.input} is empty")
    if spec is None:
        spec = features.FeatureSpec(features.IdVocabulary(tuple(ids.tolist()),
                                                          not args.no_other_bucket), **given)
    X = np.concatenate([features.relayout(part, vocab, spec.vocab, window)
                        for part, vocab in parts])
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        features.write_feature_csv(f, X, labels, spec.vocab)
    if args.save_vocab:
        with open(args.save_vocab, "w", encoding="utf-8") as f:
            json.dump(features.spec_to_dict(spec), f, indent=2, sort_keys=True)
            f.write("\n")
    print(f"wrote {X.shape[0]} feature rows x {X.shape[1]} columns to {args.out}")
    return EXIT_OK


def _read_features(path: str):
    with features.naming(f"feature file {path}"):
        return features.read_feature_csv(features.read_text(path))


def cmd_train(args: argparse.Namespace) -> int:
    X, labels, vocab = _read_features(args.features)
    if args.extraction_config:
        spec = _load_spec(args.extraction_config)
        if spec.vocab != vocab:
            raise ValueError(f"vocabulary file {args.extraction_config} does not match "
                             f"the columns of {args.features}")
    else:
        spec = features.FeatureSpec(vocab)
    normal = np.array([lab == features.LABEL_NORMAL for lab in labels])
    if not normal.all():
        if not args.filter_normal:
            raise ContractViolation("training data must be target-class only "
                                    f"({int((~normal).sum())} non-normal rows; "
                                    "pass --filter-normal to drop them)")
        X = X[normal]
    if X.shape[0] < 2:
        raise ValueError("need at least 2 normal training rows")
    with features.naming(f"feature file {args.features}"):
        scaler = features.fit_scaler(X, vocab.feature_names())
    # every hyperparameter whose flag is set (C from --c); fit_model rejects
    # one that the family does not take
    params = {key: getattr(args, key.lower()) for keys in FAMILY_PARAMS.values()
              for key in keys if getattr(args, key.lower(), None) is not None}
    try:
        model = fit_model(args.family, features.apply_scaler(scaler, X),
                          kernel=KernelSpec(args.kernel, args.sigma), scaler=scaler, **params)
    except DualSolverError as err:  # the training rows are input, so this is an input error
        raise ValueError(f"training {args.family}: {err}") from None
    save_model(model, args.out, spec)
    print(f"trained {model_tag(model)} on {X.shape[0]} rows; wrote {args.out}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    model, spec = load_model(args.model)
    X, labels, vocab = _read_features(args.features)
    if spec is not None and spec.vocab != vocab:
        raise ValueError(f"the columns of {args.features} do not match the "
                         f"vocabulary of model {args.model}")
    try:
        report = evaluate(model, X, labels)
    except ScoreRangeError as err:  # counted from 1, as the rows after the header
        raise ValueError(f"feature file {args.features}: feature row {err.row + 1} "
                         "scores beyond the float range") from None
    if args.out_table:
        with open(args.out_table, "w", encoding="utf-8", newline="") as f:
            write_report_table(f, [report])
    if args.out_summary:
        with open(args.out_summary, "w", encoding="utf-8") as f:
            json.dump(report.to_dict(), f, sort_keys=True, indent=2)
            f.write("\n")
    print(f"gmean={report.gmean:.4f} tpr={report.tpr:.4f} tnr={report.tnr:.4f}")
    for kind in sorted(report.per_attack):
        print(f"gmean[{kind}]={report.per_attack[kind]:.4f}")
    return EXIT_OK


def cmd_detect(args: argparse.Namespace) -> int:
    model, spec = load_model(args.model)
    if spec is None:
        raise ValueError("model file carries no vocabulary; re-train with this toolkit")
    # each batch of the log prints the verdicts of the windows it completed
    printed = anomaly = False
    for windows in features.iter_windows(canlog.iter_log(args.input), spec.window,
                                         spec.stride):
        X, _ = features.extract_matrix(windows, spec.vocab, spec.stdev_mode)
        try:
            scores = score_samples(model, X)
        except ScoreRangeError as err:
            raise ValueError(f"input log {args.input}: the window at {windows[err.row].start:.6f}"
                             " scores beyond the float range") from None
        print("\n".join(f"{w.start:.6f},{score:.9g},{'anomaly' if score > 0 else 'normal'}"
                        for w, score in zip(windows, scores.tolist())), flush=True)
        printed = True
        anomaly = anomaly or bool((scores > 0).any())
    if not printed:  # a log with a frame has a window
        raise ValueError(f"input log {args.input} is empty")
    return EXIT_ANOMALY if anomaly else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canoc",
        description="CAN-bus one-class intrusion detection toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key = value config file")
        p.set_defaults(_subparser=p)

    p = sub.add_parser("simulate", help="generate synthetic normal traffic")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="deterministic RNG seed")
    p.add_argument("--out", required=True, help="output CSV log path")
    p.add_argument("--labels-out", help="sidecar label file (default <out>.labels.csv)")
    p.add_argument("--duration", type=float, default=120.0, help="seconds of traffic")
    p.add_argument("--bus-ids", help="comma-separated ids (hex 0x.. or decimal)")
    p.add_argument("--bus-periods", help="comma-separated nominal periods in seconds")
    p.add_argument("--bus-jitter", type=float, default=simulate.DEFAULT_JITTER,
                   help="uniform jitter fraction of the period")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("inject", help="apply an injection attack to a log")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="deterministic RNG seed")
    p.add_argument("--in", dest="input", required=True, help="base log (CSV or candump)")
    p.add_argument("--labels", help="sidecar labels of the base log")
    p.add_argument("--out", required=True)
    p.add_argument("--labels-out")
    p.add_argument("--kind", required=True, choices=simulate.ATTACK_KINDS)
    p.add_argument("--rate", type=float, help="injected frames per second (floods)")
    p.add_argument("--start", type=float, default=0.0, help="attack window start")
    p.add_argument("--end", type=float,
                   help="attack window end; default 1.0 for a flood and, for a replay, "
                        "start + repeat x segment length")
    p.add_argument("--segment", help="replay source interval as start:end seconds")
    p.add_argument("--repeat", type=int, default=1, help="replay repetitions")
    p.add_argument("--payload-len", type=int, help="override injected payload length")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("extract", help="compute windowed timing features")
    common(p)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--labels", help="sidecar frame labels for ground truth")
    p.add_argument("--out", required=True, help="output feature CSV")
    p.add_argument("--vocab", help="existing vocabulary JSON (fixes the layout)")
    p.add_argument("--save-vocab", help="write vocabulary + extraction settings")
    p.add_argument("--window", type=float,
                   help=f"window length in s (default {features.FeatureSpec.window:g})")
    p.add_argument("--stride", type=float, help="window stride (default: window)")
    p.add_argument("--stdev-mode", choices=features.STDEV_MODES,
                   help=f"default: {features.FeatureSpec.stdev_mode}")
    p.add_argument("--no-other-bucket", action="store_true",
                   help="disable the pooled foreign-id bucket")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="fit a one-class model on normal features")
    common(p)
    p.add_argument("--features", required=True, help="feature CSV (normal rows)")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--family", default="svdd", choices=MODEL_FAMILIES)
    p.add_argument("--kernel", choices=KERNEL_KINDS, default="linear")
    p.add_argument("--sigma", type=float, help="rbf bandwidth (default: median heuristic)")
    p.add_argument("--c", type=float, help="SVDD trade-off C")
    p.add_argument("--nu", type=float, help="OC-SVM fraction parameter")
    p.add_argument("--d", type=int, help="subspace dimension (default min(10, D))")
    p.add_argument("--beta", type=float)
    p.add_argument("--psi", choices=PSI_VARIANTS)
    p.add_argument("--eta", type=float, help="subspace learning rate")
    p.add_argument("--iterations", type=int,
                   help="ssvdd: at most this many outer iterations (default 50); "
                        "fewer once the objective settles")
    p.add_argument("--k-neighbors", type=int)
    p.add_argument("--epsilon", type=float, help="ridge regularizer")
    p.add_argument("--filter-normal", action="store_true",
                   help="silently drop non-normal rows instead of failing")
    p.add_argument("--extraction-config", help="vocabulary JSON from extract --save-vocab")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on labeled features")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True, help="labeled test feature CSV")
    p.add_argument("--out-table", help="per-attack Gmean table CSV")
    p.add_argument("--out-summary", help="JSON summary with confusion counts")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("detect", help="score an unlabeled log window by window")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_detect)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # config supplies defaults; a second parse lets explicit flags win
            with features.naming(f"config file {args.config}"):
                args._subparser.set_defaults(**_config_defaults(args._subparser,
                                                                args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except ContractViolation as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONTRACT
    except (ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
