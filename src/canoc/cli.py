"""Command-line pipeline: simulate, inject, extract, train, eval, detect.

Exit codes: 0 ok/clean, 2 usage or input error, 3 contract violation
(non-normal training rows), 4 anomaly detected. Every command is
deterministic given its inputs and flags; ``simulate`` and ``inject`` draw
from ``--seed``. A flat ``key = value`` config file can supply any flag;
explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import canlog, features, simulate
from .evaluate import evaluate, write_report_table
from .models import (FAMILY_PARAMS, MODEL_FAMILIES, PSI_VARIANTS, KernelSpec,
                     fit_model, load_model, save_model, score_samples)
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
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno} is not 'key = value': {raw.rstrip()}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


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
            value: object = text.lower() in ("1", "true", "yes", "on")
        elif action.type is not None:
            value = action.type(text)
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
    if args.bus_jitter != simulate.DEFAULT_JITTER:
        ecus = tuple(simulate.EcuSpec(e.can_id, e.period, args.bus_jitter)
                     for e in spec.ids)
        spec = simulate.BusSpec(ecus, args.duration, args.seed)
    return spec


def _labels_path(args: argparse.Namespace) -> str:
    return args.labels_out if args.labels_out else args.out + ".labels.csv"


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _parse_bus(args)
    log = simulate.generate_normal(spec)
    labeled = simulate.LabeledLog(log, (features.LABEL_NORMAL,) * len(log))
    simulate.save_labeled(labeled, args.out, _labels_path(args))
    print(f"wrote {len(log)} frames over {args.duration:g} s "
          f"({len(spec.ids)} ids) to {args.out}")
    return EXIT_OK


def cmd_inject(args: argparse.Namespace) -> int:
    if args.labels:
        labeled: simulate.LabeledLog | canlog.CanLog = simulate.load_labeled(
            args.input, args.labels)
    else:
        labeled = canlog.load_log(args.input)
    scenario = simulate.AttackScenario(
        kind=args.kind,
        rate=args.rate,
        window=(args.start, args.end),
        replay_segment=(tuple(float(t) for t in args.segment.split(":"))
                        if args.segment else None),
        repeat=args.repeat,
        seed=args.seed,
        payload_length=args.payload_len,
    )
    result = simulate.inject(labeled, scenario)
    simulate.save_labeled(result, args.out, _labels_path(args))
    base = labeled.log if isinstance(labeled, simulate.LabeledLog) else labeled
    print(f"injected {len(result.log) - len(base)} {args.kind} frames; wrote "
          f"{len(result.log)} frames to {args.out}")
    return EXIT_OK


def _load_spec(path: str) -> features.FeatureSpec:
    with open(path, "r", encoding="utf-8") as f:
        return features.spec_from_dict(json.load(f), f"vocabulary file {path}")


def cmd_extract(args: argparse.Namespace) -> int:
    log = canlog.load_log(args.input)
    if not len(log):
        raise ValueError(f"input log {args.input} is empty")
    if args.vocab:
        spec = _load_spec(args.vocab)
    else:
        vocab = features.build_vocabulary(log, include_other_bucket=not args.no_other_bucket)
        stride = args.window if args.stride is None else args.stride
        spec = features.FeatureSpec(vocab, args.window, stride, args.stdev_mode)
    windows = features.segment_windows(log, spec.window, spec.stride)
    if args.labels:
        with open(args.labels, "r", encoding="utf-8") as f:
            frame_labels = simulate.read_labels(f)
        labeled = simulate.LabeledLog(log, tuple(frame_labels))
        window_labels = simulate.label_windows(labeled, windows)
    else:
        window_labels = [features.LABEL_NORMAL] * len(windows)
    X, labels = features.extract_matrix(windows, spec.vocab, spec.stdev_mode,
                                        window_labels)
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        features.write_feature_csv(f, X, labels, spec.vocab)
    if args.save_vocab:
        with open(args.save_vocab, "w", encoding="utf-8") as f:
            json.dump(features.spec_to_dict(spec), f, indent=2, sort_keys=True)
            f.write("\n")
    print(f"wrote {X.shape[0]} feature rows x {X.shape[1]} columns to {args.out}")
    return EXIT_OK


def _kernel_from_args(args: argparse.Namespace) -> KernelSpec:
    return KernelSpec(args.kernel, args.sigma)


def cmd_train(args: argparse.Namespace) -> int:
    with open(args.features, "r", encoding="utf-8") as f:
        X, labels, vocab = features.read_feature_csv(f)
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
    scaler = features.fit_scaler(X)
    # every hyperparameter of the family whose flag is set (C from --c)
    params = {key: getattr(args, key.lower()) for key in FAMILY_PARAMS[args.family]
              if getattr(args, key.lower(), None) is not None}
    model = fit_model(args.family, features.apply_scaler(scaler, X),
                      kernel=_kernel_from_args(args), scaler=scaler, **params)
    save_model(model, args.out, spec)
    print(f"trained {model_tag(model)} on {X.shape[0]} rows; wrote {args.out}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    model, spec = load_model(args.model)
    with open(args.features, "r", encoding="utf-8") as f:
        X, labels, vocab = features.read_feature_csv(f)
    if spec is not None and spec.vocab != vocab:
        raise ValueError(f"the columns of {args.features} do not match the "
                         f"vocabulary of model {args.model}")
    report = evaluate(model, X, labels)
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
    if model.scaler is not None and spec.vocab.dimension != model.scaler.mean.shape[0]:
        raise ValueError(f"vocabulary dimension {spec.vocab.dimension} does not match "
                         f"model dimension {model.scaler.mean.shape[0]}")
    log = canlog.load_log(args.input)
    if not len(log):
        raise ValueError(f"input log {args.input} is empty")
    windows = features.segment_windows(log, spec.window, spec.stride)
    X, _ = features.extract_matrix(windows, spec.vocab, spec.stdev_mode)
    scores = score_samples(model, X)
    for w, score in zip(windows, scores.tolist()):
        print(f"{w.start:.6f},{score:.9g},{'anomaly' if score > 0 else 'normal'}")
    return EXIT_ANOMALY if (scores > 0).any() else EXIT_OK


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
    p.add_argument("--end", type=float, default=1.0, help="attack window end")
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
    p.add_argument("--window", type=float, default=1.0, help="window length (s)")
    p.add_argument("--stride", type=float, help="window stride (default: window)")
    p.add_argument("--stdev-mode", choices=features.STDEV_MODES, default="gaps")
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
    p.add_argument("--iterations", type=int)
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
            args._subparser.set_defaults(**_config_defaults(args._subparser,
                                                            args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except ContractViolation as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONTRACT
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
